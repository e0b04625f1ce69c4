"""Plan-specialized span kernels (hot-path codegen, built once per plan).

At first use one kernel is compiled per ``(KernelPlan, table mode,
execution flags)`` and cached on the plan (:meth:`KernelPlan.specialized`);
serial, thread-sharded and process-worker execution all reach it through
that one hook.  Three kernels exist:

* :class:`IntegerLutKernel` — the production path for group-granularity
  quantized tables (the default :class:`~repro.core.config.TMACConfig`),
  the paper's LUT-centric layout (§3.2/§3.3) in numpy terms — except
  that ``ndarray.take`` costs the same per *index* whatever the slab size
  (TBL/PSHUFB holds 16 entries), so the packed byte is not unpacked: it
  is the index.  Offline the weight indices are stored *reduce-major* as
  local table addresses ``planes[s, m, bit, qg] = qg * 2**(g*f) + code``,
  ``code`` concatenating the ``f = fusion_width(g)`` indices of step ``s``
  of the quantization group (``g = 4``: the ``uint4[2]`` byte); online
  the table is expanded once per activation to *row-minor* sums of ``f``
  entries, ``lut[s, qg * 2**(g*f) + code, n]``
  (:meth:`~repro.core.lut.LookupTable.row_minor`).  The heavy phase is
  ``acc += np.take(lut[s], planes[s, m0:m1].ravel(), axis=0)`` over the
  ``ceil(gpq / f)`` steps: one index fetches ``f`` groups of all ``N``
  rows contiguously and no float ``[N, M, K/g]`` temporary exists.  The
  integer block sums are exact and the float epilogue (1/gpq of the
  data) performs the loop oracle's operations in the oracle's order, so
  results are bit-identical to :class:`~repro.core.executor.LoopExecutor`.
* :class:`NativeLutKernel` — the same kernel with the integer phase in C
  (``tlut.c``, :mod:`repro.core.native`) for ``g = 4``: the paper's
  mechanism itself, one ``pshufb`` of a 16-entry int8 table per 32 weight
  rows of a packed-nibble layout, with the GIL released.  Its block sums
  are the same integers, so the unchanged epilogue keeps the output
  bit-identical.  Compiled whenever the library loads and the plan's own
  index planes are at hand; without a compiler, after a failed build or
  load, without AVX2, at ``g != 4`` and in process workers (which receive
  ``planes``) the numpy integer phase runs (:func:`runs_native`).
* :class:`SpecializedKernel` — branch-resolved float closures for the
  modes whose float sums are order-sensitive (unquantized tables, fine
  scale granularity, fast aggregation).  Bit-identical to the generic
  vectorized walk.
"""

from __future__ import annotations

import math
import threading
from functools import cached_property
from typing import Dict, List, NamedTuple, Optional

import numpy as np

from repro.core.aggregation import fast_aggregate
from repro.core.lut import accumulator_dtype, fusion_width
from repro.core.weights import nibble_blocks

__all__ = [
    "SpecializationKey",
    "SpecializedKernel",
    "IntegerLutKernel",
    "NativeLutKernel",
    "reduce_major_planes",
    "specialization_key",
    "compile_specialized",
    "maybe_specialized",
    "native_phase",
    "runs_native",
    "resolve_gather_variant",
    "set_default_gather_variant",
    "default_gather_variant",
    "specialize_stats",
    "reset_specialize_stats",
]


class SpecializationKey(NamedTuple):
    """Everything that selects one compiled kernel for a plan.

    The fields are *normalized* (irrelevant flags forced to a canonical
    value) so configs that cannot differ in behaviour share one compiled
    kernel — e.g. ``fast_aggregation`` is meaningless for unquantized
    tables and never forks a second build, and the integer kernel serves
    mirrored and unmirrored tables under either gather preference.
    """

    mirrored: bool
    quantized: bool
    fine: bool  # scale_block == 1 (per-group dynamic scales)
    fast_aggregation: bool
    gather: str  # "fancy" | "take"

    @property
    def integer(self) -> bool:
        """Group-granularity exact aggregation: :class:`IntegerLutKernel`."""
        return self.quantized and not self.fine and not self.fast_aggregation


class _StatsBlock:
    """Lock-protected counter block with atomic ``snapshot`` / ``reset``.

    One lock covers every counter, so a snapshot taken mid-benchmark is
    internally consistent (all keys from the same instant) and a reset
    between benchmark phases can never interleave with a half-applied
    update — the stats-bleed the benchmarks used to suffer from.
    """

    def __init__(self, keys):
        self._lock = threading.Lock()
        self._counts: Dict[str, int] = {key: 0 for key in keys}

    def add(self, **deltas: int) -> None:
        with self._lock:
            for key, delta in deltas.items():
                self._counts[key] += delta

    def snapshot(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._counts)

    def reset(self) -> None:
        with self._lock:
            for key in self._counts:
                self._counts[key] = 0


_SPECIALIZE_STATS = _StatsBlock((
    "specialize_builds",  # kernels compiled (cache misses)
    "specialize_calls",  # span executions routed through a compiled kernel
    "specialize_generic_calls",  # spans that fell back to the generic path
))


def specialize_stats() -> Dict[str, int]:
    """Counters of the process-wide specialization cache (serving stats)."""
    return _SPECIALIZE_STATS.snapshot()


def reset_specialize_stats() -> None:
    """Zero the specialization counters (tests and benchmarks)."""
    _SPECIALIZE_STATS.reset()


#: Host-preferred gather driver for ``gather_variant="auto"`` configs.
#: ``"fancy"`` (advanced indexing) wins on most numpy builds; the
#: calibration pass (:mod:`repro.hardware.calibrate`) overrides it when
#: its probes measure ``np.take`` faster on the actual host.
_DEFAULT_GATHER = "fancy"
_GATHER_VARIANTS = ("fancy", "take")


def set_default_gather_variant(variant: str) -> None:
    """Set the host default used by ``gather_variant="auto"`` configs."""
    global _DEFAULT_GATHER
    if variant not in _GATHER_VARIANTS:
        raise ValueError(
            f"gather variant must be one of {_GATHER_VARIANTS}, got {variant!r}"
        )
    _DEFAULT_GATHER = variant


def default_gather_variant() -> str:
    """The current host default gather driver."""
    return _DEFAULT_GATHER


def resolve_gather_variant(config) -> str:
    """Resolve a config's ``gather_variant`` to a concrete driver."""
    raw = getattr(config, "gather_variant", "auto") or "auto"
    return _DEFAULT_GATHER if raw == "auto" else raw


#: The one key of :class:`IntegerLutKernel`, which reads the mirror flag
#: off the table it expands and always gathers with ``np.take``: neither
#: forks a second build, and the hot path constructs no key per call.
_INTEGER_KEY = SpecializationKey(mirrored=False, quantized=True, fine=False,
                                 fast_aggregation=False, gather="take")


def specialization_key(table, config) -> SpecializationKey:
    """Normalized key selecting the compiled kernel for ``(table, config)``.

    ``table`` decides the storage mode (mirrored/quantized/scale block);
    ``config`` contributes only the flags that matter for that mode, so
    e.g. toggling ``fast_aggregation`` on an unquantized run reuses the
    same compiled kernel instead of forking a duplicate.
    """
    quantized = bool(table.quantized)
    fine = quantized and table.scale_block == 1
    fast = (quantized and not fine
            and bool(getattr(config, "fast_aggregation", False)))
    if quantized and not fine and not fast:
        return _INTEGER_KEY
    return SpecializationKey(
        mirrored=bool(table.mirrored), quantized=quantized, fine=fine,
        fast_aggregation=fast, gather=resolve_gather_variant(config))


class SpecializedKernel:
    """One compiled float-domain codes-dot pipeline for a plan + table mode.

    Holds only frozen plan artifacts (by reference) and scalars — never
    the plan itself — so evicting a plan from the :class:`PlanCache`
    releases the kernel with it and no closure keeps the arrays alive.

    The per-call entry points mirror the generic executor's span API:
    :meth:`iter_span` yields ``(qg0, qg1, chunk)`` codes-dot chunks and
    :meth:`recombine_span` applies the weight scales/zeros — both
    bit-identical to :class:`~repro.core.executor.VectorizedExecutor`.
    """

    def __init__(self, key: SpecializationKey, *,
                 signs: Optional[List[np.ndarray]],
                 offsets: List[np.ndarray], scales: np.ndarray,
                 sz: np.ndarray, alpha: float, beta: float, bits: int,
                 gpq: int, qgroups: int):
        self.key = key
        self.signs = signs
        self.offsets = offsets
        self.scales = scales  # weight scales [M, QG] (frozen, plan-owned)
        self.sz = sz  # precomputed scales * zeros [M, QG] (frozen)
        self.alpha = alpha
        self.beta = beta
        self.bits = bits
        self.gpq = gpq
        self.qgroups = qgroups
        #: Bit-plane weights ``2**bit`` as python floats (the generic path
        #: computes ``float(1 << bit)`` per chunk per bit).
        self.bit_weights = [float(1 << bit) for bit in range(bits)]
        self._raw = self._make_raw()
        self._partial = self._make_partial()

    # -- compile-time closure construction ----------------------------- #

    def _make_raw(self):
        """The gather + sign driver: ``(flat, bit, j0, j1, m0, m1) ->
        [N, m1-m0, j1-j0]`` looked-up (and sign-reconstructed) float64.

        The 2-D offset *view* indexes the flat table directly (yielding
        the 3-D result with no index flatten/copy), and the mirror signs
        are fused into the widening multiply — both bit-identical to the
        gather→astype→inplace-multiply sequence of the generic path.
        """
        offsets = self.offsets
        signs = self.signs

        if self.key.gather == "take":
            def gather(flat, off):
                return np.take(flat, off, axis=1)
        else:
            def gather(flat, off):
                return flat[:, off]

        if signs is not None:
            def raw(flat, bit, j0, j1, m0, m1):
                return np.multiply(gather(flat, offsets[bit][m0:m1, j0:j1]),
                                   signs[bit][m0:m1, j0:j1],
                                   dtype=np.float64)
        else:
            def raw(flat, bit, j0, j1, m0, m1):
                return gather(flat, offsets[bit][m0:m1, j0:j1]).astype(
                    np.float64)
        return raw

    def _make_partial(self):
        """The aggregation driver: ``(table, blocked, qg0, qg1, j0, j1) ->
        [N, m, qg1-qg0]`` per-quantization-group partials."""
        gpq = self.gpq

        if not self.key.quantized:
            def partial(table, blocked, qg0, qg1, j0, j1):
                return blocked.sum(axis=-1)
        elif self.key.fine:
            # Fine granularity: per-group scales applied before the float
            # accumulation, all chunk groups at once.
            def partial(table, blocked, qg0, qg1, j0, j1):
                scales = table.scales[:, j0:j1].reshape(
                    blocked.shape[0], 1, qg1 - qg0, gpq)
                return (blocked * scales).sum(axis=-1)
        else:
            # Fast aggregation — exact group aggregation never gets here
            # (it compiles to IntegerLutKernel).
            def partial(table, blocked, qg0, qg1, j0, j1):
                return (fast_aggregate(blocked, axis=-1)
                        * table.scales[:, None, qg0:qg1])
        return partial

    # -- per-call entry points ------------------------------------------ #

    def iter_span(self, table, group_sums, m0: int, m1: int, budget: int):
        """Codes-dot chunks over output columns ``[m0, m1)``.

        Bit-identical to the generic
        :meth:`VectorizedExecutor.iter_codes_dot_span` — same chunk walk,
        same per-bit operation sequence, branches pre-resolved.
        """
        n = table.num_rows
        m = m1 - m0
        gpq = self.gpq
        qgroups = self.qgroups
        alpha = self.alpha
        beta = self.beta
        bit_weights = self.bit_weights
        raw = self._raw
        partial_of = self._partial
        flat = table.values.reshape(n, -1)

        per_qgroup = n * m * gpq
        qg_chunk = max(1, min(qgroups, budget // max(1, per_qgroup)))

        for qg0 in range(0, qgroups, qg_chunk):
            qg1 = min(qg0 + qg_chunk, qgroups)
            j0 = qg0 * gpq
            j1 = qg1 * gpq
            chunk = np.zeros((n, m, qg1 - qg0), dtype=np.float64)
            sums = group_sums[:, None, qg0:qg1]
            for bit in range(self.bits):
                blocked = raw(flat, bit, j0, j1, m0, m1).reshape(
                    n, m, qg1 - qg0, gpq)
                partial = partial_of(table, blocked, qg0, qg1, j0, j1)
                chunk += bit_weights[bit] * (alpha * partial + beta * sums)
            yield qg0, qg1, chunk

    def recombine_span(self, table, group_sums, m0: int, m1: int,
                       budget: int) -> np.ndarray:
        """Scale/zero recombination over output columns ``[m0, m1)``.

        The ``scales * zeros`` product is precomputed once per plan (same
        float32 elementwise product the generic path computes per call),
        so the per-quantization-group loop does two fused multiply-adds
        instead of three multiplies and two adds.
        """
        n = group_sums.shape[0]
        scales = self.scales
        sz = self.sz
        out = np.zeros((n, m1 - m0), dtype=np.float64)
        for qg0, qg1, chunk in self.iter_span(table, group_sums, m0, m1,
                                              budget):
            for qg in range(qg0, qg1):
                out += scales[m0:m1, qg][None, :] * chunk[:, :, qg - qg0]
                out -= sz[m0:m1, qg][None, :] * group_sums[:, qg][:, None]
        return out


def reduce_major_planes(index_planes, g: int, gpq: int) -> np.ndarray:
    """Permute the ``[M, K/g]`` index planes to the integer kernel's layout.

    Returns frozen ``planes[s, m, bit, qg] = qg * 2**(g*f) + code`` in the
    narrowest unsigned dtype holding ``QG * 2**(g*f)``; ``code`` is the
    little-endian concatenation of the ``f`` indices of step ``s`` (pattern
    0 past ``gpq``, where the table has an all-zero slab).  ``s`` (the
    reduction axis) is outermost, so each step reads one contiguous index
    run per output span, of *local* addresses into one ``lut[s]`` slab.
    """
    m, groups = index_planes[0].shape
    qgroups = groups // gpq
    f = fusion_width(g)
    steps = -(-gpq // f)
    dtype = next(dt for dt in (np.uint8, np.uint16, np.uint32)
                 if (qgroups << (g * f)) - 1 <= np.iinfo(dt).max)
    base = np.arange(qgroups, dtype=dtype) << (g * f)
    planes = np.empty((steps, m, len(index_planes), qgroups), dtype=dtype)
    padded = np.zeros((m, qgroups, steps * f), dtype=dtype)
    for bit, plane in enumerate(index_planes):
        padded[:, :, :gpq] = plane.reshape(m, qgroups, gpq)
        code = planes[:, :, bit, :].transpose(1, 2, 0)  # [m, qg, s] view
        np.add(padded[:, :, 0::f], base[:, None], out=code)
        for t in range(1, f):
            code |= padded[:, :, t::f] << (g * t)
    planes.setflags(write=False)
    return planes


class IntegerLutKernel:
    """The reduce-major, row-minor integer LUT kernel (module docstring).

    Owns its frozen artifacts — ``planes`` plus ``[QG, M]`` transposes of
    the weight scales and of the ``scales * zeros`` product — and scalars,
    never the plan.  Same span API as :class:`SpecializedKernel`.
    """

    #: The integer phase that runs: numpy here, an instruction set in
    #: :class:`NativeLutKernel`.
    path = "numpy"

    def __init__(self, key: SpecializationKey, *, bits: int, steps: int,
                 gpq: int, scales_t: np.ndarray, sz_t: np.ndarray,
                 alpha: float, beta: float,
                 planes: Optional[np.ndarray] = None):
        self.key = key
        if planes is not None:
            self.planes = planes
        self.scales_t = scales_t
        self.sz_t = sz_t
        self.alpha = alpha
        self.beta = beta
        self.bits = bits
        self.steps = steps
        self.gpq = gpq
        self.qgroups = scales_t.shape[0]
        #: int16 while ``gpq * 127`` fits, else int32 — the dtype the
        #: integer phase sums the int8 table entries in.
        self.acc_dtype = accumulator_dtype(gpq)
        #: ``2**bit`` as ``[bits, 1, 1, 1]``.  Scaling by a power of two
        #: commutes with every float rounding, so the epilogue folds the
        #: bit weights — and alpha when it is one (0.5 by default) — into
        #: its small per-(qg, n) factors instead of passes over the data.
        self.bit_weights = np.ldexp(1.0, np.arange(bits)).reshape(
            -1, 1, 1, 1)
        self.fold_alpha = math.frexp(alpha)[0] == 0.5

    def _lookup_source(self, table, n0: int, n1: int):
        """What :meth:`_block_sums` looks rows ``[n0, n1)`` up in."""
        return table.row_minor(n0, n1)

    def _block_sums(self, lut, m0: int, m1: int) -> np.ndarray:
        """Exact integer block sums ``S[bit, qg, n, m]`` of one output span,
        as float64."""
        n = lut.shape[2]
        index = self.planes[:, m0:m1].reshape(self.steps, -1)
        acc = np.empty((index.shape[1], n), dtype=self.acc_dtype)
        looked_up = np.empty_like(acc)
        # Indices are in range by construction; "clip" (unlike "raise")
        # lets take write straight into ``out``.
        lut[0].take(index[0], axis=0, out=acc, mode="clip")
        for s in range(1, self.steps):
            lut[s].take(index[s], axis=0, out=looked_up, mode="clip")
            acc += looked_up
        return acc.reshape(m1 - m0, self.bits, self.qgroups, n).transpose(
            1, 2, 3, 0).astype(np.float64, order="C")

    def _codes_dot(self, source, tscale, sums, m0: int, m1: int) -> np.ndarray:
        """``[QG, N, m1-m0]`` float64 codes-dot of one output span."""
        # From the exact integer block sums on, the oracle's float
        # operations in the oracle's order, with the output columns as the
        # long contiguous axis:
        # chunk = sum_bit 2**bit * (alpha * (S * tscale) + beta * sums).
        partial = self._block_sums(source, m0, m1)
        if self.fold_alpha:
            partial *= tscale * (self.bit_weights * self.alpha)
        else:
            partial *= tscale * self.bit_weights
            partial *= self.alpha
        partial += (self.beta * sums) * self.bit_weights
        chunk = partial[0]
        for bit in range(1, self.bits):
            chunk += partial[bit]
        return chunk

    def block_rows(self, table, budget: int) -> int:
        """Rows per expanded-table block under ``budget``; rows are
        independent, so splitting them changes no bit of the result."""
        return max(1, budget // table.fused_entries)

    def warm(self, table, budget: int) -> None:
        """Build a sharded call's shared expanded table in the calling
        thread when one row block covers it, so pool workers only read
        it."""
        if self.block_rows(table, budget) >= table.num_rows:
            table.row_minor()

    def _spans(self, table, group_sums, m0: int, m1: int, budget: int):
        """Yield ``(n0, n1, s0, s1, codes_dot)`` over row blocks of the
        table and sub-spans of ``[m0, m1)``.

        The transients are bounded by splitting the activation rows and
        the output columns — never the quantization groups — so every
        piece is one full reduction.
        """
        rows = self.block_rows(table, budget)
        for n0 in range(0, table.num_rows, rows):
            n1 = min(n0 + rows, table.num_rows)
            source = self._lookup_source(table, n0, n1)
            tscale = table.scales[n0:n1].T[:, :, None]  # [QG, n, 1]
            sums = group_sums[n0:n1].T[:, :, None]  # [QG, n, 1]
            step = max(1, budget // ((n1 - n0) * self.bits * self.qgroups))
            for s0 in range(m0, m1, step):
                s1 = min(s0 + step, m1)
                yield n0, n1, s0, s1, self._codes_dot(source, tscale, sums,
                                                      s0, s1)

    def iter_span(self, table, group_sums, m0: int, m1: int, budget: int):
        """The whole span as one ``(0, QG, [N, m1-m0, QG])`` chunk."""
        chunk = np.empty((table.num_rows, m1 - m0, self.qgroups),
                         dtype=np.float64)
        for n0, n1, s0, s1, codes in self._spans(table, group_sums, m0, m1,
                                                 budget):
            chunk[n0:n1, s0 - m0:s1 - m0, :] = codes.transpose(1, 2, 0)
        yield 0, self.qgroups, chunk

    def recombine_span(self, table, group_sums, m0: int, m1: int,
                       budget: int) -> np.ndarray:
        """Scale/zero recombination over output columns ``[m0, m1)``."""
        sums = group_sums.T[:, :, None]
        out = np.zeros((table.num_rows, m1 - m0), dtype=np.float64)
        for n0, n1, s0, s1, codes in self._spans(table, group_sums, m0, m1,
                                                 budget):
            codes *= self.scales_t[:, None, s0:s1]
            zero_terms = self.sz_t[:, None, s0:s1] * sums[:, n0:n1]
            span = out[n0:n1, s0 - m0:s1 - m0]
            for qg in range(self.qgroups):
                span += codes[qg]
                span -= zero_terms[qg]
        return out


class NativeLutKernel(IntegerLutKernel):
    """:class:`IntegerLutKernel` with the integer phase in ``tlut.c``.

    For ``g = 4``: per bit, index column and 32-row block, one
    ``vpshufb`` of the 16-entry int8 table answers 32 weight rows of the
    frozen :func:`~repro.core.weights.nibble_blocks` layout, with the GIL
    released (:mod:`repro.core.native`).  The block sums arrive m-minor,
    so the float epilogue starts with a contiguous convert; no expanded
    table is built.
    """

    def __init__(self, key: SpecializationKey, *, index_planes, native,
                 gpq: int, **epilogue):
        super().__init__(key, bits=len(index_planes),
                         steps=-(-gpq // fusion_width(4)), gpq=gpq,
                         **epilogue)
        self.native = native
        self.path = native.path
        self._index_planes = index_planes
        self.nibbles = nibble_blocks(index_planes)

    @cached_property
    def planes(self) -> np.ndarray:
        """The numpy path's planes, built only when asked for: the process
        pool publishes them to its workers."""
        return reduce_major_planes(self._index_planes, 4, self.gpq)

    def _lookup_source(self, table, n0: int, n1: int):
        return np.ascontiguousarray(table.values[n0:n1])

    def _block_sums(self, values, m0: int, m1: int) -> np.ndarray:
        return self.native.block_sums(self.nibbles, values, self.gpq, m0, m1,
                                      self.acc_dtype).astype(np.float64)

    def block_rows(self, table, budget: int) -> int:
        return max(1, table.num_rows)  # the tables are read as they are

    def warm(self, table, budget: int) -> None:
        pass  # nothing shared to build


def native_phase(g: int):
    """The native integer phase an integer kernel at ``g`` compiles with,
    or ``None`` for numpy's (building the library on first use)."""
    if g != 4:
        return None
    from repro.core import native

    return native.backend()


def runs_native(config, group_size: int) -> bool:
    """Whether a kernel under ``config`` on quantization groups of
    ``group_size`` runs the native integer phase: a specialized integer
    key (:func:`specialization_key`), in this process, on a host
    :func:`native_phase` serves — the condition
    :func:`compile_specialized` acts on, for the cost model."""
    integer = (config.table_quantization and not config.fast_aggregation
               and config.lut_scale_granularity == "group"
               and group_size // config.g > 1)
    return (integer and config.specialize
            and config.executor in ("vectorized", "parallel")
            and native_phase(config.g) is not None)


def compile_specialized(plan, key: SpecializationKey, artifacts=None):
    """Compile the kernel for ``plan`` under ``key``.

    ``artifacts`` is what the key's kernel gathers through — the
    reduce-major ``planes`` for integer keys, the plan's ``_LookupTables``
    otherwise; ``None`` builds them from the plan.  The plan passes the
    tables it built under its (non-reentrant) lock, the process worker's
    plan-shaped ``_WorkerPlan`` its shared-memory views.  An integer key
    built from the plan's own index planes at ``g = 4`` compiles
    :class:`NativeLutKernel` when the native library loads.
    """
    scales = plan.weights.scales
    # The recombination's scale*zero product, once per plan (float32 in,
    # float32 out — the exact per-call product of the generic path).
    sz = np.multiply(scales, plan.weights.zeros)
    alpha, beta = plan.transform.alpha, plan.transform.beta
    if key.integer:
        scales_t = np.ascontiguousarray(scales.T)
        sz_t = np.ascontiguousarray(sz.T)
        # Frozen before publication: shared by every executor thread.
        scales_t.setflags(write=False)
        sz_t.setflags(write=False)
        epilogue = dict(gpq=plan.groups_per_qgroup, scales_t=scales_t,
                        sz_t=sz_t, alpha=alpha, beta=beta)
        backend = native_phase(plan.g) if artifacts is None else None
        if backend is not None:
            kernel = NativeLutKernel(
                key, index_planes=plan.weights.index_planes, native=backend,
                **epilogue)
        else:
            if artifacts is None:
                artifacts = reduce_major_planes(
                    plan.weights.index_planes, plan.g, plan.groups_per_qgroup)
            steps, _, bits, _ = artifacts.shape
            kernel = IntegerLutKernel(key, bits=bits, steps=steps,
                                      planes=artifacts, **epilogue)
    else:
        if artifacts is None:
            artifacts = plan.lookup_tables(key.mirrored)
        sz.setflags(write=False)
        kernel = SpecializedKernel(
            key, signs=artifacts.signs, offsets=artifacts.offsets,
            scales=scales, sz=sz, alpha=alpha, beta=beta, bits=plan.bits,
            gpq=plan.groups_per_qgroup, qgroups=plan.num_qgroups)
    _SPECIALIZE_STATS.add(specialize_builds=1)
    return kernel


def maybe_specialized(plan, table, config) -> Optional[SpecializedKernel]:
    """The specialized kernel for this dispatch, or ``None`` for generic.

    Returns ``None`` when specialization is disabled
    (``TMACConfig(specialize=False)`` / ``REPRO_SPECIALIZE=0``) or the
    plan object cannot cache kernels (no ``specialized`` method).  Called
    once per span execution — the per-call cost is one dict hit on the
    plan's cache.
    """
    getter = getattr(plan, "specialized", None)
    if getter is None or not getattr(config, "specialize", False):
        _SPECIALIZE_STATS.add(specialize_generic_calls=1)
        return None
    kernel = getter(specialization_key(table, config))
    _SPECIALIZE_STATS.add(specialize_calls=1)
    return kernel
