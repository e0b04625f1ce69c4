"""The compiled integer LUT kernel (hot-path codegen, built once per plan).

Integer-key tables — group-granularity quantized tables with exact
aggregation, the default :class:`~repro.core.config.TMACConfig` — run one
kernel compiled at first use and cached on the plan
(:meth:`KernelPlan.specialized`); serial and thread-sharded execution
both reach it through that one hook.  Every other table mode
(unquantized, fine scale granularity, fast aggregation) is an ablation
and runs the loop oracle (:class:`~repro.core.executor.LoopExecutor`).
The kernel comes in two forms:

* :class:`IntegerLutKernel` — the paper's LUT-centric layout (§3.2/§3.3)
  in numpy terms — except that ``ndarray.take`` costs the same per
  *index* whatever the slab size (TBL/PSHUFB holds 16 entries), so the
  packed byte is not unpacked: it is the index.  Offline the weight
  indices are stored *reduce-major* as local table addresses
  ``planes[s, m, bit, qg] = qg * 2**(g*f) + code``, ``code``
  concatenating the ``f = fusion_width(g)`` indices of step ``s`` of the
  quantization group (``g = 4``: the ``uint4[2]`` byte); online the table
  is expanded once per activation to *row-minor* sums of ``f`` entries,
  ``lut[s, qg * 2**(g*f) + code, n]``
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
  bit-identical.  Compiled whenever the library loads; without a
  compiler, after a failed build or load, without AVX2 and at ``g != 4``
  the numpy integer phase runs (:func:`runs_native`).
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

import numpy as np

from repro.core.lut import accumulator_dtype, fusion_width

__all__ = [
    "IntegerLutKernel",
    "NativeLutKernel",
    "reduce_major_planes",
    "integer_key",
    "compile_specialized",
    "maybe_specialized",
    "native_phase",
    "runs_native",
    "specialize_stats",
    "reset_specialize_stats",
]


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
))


def specialize_stats() -> Dict[str, int]:
    """Counters of the process-wide specialization cache (serving stats)."""
    return _SPECIALIZE_STATS.snapshot()


def reset_specialize_stats() -> None:
    """Zero the specialization counters (tests and benchmarks)."""
    _SPECIALIZE_STATS.reset()


def integer_key(table, config) -> bool:
    """Whether ``(table, config)`` runs the compiled integer kernel.

    True for group-granularity quantized tables with exact aggregation;
    the mirror flag does not matter (the table expansion absorbs it).
    """
    return (bool(table.quantized) and table.scale_block != 1
            and not getattr(config, "fast_aggregation", False))


def reduce_major_planes(index_planes, g: int, gpq: int) -> np.ndarray:
    """Permute the ``[M, K/g]`` index planes to the integer kernel's layout.

    Returns ``planes[s, m, bit, qg] = qg * 2**(g*f) + code`` in the
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
    return planes


class IntegerLutKernel:
    """The reduce-major, row-minor integer LUT kernel (module docstring).

    Holds its frozen ``planes`` and scalars, plus references to the
    weights' ``[QG, M]`` scales and ``scales * zeros`` product — never the
    plan.  Its span API mirrors the executor's:
    :meth:`iter_span` yields ``(qg0, qg1, chunk)`` codes-dot chunks and
    :meth:`recombine_span` applies the weight scales/zeros.
    """

    #: The integer phase that runs: numpy here, an instruction set in
    #: :class:`NativeLutKernel`.
    path = "numpy"

    def __init__(self, *, bits: int, steps: int, gpq: int,
                 scales_t: np.ndarray, sz_t: np.ndarray, alpha: float,
                 beta: float, planes: Optional[np.ndarray] = None):
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
    plan's frozen :func:`~repro.core.weights.nibble_blocks` array (read
    as it is, no copy), with the GIL
    released (:mod:`repro.core.native`).  The block sums arrive m-minor,
    so the float epilogue starts with a contiguous convert; no expanded
    table is built.
    """

    def __init__(self, *, nibbles, native, gpq: int, **epilogue):
        super().__init__(bits=nibbles.shape[0],
                         steps=-(-gpq // fusion_width(4)), gpq=gpq,
                         **epilogue)
        self.native = native
        self.path = native.path
        self.nibbles = nibbles

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
    """The native library an integer kernel at ``g`` compiles with (and
    :func:`~repro.core.weights.preprocess_weights` packs with), or
    ``None`` for numpy's integer phase (building the library on first
    use)."""
    if g != 4:
        return None
    from repro.core import native

    return native.backend()


def runs_native(config, group_size: int) -> bool:
    """Whether a kernel under ``config`` on quantization groups of
    ``group_size`` runs the native integer phase: an integer key
    (:func:`integer_key`) on a host :func:`native_phase` serves — the
    condition :func:`compile_specialized` acts on, for the cost model."""
    integer = (config.table_quantization and not config.fast_aggregation
               and config.lut_scale_granularity == "group"
               and group_size // config.g > 1)
    return (integer and config.executor != "loop"
            and native_phase(config.g) is not None)


def compile_specialized(plan):
    """Compile the integer LUT kernel for ``plan``.

    :class:`NativeLutKernel` over the plan's packed weights when the
    native library serves the plan's ``g``, else :class:`IntegerLutKernel`
    over reduce-major planes built from index planes unpacked for the
    compile.
    """
    weights = plan.weights
    epilogue = dict(gpq=plan.groups_per_qgroup, scales_t=weights.scales_t,
                    sz_t=weights.sz_t, alpha=plan.transform.alpha,
                    beta=plan.transform.beta)
    backend = native_phase(plan.g)
    if backend is not None:
        kernel = NativeLutKernel(nibbles=weights.packed, native=backend,
                                 **epilogue)
    else:
        planes = reduce_major_planes(
            [weights.indices(bit) for bit in range(plan.bits)], plan.g,
            plan.groups_per_qgroup)
        # Frozen before publication: shared by every executor thread (the
        # weights' arrays were frozen when the plan was built).
        planes.setflags(write=False)
        kernel = IntegerLutKernel(bits=planes.shape[2], steps=planes.shape[0],
                                  planes=planes, **epilogue)
    _SPECIALIZE_STATS.add(specialize_builds=1)
    return kernel


def maybe_specialized(plan, table, config) -> Optional[IntegerLutKernel]:
    """The compiled integer kernel for this dispatch, or ``None`` when the
    table mode runs the loop oracle.

    Called once per span execution — the per-call cost of an integer key
    is one attribute read on the plan.
    """
    if not integer_key(table, config):
        return None
    _SPECIALIZE_STATS.add(specialize_calls=1)
    return plan.specialized()
