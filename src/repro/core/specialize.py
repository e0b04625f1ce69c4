"""The compiled integer LUT kernel (hot-path codegen, built once per plan).

Integer-key tables — group-granularity quantized tables with exact
aggregation, the default :class:`~repro.core.config.TMACConfig` — run one
kernel compiled at first use and cached on the plan
(:meth:`KernelPlan.specialized`); serial and thread-sharded execution
both reach it through that one hook.

:class:`NativeLutKernel` is the paper's mechanism itself (§3.2/§3.3): the
integer phase runs in C (``tlut.c``, :mod:`repro.core.native`) for
``g = 4``, one ``pshufb`` of a 16-entry int8 table per 32 weight rows of
the plan's packed-nibble layout, with the GIL released.  Its integer
block sums are exact and the float epilogue (1/gpq of the data) performs
the loop oracle's operations in the oracle's order, so results are
bit-identical to :class:`~repro.core.executor.LoopExecutor`.

It is compiled whenever the library loads.  Every other case — no
compiler, a failed build or load, no AVX2, ``g != 4``,
``native.force("numpy")`` — and every other table mode (unquantized, fine
scale granularity, fast aggregation) runs the loop oracle.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Optional

import numpy as np

from repro.core.lut import accumulator_dtype

__all__ = [
    "NativeLutKernel",
    "integer_key",
    "compile_specialized",
    "maybe_specialized",
    "native_phase",
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
    """Whether ``(table, config)`` runs the compiled integer kernel where
    one compiles.

    True for group-granularity quantized tables with exact aggregation;
    the mirror flag does not matter (the native phase rebuilds the full
    16-entry table).
    """
    return (bool(table.quantized) and table.scale_block != 1
            and not getattr(config, "fast_aggregation", False))


class NativeLutKernel:
    """The integer LUT kernel: ``tlut.c``'s integer phase and the oracle's
    float epilogue (module docstring).

    Per bit, index column and 32-row block, one ``vpshufb`` of the
    16-entry int8 table answers 32 weight rows of the plan's frozen
    :func:`~repro.core.weights.nibble_blocks` array (read as it is, no
    copy), with the GIL released (:mod:`repro.core.native`).  Holds that
    array and scalars, plus references to the weights' ``[QG, M]`` scales
    and ``scales * zeros`` product — never the plan.  Its span API mirrors
    the executor's: :meth:`iter_span` yields ``(qg0, qg1, chunk)``
    codes-dot chunks and :meth:`recombine_span` applies the weight
    scales/zeros.
    """

    def __init__(self, *, nibbles, native, gpq: int, scales_t: np.ndarray,
                 sz_t: np.ndarray, alpha: float, beta: float):
        self.native = native
        #: The instruction set the integer phase runs on.
        self.path = native.path
        self.nibbles = nibbles
        self.scales_t = scales_t
        self.sz_t = sz_t
        self.alpha = alpha
        self.beta = beta
        self.bits = nibbles.shape[0]
        self.gpq = gpq
        self.qgroups = scales_t.shape[0]
        #: int16 while ``gpq * 127`` fits, else int32 — the dtype the
        #: integer phase sums the int8 table entries in.
        self.acc_dtype = accumulator_dtype(gpq)
        #: ``2**bit`` as ``[bits, 1, 1, 1]``.  Scaling by a power of two
        #: commutes with every float rounding, so the epilogue folds the
        #: bit weights — and alpha when it is one (0.5 by default) — into
        #: its small per-(qg, n) factors instead of passes over the data.
        self.bit_weights = np.ldexp(1.0, np.arange(self.bits)).reshape(
            -1, 1, 1, 1)
        self.fold_alpha = math.frexp(alpha)[0] == 0.5

    def _block_sums(self, values, m0: int, m1: int) -> np.ndarray:
        """Exact integer block sums ``S[bit, qg, n, m]`` of one output span,
        as float64 (m-minor, so the widening is a contiguous convert)."""
        return self.native.block_sums(self.nibbles, values, self.gpq, m0, m1,
                                      self.acc_dtype).astype(np.float64)

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

    def _spans(self, table, group_sums, m0: int, m1: int, budget: int):
        """Yield ``(s0, s1, codes_dot)`` over sub-spans of ``[m0, m1)``.

        The transients are bounded by splitting the output columns —
        never the quantization groups — so every piece is one full
        reduction.
        """
        n = table.num_rows
        if n == 0:
            return
        values = np.ascontiguousarray(table.values)
        tscale = table.scales.T[:, :, None]  # [QG, N, 1]
        sums = group_sums.T[:, :, None]  # [QG, N, 1]
        step = max(1, budget // (n * self.bits * self.qgroups))
        for s0 in range(m0, m1, step):
            s1 = min(s0 + step, m1)
            yield s0, s1, self._codes_dot(values, tscale, sums, s0, s1)

    def iter_span(self, table, group_sums, m0: int, m1: int, budget: int):
        """The whole span as one ``(0, QG, [N, m1-m0, QG])`` chunk."""
        chunk = np.empty((table.num_rows, m1 - m0, self.qgroups),
                         dtype=np.float64)
        for s0, s1, codes in self._spans(table, group_sums, m0, m1, budget):
            chunk[:, s0 - m0:s1 - m0, :] = codes.transpose(1, 2, 0)
        yield 0, self.qgroups, chunk

    def recombine_span(self, table, group_sums, m0: int, m1: int,
                       budget: int) -> np.ndarray:
        """Scale/zero recombination over output columns ``[m0, m1)``."""
        sums = group_sums.T[:, :, None]
        out = np.zeros((table.num_rows, m1 - m0), dtype=np.float64)
        for s0, s1, codes in self._spans(table, group_sums, m0, m1, budget):
            codes *= self.scales_t[:, None, s0:s1]
            zero_terms = self.sz_t[:, None, s0:s1] * sums
            span = out[:, s0 - m0:s1 - m0]
            for qg in range(self.qgroups):
                span += codes[qg]
                span -= zero_terms[qg]
        return out


def native_phase(g: int):
    """The native library an integer kernel at ``g`` compiles with (and
    :func:`~repro.core.weights.preprocess_weights` packs with), or
    ``None`` when the loop oracle runs instead (building the library on
    first use)."""
    if g != 4:
        return None
    from repro.core import native

    return native.backend()


def compile_specialized(plan) -> Optional[NativeLutKernel]:
    """Compile the integer LUT kernel for ``plan``: a
    :class:`NativeLutKernel` over the plan's packed weights when the native
    library serves the plan's ``g``, else ``None``."""
    backend = native_phase(plan.g)
    if backend is None:
        return None
    weights = plan.weights
    # Frozen before publication: shared by every executor thread (the
    # weights froze them when the plan was built; this holds the kernel to
    # it).
    for arr in (weights.packed, weights.scales_t, weights.sz_t):
        arr.setflags(write=False)
    kernel = NativeLutKernel(
        nibbles=weights.packed, native=backend, gpq=plan.groups_per_qgroup,
        scales_t=weights.scales_t, sz_t=weights.sz_t,
        alpha=plan.transform.alpha, beta=plan.transform.beta)
    _SPECIALIZE_STATS.add(specialize_builds=1)
    return kernel


def maybe_specialized(plan, table, config) -> Optional[NativeLutKernel]:
    """The compiled integer kernel for this dispatch, or ``None`` when the
    loop oracle runs: an ablation table mode, or no native phase for the
    plan's ``g`` on this host (then nothing is compiled, ever).

    Called once per span execution — the per-call cost of an integer key
    on a native host is the loaded library's lookup plus one attribute
    read on the plan.
    """
    if not integer_key(table, config) or native_phase(plan.g) is None:
        return None
    _SPECIALIZE_STATS.add(specialize_calls=1)
    return plan.specialized()
