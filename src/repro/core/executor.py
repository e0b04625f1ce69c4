"""Online executors for T-MAC kernel plans (Algorithm 1, online stage).

An executor consumes a :class:`~repro.core.plan.KernelPlan` (the offline
stage) plus a precomputed :class:`~repro.core.lut.LookupTable` and produces
the mpGEMM result.  Three executors implement the same mathematics:

* :class:`LoopExecutor` — the reference implementation: explicit Python
  loops over weight-quantization groups and bit planes, mirroring the tile
  walk of Algorithm 1 line by line.  Slow, obviously correct, kept as the
  numerical oracle.
* :class:`VectorizedExecutor` — the production implementation: the native
  integer kernel, else the oracle.  Integer-key tables (group-granularity
  quantized tables with exact aggregation — the default config) run the
  plan's compiled native ``pshufb`` kernel (:mod:`repro.core.specialize`)
  where the library loads and ``g = 4``.  Every other case — no compiler,
  no AVX2, another ``g``, and the ablation table modes (unquantized, fine
  scale granularity, fast aggregation) — runs the loop oracle.
* :class:`ParallelExecutor` — the multi-core implementation: a native
  integer-key call's output columns are sharded into contiguous spans
  aligned to the plan's ``m_tm`` layout tile
  (:meth:`KernelPlan.output_tiles`) and executed on a persistent worker
  thread pool.  Every worker consumes the *same* per-call lookup table (it
  is read-only after precompute) and owns a disjoint output span, so there
  is no cross-tile accumulation and the per-element float-op sequence is
  exactly the serial one — results are bit-identical at any thread count.
  Calls whose work falls below ``TMACConfig.parallel_threshold``, and
  every call the oracle runs, take the serial path, so tiny decode-regime
  kernels never pay fork/join overhead.

All executors run the same elementwise float operations in the same order,
so their results are *bit-identical* (asserted in the unit tests across
bits, group sizes, aggregation modes and thread counts).  The executor is
selected per kernel via ``TMACConfig.executor``.
"""

from __future__ import annotations

import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Dict, List, Type

import numpy as np

from repro.analysis.sanitizer import plan_canary
from repro.core.aggregation import exact_aggregate, fast_aggregate
from repro.core.config import TMACConfig, usable_cpus
from repro.core.lut import LookupTable, lookup
from repro.core.plan import KernelPlan
from repro.core.specialize import (
    _StatsBlock,
    integer_key,
    maybe_specialized,
    native_phase,
    reset_specialize_stats,
    specialize_stats,
)

__all__ = [
    "KernelExecutor",
    "LoopExecutor",
    "VectorizedExecutor",
    "ParallelExecutor",
    "get_executor",
    "list_executors",
    "get_worker_pool",
    "shutdown_worker_pools",
    "parallel_executor_stats",
    "reset_parallel_executor_stats",
    "specialize_stats",
    "reset_specialize_stats",
]


class KernelExecutor:
    """Base class: lookup + aggregate + bit-serial recombination."""

    name = "base"

    def iter_codes_dot(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        group_sums: np.ndarray,
    ):
        """``A @ codes^T`` streamed per span of quantization groups.

        Yields ``(qg0, qg1, chunk)`` with ``chunk`` a ``[N, M, qg1-qg0]``
        float64 array: the integer-code dot product resolved per weight
        quantization group (scales/zeros not yet applied).  Streaming keeps
        peak memory at one span — the consumer folds each chunk into its
        ``[N, M]`` accumulator immediately, like the original kernel did.
        """
        return self.iter_codes_dot_span(plan, table, config, group_sums,
                                        0, plan.out_features)

    def iter_codes_dot_span(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        group_sums: np.ndarray,
        m0: int,
        m1: int,
        max_elements: int = 0,
    ):
        """Like :meth:`iter_codes_dot`, restricted to output columns
        ``[m0, m1)`` (chunks are ``[N, m1-m0, qg1-qg0]``)."""
        raise NotImplementedError

    def _recombine_span(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        group_sums: np.ndarray,
        m0: int,
        m1: int,
        max_elements: int = 0,
    ) -> np.ndarray:
        """Scale/zero recombination over output columns ``[m0, m1)``.

        Walks the quantization groups in order with the exact float-op
        sequence of the original kernel; every operation is elementwise
        along the output axis, so a column span computes bitwise the
        columns of a full-width result.  ``max_elements`` bounds the span's
        temporaries where the executor splits them (0 uses its default);
        block boundaries never change results.
        """
        n = group_sums.shape[0]
        scales_t = plan.weights.scales_t  # [QG, M]
        sz_t = plan.weights.sz_t  # [QG, M], scales * zeros
        out = np.zeros((n, m1 - m0), dtype=np.float64)
        for qg0, qg1, chunk in self.iter_codes_dot_span(
            plan, table, config, group_sums, m0, m1, max_elements
        ):
            for qg in range(qg0, qg1):
                out += scales_t[qg, m0:m1][None, :] * chunk[:, :, qg - qg0]
                out -= sz_t[qg, m0:m1][None, :] * group_sums[:, qg][:, None]
        return out

    def matmul_with_table(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        activation: np.ndarray,
    ) -> np.ndarray:
        """Full mpGEMM ``[N, K] x [M, K]^T -> [N, M]`` float32.

        The scale/zero recombination walks the quantization groups in order
        with the exact float-op sequence of the original kernel, so all
        executors produce bit-identical results whenever their codes-dot
        chunks agree bitwise (which they do — the integer kernel performs
        the oracle's float operations on exact integer block sums).  Each
        streamed chunk is folded into the ``[N, M]`` accumulator
        immediately, so peak memory matches the seed kernel's running
        accumulation instead of growing with the number of quantization
        groups.
        """
        n = activation.shape[0]
        group_sums = activation.reshape(
            n, plan.num_qgroups, plan.group_size).sum(axis=2)
        with plan_canary(plan):
            out = self._recombine_span(plan, table, config, group_sums,
                                       0, plan.out_features)
        return out.astype(np.float32)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


class LoopExecutor(KernelExecutor):
    """Reference executor: per-quantization-group / per-bit Python loops.

    This is the seed implementation of the kernel, preserved verbatim as the
    numerical oracle the vectorized path is tested against.
    """

    name = "loop"

    def _block_partial(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        bit: int,
        qg: int,
    ) -> np.ndarray:
        """Looked-up and aggregated partial result of one bit plane over one
        weight-quantization group.  Returns ``[N, M]`` float64."""
        gpq = plan.groups_per_qgroup
        j0 = qg * gpq
        jslice = slice(j0, j0 + gpq)
        indices = plan.weights.indices(bit, j0, j0 + gpq)
        raw = lookup(table, indices, group_slice=jslice)  # [N, M, gpq]

        if not table.quantized:
            return exact_aggregate(raw, axis=-1)

        if table.scale_block == 1:
            # Fine granularity: each group has its own scale; rescale before
            # the (float) accumulation.
            scales = table.scales[:, jslice]  # [N, gpq]
            return exact_aggregate(raw * scales[:, None, :], axis=-1)

        # Group granularity: one scale per quantization block -> aggregate in
        # the integer domain (exactly or with the lossy rhadd tree), then
        # rescale once.
        if config.fast_aggregation:
            aggregated = fast_aggregate(raw, axis=-1)
        else:
            aggregated = exact_aggregate(raw, axis=-1)
        block_scale = table.scales[:, qg]  # [N]
        return aggregated * block_scale[:, None]

    def _codes_dot_block(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        qg: int,
        group_sum: np.ndarray,
    ) -> np.ndarray:
        """``A_block @ codes_block^T`` for one quantization group, [N, M]."""
        alpha = plan.transform.alpha
        beta = plan.transform.beta
        codes_dot = np.zeros(
            (table.num_rows, plan.out_features), dtype=np.float64
        )
        for bit in range(plan.bits):
            partial = self._block_partial(plan, table, config, bit, qg)
            codes_dot += float(1 << bit) * (
                alpha * partial + beta * group_sum[:, None]
            )
        return codes_dot

    def iter_codes_dot_span(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        group_sums: np.ndarray,
        m0: int,
        m1: int,
        max_elements: int = 0,
    ):
        """The oracle walks the full output width only."""
        if (m0, m1) != (0, plan.out_features):
            raise NotImplementedError(
                f"{type(self).__name__} cannot restrict the output span"
            )
        for qg in range(plan.num_qgroups):
            block = self._codes_dot_block(
                plan, table, config, qg, group_sums[:, qg]
            )
            yield qg, qg + 1, block[:, :, None]


class VectorizedExecutor(LoopExecutor):
    """Production executor: the native integer kernel, else the oracle.

    Integer-key tables run the plan's compiled native LUT kernel
    (:func:`~repro.core.specialize.maybe_specialized`) over any output
    span.  A host without the native phase for the plan's ``g`` and the
    ablation table modes (unquantized, fine scale granularity, fast
    aggregation) compile nothing and run the loop oracle it inherits, so
    they are bit-identical to it by construction.
    """

    name = "vectorized"

    #: Upper bound on the elements of one integer-kernel span temporary
    #: (float64).  Decode-regime calls (small N) fit in one block;
    #: prefill-style mpGEMM over large N is split along the output
    #: columns.
    max_gather_elements = 1 << 24

    def iter_codes_dot_span(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        group_sums: np.ndarray,
        m0: int,
        m1: int,
        max_elements: int = 0,
    ):
        spec = maybe_specialized(plan, table, config)
        if spec is None:
            return super().iter_codes_dot_span(plan, table, config,
                                               group_sums, m0, m1)
        return spec.iter_span(table, group_sums, m0, m1,
                              max_elements or self.max_gather_elements)

    def _recombine_span(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        group_sums: np.ndarray,
        m0: int,
        m1: int,
        max_elements: int = 0,
    ) -> np.ndarray:
        spec = maybe_specialized(plan, table, config)
        if spec is None:
            return super()._recombine_span(plan, table, config, group_sums,
                                           m0, m1)
        return spec.recombine_span(table, group_sums, m0, m1,
                                   max_elements or self.max_gather_elements)


# --------------------------------------------------------------------- #
# Persistent worker pools (shared by every parallel kernel call)
# --------------------------------------------------------------------- #

_POOLS_LOCK = threading.Lock()
_WORKER_POOLS: Dict[int, ThreadPoolExecutor] = {}


def get_worker_pool(num_threads: int) -> ThreadPoolExecutor:
    """The process-wide worker pool for ``num_threads`` workers.

    Pools are created lazily and kept for the life of the process (thread
    startup costs far more than an mpGEMM shard), so every kernel, every
    layer and every serving step sharing a thread count also shares one
    pool.  The native integer phase (a ctypes call) and numpy's epilogue
    release the GIL, so the workers genuinely overlap on multi-core
    hosts.
    """
    if num_threads < 1:
        raise ValueError(f"num_threads must be >= 1, got {num_threads}")
    with _POOLS_LOCK:
        pool = _WORKER_POOLS.get(num_threads)
        if pool is None:
            pool = ThreadPoolExecutor(
                max_workers=num_threads,
                thread_name_prefix=f"repro-mpgemm-{num_threads}",
            )
            _WORKER_POOLS[num_threads] = pool
        return pool


def shutdown_worker_pools() -> None:
    """Tear down every persistent worker pool (tests / embedders)."""
    with _POOLS_LOCK:
        pools = list(_WORKER_POOLS.values())
        _WORKER_POOLS.clear()
    for pool in pools:
        pool.shutdown(wait=True)


_PARALLEL_STATS = _StatsBlock((
    "parallel_calls",  # matmuls routed through the parallel executor
    "parallel_sharded_calls",  # calls that actually sharded across workers
    "parallel_serial_fallbacks",  # below the threshold, or the oracle runs
    "parallel_shards_executed",  # total output-span shards run on workers
))


def parallel_executor_stats() -> Dict[str, int]:
    """Counters of the process-wide parallel executor (serving stats)."""
    return _PARALLEL_STATS.snapshot()


def reset_parallel_executor_stats() -> None:
    """Zero the parallel-executor counters (tests and benchmarks)."""
    _PARALLEL_STATS.reset()


class ParallelExecutor(VectorizedExecutor):
    """Multi-core executor: output-column shards on a persistent thread pool.

    For calls the native integer kernel runs, the output (M) axis is
    partitioned into at most ``num_threads`` contiguous spans aligned to
    the plan's ``m_tm`` layout tile (:meth:`KernelPlan.output_tiles`);
    each shard runs the compiled kernel's span against the *shared*
    per-call lookup table and writes a disjoint slice of the output.  The reduction over K happens entirely
    inside a shard in the serial order, and no accumulator crosses a shard
    boundary, so results are bit-identical to the serial vectorized
    executor at every thread count.

    ``TMACConfig`` knobs:

    * ``num_threads`` — worker count; ``None`` uses the usable cores
      (:func:`~repro.core.config.usable_cpus`).
    * ``parallel_threshold`` — minimum gather work (``N * M * K/g``
      elements) before sharding pays; smaller calls (tiny decode-regime
      kernels) take the serial path unchanged.

    Every call the loop oracle runs (no native phase for the plan's
    ``g``, or an ablation table mode) runs it serially at any thread
    count.
    """

    name = "parallel"

    def resolve_threads(self, config: TMACConfig) -> int:
        """Worker count for this call (config override or usable cores)."""
        if config.num_threads is not None:
            return max(1, config.num_threads)
        return usable_cpus()

    def matmul_with_table(
        self,
        plan: KernelPlan,
        table: LookupTable,
        config: TMACConfig,
        activation: np.ndarray,
    ) -> np.ndarray:
        n = activation.shape[0]
        threads = self.resolve_threads(config)
        work = n * plan.out_features * plan.num_groups
        shards: List = []
        if (threads > 1 and work >= config.parallel_threshold
                and integer_key(table, config)
                and native_phase(plan.g) is not None):
            shards = plan.output_tiles(threads)
        if len(shards) <= 1:
            _PARALLEL_STATS.add(parallel_calls=1, parallel_serial_fallbacks=1)
            return super().matmul_with_table(plan, table, config, activation)

        # Split the span-temporary element budget across the concurrent
        # shards so total transient memory matches the serial bound.
        span_budget = max(1, self.max_gather_elements // len(shards))
        group_sums = activation.reshape(
            n, plan.num_qgroups, plan.group_size).sum(axis=2)
        out = np.empty((n, plan.out_features), dtype=np.float32)

        def run_shard(span) -> None:
            m0, m1 = span
            # Assignment into the float32 slice performs the same rounding
            # as the serial path's final ``astype(np.float32)``.
            out[:, m0:m1] = self._recombine_span(
                plan, table, config, group_sums, m0, m1, span_budget
            )

        pool = get_worker_pool(threads)
        with plan_canary(plan):
            futures = [pool.submit(run_shard, span) for span in shards]
            for future in futures:
                future.result()  # propagate the first worker exception
        _PARALLEL_STATS.add(parallel_calls=1, parallel_sharded_calls=1,
                            parallel_shards_executed=len(shards))
        return out


_EXECUTORS: Dict[str, Type[KernelExecutor]] = {
    LoopExecutor.name: LoopExecutor,
    VectorizedExecutor.name: VectorizedExecutor,
    ParallelExecutor.name: ParallelExecutor,
}


def get_executor(name: str) -> KernelExecutor:
    """Instantiate an executor by name (``"vectorized"``, ``"parallel"``
    or ``"loop"``)."""
    try:
        return _EXECUTORS[name]()
    except KeyError:
        raise ValueError(
            f"unknown executor {name!r}; known: {sorted(_EXECUTORS)}"
        ) from None


def list_executors() -> list:
    """Names of the available executors."""
    return sorted(_EXECUTORS)
