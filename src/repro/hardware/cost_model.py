"""Roofline cost model: instruction profiles -> kernel latencies.

The model is a classic two-term roofline,

``latency = max(compute_time, memory_time)``,

with

* ``compute_time`` — the profile's instruction counts divided by the
  per-category issue rates of the device's ISA, scaled by the core's SIMD
  issue width, frequency and the number of threads.  When the lookup tables
  do not fit in registers (no LUT-centric tiling) lookup instructions are
  slowed down by :data:`TABLE_SPILL_PENALTY` because each lookup round-trips
  through L1/L2.
* ``memory_time`` — the profile's DRAM traffic divided by the effective
  bandwidth from :class:`repro.hardware.memory.MemoryModel` (thread count
  and access-sequentiality aware).

Convenience wrappers build the profiles for T-MAC and the dequantization
baseline directly from problem shapes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.config import TMACConfig
from repro.hardware.device import Device
from repro.hardware.memory import MemoryModel
from repro.simd.isa import InstructionCategory as IC
from repro.simd.profile import (
    InstructionProfile,
    profile_dequant_gemm,
    profile_tmac_gemm,
)

__all__ = [
    "KernelLatency",
    "CostModel",
    "TABLE_SPILL_PENALTY",
    "THREAD_POOL_GIL_FRACTION",
]

#: Slow-down applied to lookup instructions when the tables live in L1/L2
#: instead of vector registers (TM-base, before the LUT-centric tiling).
TABLE_SPILL_PENALTY = 3.0

#: Fraction of each extra *thread* that converts into real speedup under
#: the GIL.  The thread pool only overlaps inside numpy's nogil kernels;
#: the Python glue between gathers serializes, and the measured
#: thread-scaling run reaches 1.18x on 2 threads — i.e. ~18% of the second
#: thread was usable.
THREAD_POOL_GIL_FRACTION = 0.18


@dataclass(frozen=True)
class KernelLatency:
    """Latency estimate for one kernel call."""

    seconds: float
    compute_seconds: float
    memory_seconds: float
    threads: int
    bound: str
    description: str = ""

    @property
    def milliseconds(self) -> float:
        """Latency in milliseconds."""
        return self.seconds * 1e3

    @property
    def microseconds(self) -> float:
        """Latency in microseconds."""
        return self.seconds * 1e6


class CostModel:
    """Roofline latency model for one device.

    Parameters
    ----------
    device:
        The :class:`~repro.hardware.device.Device` to model.

    Examples
    --------
    >>> from repro.hardware import M2_ULTRA, CostModel
    >>> from repro.core.config import TMACConfig
    >>> model = CostModel(M2_ULTRA)
    >>> lat = model.tmac_gemv_latency(4096, 4096, TMACConfig(bits=2), threads=1)
    >>> lat.bound in ("compute", "memory")
    True
    """

    def __init__(self, device: Device):
        self.device = device
        self.memory = MemoryModel(device.cpu)

    # ------------------------------------------------------------------ #
    # Core roofline
    # ------------------------------------------------------------------ #

    def compute_seconds(self, profile: InstructionProfile, threads: int) -> float:
        """Time spent issuing the profile's vector instructions."""
        isa = self.device.isa
        cycles = 0.0
        for category, count in profile.counts.items():
            per_cycle = isa.throughput_of(category)
            penalty = 1.0
            if category == IC.LOOKUP and not profile.tables_in_registers:
                penalty = TABLE_SPILL_PENALTY
            cycles += count * penalty / per_cycle
        cycles /= self.device.cpu.simd_throughput_scale
        hz = self.device.cpu.frequency_ghz * 1e9
        return cycles / (hz * threads)

    def memory_seconds(self, profile: InstructionProfile, threads: int) -> float:
        """Time spent moving the profile's DRAM traffic."""
        total_bytes = profile.dram_read_bytes + profile.dram_write_bytes
        return self.memory.dram_time_seconds(
            total_bytes, threads, sequential=profile.sequential_weight_access
        )

    def kernel_latency(
        self,
        profile: InstructionProfile,
        threads: Optional[int] = None,
    ) -> KernelLatency:
        """Roofline latency of a kernel described by ``profile``."""
        threads = threads or self.device.default_threads
        if threads < 1 or threads > self.device.cpu.cores:
            raise ValueError(
                f"threads={threads} out of range [1, {self.device.cpu.cores}] "
                f"for {self.device.name}"
            )
        compute = self.compute_seconds(profile, threads)
        memory = self.memory_seconds(profile, threads)
        seconds = max(compute, memory)
        bound = "compute" if compute >= memory else "memory"
        return KernelLatency(
            seconds=seconds,
            compute_seconds=compute,
            memory_seconds=memory,
            threads=threads,
            bound=bound,
            description=profile.description,
        )

    # ------------------------------------------------------------------ #
    # Convenience wrappers for the two CPU kernels
    # ------------------------------------------------------------------ #

    def tmac_gemm_latency(
        self,
        n: int,
        m: int,
        k: int,
        config: TMACConfig,
        threads: Optional[int] = None,
        group_size: int = 128,
        tile_config=None,
    ) -> KernelLatency:
        """Latency of a T-MAC mpGEMM ``[N,K] x [M,K]^T`` on this device."""
        profile = profile_tmac_gemm(
            n, m, k, config, isa=self.device.isa, group_size=group_size,
            tile_config=tile_config,
        )
        return self.kernel_latency(profile, threads)

    def tmac_gemv_latency(
        self,
        m: int,
        k: int,
        config: TMACConfig,
        threads: Optional[int] = None,
        group_size: int = 128,
        tile_config=None,
    ) -> KernelLatency:
        """Latency of a T-MAC mpGEMV (N=1)."""
        return self.tmac_gemm_latency(1, m, k, config, threads, group_size,
                                      tile_config)

    # ------------------------------------------------------------------ #
    # Parallel-executor (output-column sharding) estimates
    # ------------------------------------------------------------------ #

    @staticmethod
    def shard_efficiency(m: int, threads: int, m_tile: int) -> float:
        """Parallel efficiency of tile-aligned output-column sharding.

        The parallel executor shards M into spans of whole ``m_tile``
        layout tiles (:meth:`repro.core.plan.KernelPlan.output_tiles`), so
        the compute term scales not with the raw thread count but with the
        *balance* of the tile distribution: with ``T`` tiles over ``t``
        threads the slowest worker owns ``ceil(T/t)`` tiles, giving an
        effective speedup of ``T / ceil(T/t)`` (= ``t`` whenever ``t``
        divides ``T``).  Returned as speedup / threads in ``(0, 1]``.
        """
        if min(m, threads, m_tile) < 1:
            raise ValueError("m, threads and m_tile must all be >= 1")
        tiles = -(-m // m_tile)
        usable = min(threads, tiles)
        speedup = tiles / -(-tiles // usable)
        return speedup / threads

    def tmac_parallel_gemm_latency(
        self,
        n: int,
        m: int,
        k: int,
        config: TMACConfig,
        threads: int,
        group_size: int = 128,
        tile_config=None,
    ) -> KernelLatency:
        """Latency of a T-MAC mpGEMM under the parallel executor.

        Unlike :meth:`tmac_gemm_latency` (which assumes ideally divisible
        work), the compute term honours the executor's actual sharding
        geometry via :meth:`shard_efficiency`; the memory term uses the
        bandwidth the thread count can sustain, as before.  The two
        coincide whenever the thread count divides the tile count — the
        thread-scaling benchmark records both.
        """
        if threads < 1 or threads > self.device.cpu.cores:
            raise ValueError(
                f"threads={threads} out of range [1, {self.device.cpu.cores}] "
                f"for {self.device.name}"
            )
        from repro.core.weights import resolve_tile_config

        profile = profile_tmac_gemm(
            n, m, k, config, isa=self.device.isa, group_size=group_size,
            tile_config=tile_config,
        )
        tile = resolve_tile_config(config, tile_config)
        efficiency = self.shard_efficiency(m, threads, tile.m_tm)
        compute = self.compute_seconds(profile, 1) / (threads * efficiency)
        memory = self.memory_seconds(profile, threads)
        seconds = max(compute, memory)
        return KernelLatency(
            seconds=seconds,
            compute_seconds=compute,
            memory_seconds=memory,
            threads=threads,
            bound="compute" if compute >= memory else "memory",
            description=f"{profile.description} [parallel x{threads}]",
        )

    def thread_scaling(
        self,
        n: int,
        m: int,
        k: int,
        config: TMACConfig,
        thread_counts,
        group_size: int = 128,
        tile_config=None,
    ) -> "dict[int, KernelLatency]":
        """Parallel-executor latency at each requested thread count."""
        return {
            int(t): self.tmac_parallel_gemm_latency(
                n, m, k, config, int(t), group_size, tile_config)
            for t in thread_counts
        }

    def dequant_gemm_latency(
        self,
        n: int,
        m: int,
        k: int,
        bits: int,
        threads: Optional[int] = None,
        group_size: int = 32,
    ) -> KernelLatency:
        """Latency of the llama.cpp-style dequantization mpGEMM."""
        profile = profile_dequant_gemm(
            n, m, k, bits, isa=self.device.isa, group_size=group_size
        )
        return self.kernel_latency(profile, threads)

    def dequant_gemv_latency(
        self,
        m: int,
        k: int,
        bits: int,
        threads: Optional[int] = None,
        group_size: int = 32,
    ) -> KernelLatency:
        """Latency of the llama.cpp-style dequantization mpGEMV (N=1)."""
        return self.dequant_gemm_latency(1, m, k, bits, threads, group_size)
