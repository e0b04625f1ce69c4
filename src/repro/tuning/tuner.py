"""Tile-configuration tuner and the measurement-driven execution autotuner.

The paper uses AutoTVM to tune the generated kernels per device; its
Figure 10 shows tuning contributing a small improvement on M2-Ultra (whose
default configuration already matches the registers/caches well) and notes
that other devices benefit more.  :class:`Tuner` reproduces that workflow:
it enumerates register-feasible tile configurations
(:func:`repro.tuning.search_space.candidate_tile_configs`) and ranks them by
roofline latency for a given problem shape, device and thread count.

:class:`ShapeTuner` is the runtime counterpart, driven by *measurements*
instead of the analytic model: given a host calibration profile
(:mod:`repro.hardware.calibrate`), it picks the executor, thread count
and chunk budget for each mpGEMM shape, memoized per shape.
``REPRO_AUTOTUNE=1`` makes :class:`~repro.core.kernel.TMACKernel` consult
it transparently on every matmul (:func:`resolve_autotuned`).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import TMACConfig, autotune_enabled
from repro.core.tiling import TileConfig
from repro.hardware.cost_model import THREAD_POOL_GIL_FRACTION, CostModel
from repro.hardware.device import Device
from repro.tuning.search_space import candidate_tile_configs

__all__ = [
    "TuningRecord",
    "TuningResult",
    "Tuner",
    "ExecutionChoice",
    "ShapeTuner",
    "autotune_enabled",
    "resolve_autotuned",
    "reset_autotuner",
]


@dataclass(frozen=True)
class TuningRecord:
    """One evaluated candidate."""

    tile_config: TileConfig
    latency_seconds: float


@dataclass(frozen=True)
class TuningResult:
    """Outcome of a tuning run."""

    best_config: TileConfig
    best_latency_seconds: float
    records: List[TuningRecord]
    default_latency_seconds: float

    @property
    def improvement(self) -> float:
        """Speedup of the best configuration over the un-tuned default."""
        if self.best_latency_seconds <= 0:
            return 1.0
        return self.default_latency_seconds / self.best_latency_seconds


class Tuner:
    """Exhaustive tuner for T-MAC tile configurations on one device."""

    def __init__(self, device: Device):
        self.device = device
        self.cost_model = CostModel(device)

    def tune(
        self,
        m: int,
        k: int,
        config: TMACConfig,
        n: int = 1,
        threads: Optional[int] = None,
        max_candidates: int = 64,
    ) -> TuningResult:
        """Search tile configurations for one matmul shape.

        Returns the best configuration, its estimated latency, the full
        evaluation history and the latency of the un-tuned default
        configuration (for the Figure 10 "+Tuning" comparison).
        """
        default_latency = self.cost_model.tmac_gemm_latency(
            n, m, k, config, threads=threads
        ).seconds

        candidates = candidate_tile_configs(
            self.device.isa,
            bits=config.bits,
            g=config.g,
            n=n,
            table_quantization=config.table_quantization,
            mirror_consolidation=config.mirror_consolidation,
            max_candidates=max_candidates,
        )
        if not candidates:
            raise RuntimeError(
                "no register-feasible tile configuration found; the search "
                "space constraints are inconsistent with the ISA"
            )

        records: List[TuningRecord] = []
        for candidate in candidates:
            latency = self.cost_model.tmac_gemm_latency(
                n, m, k, config, threads=threads, tile_config=candidate
            ).seconds
            records.append(TuningRecord(candidate, latency))

        best = min(records, key=lambda record: record.latency_seconds)
        return TuningResult(
            best_config=best.tile_config,
            best_latency_seconds=best.latency_seconds,
            records=records,
            default_latency_seconds=default_latency,
        )


# --------------------------------------------------------------------- #
# Measurement-driven execution autotuning (REPRO_AUTOTUNE=1)
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class ExecutionChoice:
    """The execution strategy picked for one mpGEMM shape.

    ``workers`` is the thread-pool width for the ``"parallel"`` executor
    and 1 for ``"vectorized"``.
    """

    executor: str
    workers: int
    chunk_elements: Optional[int]
    predicted_seconds: float


class ShapeTuner:
    """Per-shape execution tuning over a measured calibration profile.

    For each ``(n, m, k, group_size, config)`` shape the tuner predicts
    the serial latency from the calibrated per-term fit, then compares

    * the serial vectorized executor,
    * the thread pool at 2..cores workers, degraded by the measured GIL
      fraction (:data:`~repro.hardware.cost_model.THREAD_POOL_GIL_FRACTION`),

    and returns the cheapest as an :class:`ExecutionChoice` — together
    with the profile's measured chunk-budget preference.  Choices are
    memoized; the per-call cost after the first resolution of a shape is
    one dict lookup.
    """

    def __init__(self, profile):
        self.profile = profile
        self._lock = threading.Lock()
        self._choices: Dict[Tuple, ExecutionChoice] = {}

    def choose(self, n: int, m: int, k: int, config: TMACConfig,
               group_size: int = 128) -> ExecutionChoice:
        """The best execution strategy for one shape (memoized)."""
        key = (n, m, k, group_size, config.bits, config.g,
               config.mirror_consolidation, config.table_quantization,
               config.lut_scale_granularity, config.fast_aggregation,
               config.act_dtype, config.parallel_threshold)
        with self._lock:
            cached = self._choices.get(key)
            if cached is not None:
                return cached
            choice = self._choose(n, m, k, config, group_size)
            self._choices[key] = choice
            return choice

    def _choose(self, n: int, m: int, k: int, config: TMACConfig,
                group_size: int) -> ExecutionChoice:
        profile = self.profile
        serial_s = profile.predict_gemm_seconds(
            n, m, k, config.with_options(executor="vectorized"), group_size)
        best = ("vectorized", 1, serial_s)
        gather_work = n * m * (k // config.g)
        if profile.cores > 1 and gather_work >= config.parallel_threshold:
            for workers in range(2, profile.cores + 1):
                # Threads overlap only numpy's nogil interior.
                gil_speedup = 1.0 + (workers - 1) * THREAD_POOL_GIL_FRACTION
                thread_s = serial_s / gil_speedup
                if thread_s < best[2]:
                    best = ("parallel", workers, thread_s)
        return ExecutionChoice(
            executor=best[0],
            workers=best[1],
            chunk_elements=profile.chunk_elements,
            predicted_seconds=best[2],
        )

    def apply(self, config: TMACConfig, choice: ExecutionChoice) -> TMACConfig:
        """Rewrite ``config`` to execute with ``choice``.

        Explicit user settings win: an already-pinned ``chunk_elements``
        is left alone — the tuner only fills in what the caller
        delegated.
        """
        updates: dict = {}
        if config.executor != choice.executor:
            updates["executor"] = choice.executor
        if choice.executor == "parallel" and config.num_threads != choice.workers:
            updates["num_threads"] = choice.workers
        if (choice.chunk_elements is not None
                and config.chunk_elements is None):
            updates["chunk_elements"] = choice.chunk_elements
        if not updates:
            return config
        return config.with_options(**updates)


_AUTOTUNER: Optional[ShapeTuner] = None
_AUTOTUNER_LOCK = threading.Lock()


def _default_tuner() -> ShapeTuner:
    """The process-wide tuner, created on first use.

    The profile comes from ``REPRO_CALIBRATION`` when it names a saved
    file; otherwise a quick in-process calibration runs once (a second or
    two of probes) and serves every subsequent shape.
    """
    global _AUTOTUNER
    with _AUTOTUNER_LOCK:
        if _AUTOTUNER is None:
            from repro.hardware.calibrate import calibrate, load_profile

            profile = load_profile()
            if profile is None:
                profile = calibrate(quick=True)
            _AUTOTUNER = ShapeTuner(profile)
        return _AUTOTUNER


def reset_autotuner() -> None:
    """Drop the process-wide tuner (tests swap profiles this way)."""
    global _AUTOTUNER
    with _AUTOTUNER_LOCK:
        _AUTOTUNER = None


def resolve_autotuned(plan, config: TMACConfig, n: int) -> TMACConfig:
    """The autotuned execution config for one dispatch against ``plan``.

    Called by :class:`~repro.core.kernel.TMACKernel` under
    ``REPRO_AUTOTUNE=1``.  Returns ``config`` itself (no re-dispatch)
    when the tuned choice matches what the config already says.
    """
    group_size = plan.in_features // max(1, plan.num_qgroups)
    tuner = _default_tuner()
    choice = tuner.choose(n, plan.out_features, plan.in_features, config,
                          group_size)
    return tuner.apply(config, choice)
