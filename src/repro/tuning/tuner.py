"""Tile-configuration tuner.

The paper uses AutoTVM to tune the generated kernels per device; its
Figure 10 shows tuning contributing a small improvement on M2-Ultra (whose
default configuration already matches the registers/caches well) and notes
that other devices benefit more.  :class:`Tuner` reproduces that workflow:
it enumerates register-feasible tile configurations
(:func:`repro.tuning.search_space.candidate_tile_configs`) and ranks them by
roofline latency for a given problem shape, device and thread count.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.config import TMACConfig
from repro.core.tiling import TileConfig
from repro.hardware.cost_model import CostModel
from repro.hardware.device import Device
from repro.tuning.search_space import candidate_tile_configs

__all__ = [
    "TuningRecord",
    "TuningResult",
    "Tuner",
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

