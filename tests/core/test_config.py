"""Unit tests for the kernel configuration and ablation stages."""

import os

import pytest

from repro.core.config import (
    ABLATION_STAGE_NAMES,
    TMACConfig,
    ablation_stages,
    usable_cpus,
)
from repro.core.executor import ParallelExecutor, ProcessExecutor


class TestTMACConfig:
    def test_defaults_are_full_tmac(self):
        config = TMACConfig()
        assert config.bits == 4
        assert config.g == 4
        assert config.mirror_consolidation
        assert config.table_quantization
        assert not config.fast_aggregation
        assert config.tiling and config.permute_weights
        assert config.interleave_weights

    def test_table_length_reflects_mirror_consolidation(self):
        assert TMACConfig(mirror_consolidation=True).table_length == 8
        assert TMACConfig(mirror_consolidation=False).table_length == 16

    def test_table_entry_bytes(self):
        assert TMACConfig(table_quantization=True).table_entry_bytes == 1
        assert TMACConfig(table_quantization=False,
                          act_dtype="float16").table_entry_bytes == 2
        assert TMACConfig(table_quantization=False,
                          act_dtype="float32").table_entry_bytes == 4

    def test_with_options_returns_new_config(self):
        base = TMACConfig(bits=4)
        other = base.with_options(bits=2, name="low-bit")
        assert base.bits == 4
        assert other.bits == 2
        assert other.name == "low-bit"

    @pytest.mark.parametrize("kwargs", [
        {"bits": 0},
        {"bits": 9},
        {"g": 0},
        {"act_dtype": "float64"},
        {"lut_scale_granularity": "weird"},
        {"s0": 1.0, "s1": 1.0},
        {"fast_aggregation": True, "table_quantization": False},
    ])
    def test_invalid_configs_rejected(self, kwargs):
        with pytest.raises(ValueError):
            TMACConfig(**kwargs)


class TestAblationStages:
    def test_stage_names_match_paper_figure10(self):
        stages = ablation_stages()
        assert tuple(s.name for s in stages) == ABLATION_STAGE_NAMES

    def test_stages_are_cumulative(self):
        stages = {s.name: s for s in ablation_stages()}
        assert not stages["TM-base"].table_quantization
        assert stages["+TQ"].table_quantization
        assert not stages["+TQ"].tiling
        assert stages["+Tiling"].tiling
        assert not stages["+Tiling"].permute_weights
        assert stages["+Perm."].permute_weights
        assert stages["+Tuning"].tuned
        assert stages["T-MAC"].interleave_weights
        assert not stages["T-MAC"].fast_aggregation
        assert stages["TM+FA"].fast_aggregation

    def test_stages_respect_requested_bits(self):
        stages = ablation_stages(bits=2)
        assert all(s.bits == 2 for s in stages)


class TestUsableCpus:
    """Worker pools size themselves by the affinity mask, not the host."""

    def test_pools_follow_the_affinity_mask(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {2, 5, 7},
                            raising=False)
        auto = TMACConfig(num_threads=None, num_workers=None)
        assert usable_cpus() == 3
        assert ParallelExecutor().resolve_threads(auto) == 3
        assert ProcessExecutor().resolve_workers(auto) == 3
        # Explicit counts still win.
        pinned = TMACConfig(num_threads=5, num_workers=6)
        assert ParallelExecutor().resolve_threads(pinned) == 5
        assert ProcessExecutor().resolve_workers(pinned) == 6

    def test_falls_back_to_cpu_count_without_affinity_support(
            self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_calibration_profile_records_usable_cores(self, monkeypatch):
        from repro.core import specialize
        from repro.hardware.calibrate import calibrate

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        # calibrate() applies the measured gather preference process-wide.
        monkeypatch.setattr(specialize, "_DEFAULT_GATHER",
                            specialize.default_gather_variant())
        profile = calibrate(shapes=[(1, 64, 128, 4, 32)], repeats=1,
                            sweep_chunks=False)
        assert profile.cores == 3
