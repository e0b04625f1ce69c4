"""Unit tests for the kernel configuration and ablation stages."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.config import (
    ABLATION_STAGE_NAMES,
    TMACConfig,
    ablation_stages,
    usable_cpus,
)
from repro.core.executor import ParallelExecutor
from repro.core.kernel import TMACKernel
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights

REPO_ROOT = Path(__file__).resolve().parents[2]


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


class TestRetiredKnobs:
    """The process pool, the float closures and the runtime execution
    autotuner are gone, and so are their configuration surfaces."""

    @pytest.mark.parametrize("field", ["num_workers", "gather_variant",
                                       "specialize", "chunk_elements"])
    def test_retired_fields_rejected(self, field):
        assert field not in {f.name for f in dataclasses.fields(TMACConfig)}
        with pytest.raises(TypeError):
            TMACConfig(**{field: None})

    @pytest.mark.parametrize("name", [
        "REPRO_NUM_WORKERS", "REPRO_DISABLE_SHM",
        "REPRO_PROCESS_CALL_TIMEOUT_S", "REPRO_GATHER", "REPRO_SPECIALIZE",
        "REPRO_AUTOTUNE", "REPRO_CHUNK_ELEMENTS", "REPRO_CALIBRATION",
    ])
    def test_retired_env_knobs_are_ignored(self, monkeypatch, name):
        """The config is unchanged, and a matmul runs the executor and
        config the kernel was bound to."""
        baseline = TMACConfig(bits=4)
        qw = quantize_weights(gaussian_weights(64, 128, seed=2), bits=4,
                              group_size=32)
        a = gaussian_activation(3, 128, seed=9)
        expected = TMACKernel(qw, baseline).matmul(a)
        monkeypatch.setenv(name, "not-a-value")
        assert TMACConfig(bits=4) == baseline
        kernel = TMACKernel(qw, TMACConfig(bits=4))
        seen = []
        bound = kernel.executor.matmul_with_table

        def spy(plan, table, config, activation):
            seen.append(config)
            return bound(plan, table, config, activation)

        monkeypatch.setattr(kernel.executor, "matmul_with_table", spy)
        np.testing.assert_array_equal(kernel.matmul(a), expected)
        assert len(seen) == 1 and seen[0] is kernel.config

    def test_shm_shim_keeps_only_a_noop_shutdown(self):
        from repro.core import shm

        public = {name for name in vars(shm) if not name.startswith("_")}
        assert public == {"shutdown_process_pools"}
        assert shm.shutdown_process_pools() is None

    def test_backend_ignores_num_workers(self, monkeypatch):
        from repro.backends import get_backend

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        backend = get_backend("tmac", bits=4, group_size=32, num_workers=2)
        linear = backend.make_linear(np.ones((32, 64), dtype=np.float32))
        assert linear.kernel.config.executor == "vectorized"
        assert not hasattr(linear.kernel.config, "num_workers")

    def test_autotuner_surface_is_gone(self):
        import repro.core.config as config_mod
        import repro.hardware.calibrate as calibrate_mod
        import repro.tuning.tuner as tuner_mod
        from repro.core.executor import VectorizedExecutor

        for name in ("ShapeTuner", "ExecutionChoice", "resolve_autotuned",
                     "reset_autotuner", "autotune_enabled"):
            assert not hasattr(tuner_mod, name), name
        assert not hasattr(config_mod, "autotune_enabled")
        for name in ("load_profile", "CHUNK_BUDGET_CANDIDATES",
                     "_sweep_chunk_budgets"):
            assert not hasattr(calibrate_mod, name), name
        assert not hasattr(TMACKernel, "_execution")
        assert not hasattr(VectorizedExecutor, "gather_budget")

    def test_quickstart_finishes_with_autotune_set(self):
        """``REPRO_AUTOTUNE=1`` once deadlocked the first matmul."""
        env = dict(os.environ, REPRO_AUTOTUNE="1",
                   PYTHONPATH=str(REPO_ROOT / "src"))
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "quickstart.py")],
            cwd=REPO_ROOT, env=env, capture_output=True, text=True,
            timeout=60)
        assert proc.returncode == 0, proc.stderr


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
        auto = TMACConfig(num_threads=None)
        assert usable_cpus() == 3
        assert ParallelExecutor().resolve_threads(auto) == 3
        # An explicit count still wins.
        pinned = TMACConfig(num_threads=5)
        assert ParallelExecutor().resolve_threads(pinned) == 5

    def test_falls_back_to_cpu_count_without_affinity_support(
            self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 6)
        assert usable_cpus() == 6
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert usable_cpus() == 1

    def test_calibration_profile_records_usable_cores(self, monkeypatch):
        from repro.hardware.calibrate import calibrate

        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        profile = calibrate(shapes=[(1, 64, 128, 4, 32)], repeats=1)
        assert profile.cores == 3
