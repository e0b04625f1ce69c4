"""Execution autotuner: shape-keyed choices from a calibration profile."""

import numpy as np
import pytest

import repro.tuning.tuner as tuner_mod
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.quant.uniform import quantize_weights
from repro.tuning.tuner import (
    ExecutionChoice,
    ShapeTuner,
    autotune_enabled,
    reset_autotuner,
    resolve_autotuned,
)
from repro.workloads.generator import gaussian_activation, gaussian_weights

from tests.hardware.test_calibrate import TRUE_COEFFICIENTS, synthetic_profile


def _config(**kwargs):
    kwargs.setdefault("executor", "vectorized")
    return TMACConfig(bits=4, **kwargs)


class TestEnablement:
    @pytest.mark.parametrize("value,expected", [
        (None, False), ("", False), ("0", False), ("false", False),
        ("no", False), ("1", True), ("true", True), ("on", True),
    ])
    def test_env_parsing(self, monkeypatch, value, expected):
        if value is None:
            monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
        else:
            monkeypatch.setenv("REPRO_AUTOTUNE", value)
        assert autotune_enabled() is expected


class TestChoose:
    def test_single_core_stays_serial(self):
        tuner = ShapeTuner(synthetic_profile(cores=1))
        choice = tuner.choose(1, 4096, 4096, _config(parallel_threshold=1))
        assert choice.executor == "vectorized"
        assert choice.workers == 1
        assert choice.predicted_seconds > 0

    def test_small_shapes_stay_serial_below_threshold(self):
        tuner = ShapeTuner(synthetic_profile(cores=8))
        config = _config(parallel_threshold=1 << 30)
        choice = tuner.choose(1, 256, 1024, config)
        assert choice.executor == "vectorized"

    def test_multicore_large_shape_picks_a_pool(self):
        slow = {k: v * 50 for k, v in TRUE_COEFFICIENTS.items()}
        tuner = ShapeTuner(synthetic_profile(cores=8, coefficients=slow))
        config = _config(parallel_threshold=1)
        choice = tuner.choose(8, 4096, 4096, config)
        serial = tuner.profile.predict_gemm_seconds(8, 4096, 4096, config)
        assert choice.executor == "parallel"
        assert choice.workers > 1
        assert choice.predicted_seconds < serial

    @pytest.mark.parametrize("cores", [1, 2, 8])
    def test_choices_name_only_serial_or_thread_pool(self, cores):
        slow = {k: v * 50 for k, v in TRUE_COEFFICIENTS.items()}
        tuner = ShapeTuner(synthetic_profile(cores=cores, coefficients=slow))
        config = _config(parallel_threshold=1)
        for n, m, k in ((1, 256, 1024), (1, 4096, 4096), (8, 4096, 4096),
                        (64, 11008, 4096)):
            choice = tuner.choose(n, m, k, config)
            assert choice.executor in ("vectorized", "parallel")
            assert 1 <= choice.workers <= max(cores, 1)

    def test_choice_memoized_per_shape(self):
        tuner = ShapeTuner(synthetic_profile(cores=1))
        config = _config()
        first = tuner.choose(1, 512, 2048, config)
        again = tuner.choose(1, 512, 2048, config)
        other = tuner.choose(1, 1024, 2048, config)
        assert again is first
        assert other is not first

    def test_profile_preferences_propagate(self):
        tuner = ShapeTuner(synthetic_profile(cores=1, chunk_elements=1 << 20))
        choice = tuner.choose(1, 512, 2048, _config())
        assert choice.chunk_elements == 1 << 20


class TestApply:
    def test_fills_only_delegated_fields(self):
        tuner = ShapeTuner(synthetic_profile(cores=1, chunk_elements=1 << 20))
        choice = ExecutionChoice(executor="vectorized", workers=1,
                                 chunk_elements=1 << 20,
                                 predicted_seconds=1e-3)
        delegated = _config(chunk_elements=None)
        tuned = tuner.apply(delegated, choice)
        assert tuned.chunk_elements == 1 << 20
        pinned = _config(chunk_elements=1 << 24)
        assert tuner.apply(pinned, choice) is pinned  # explicit wins, no-op

    def test_rewrites_executor_and_workers(self):
        tuner = ShapeTuner(synthetic_profile(cores=8))
        choice = ExecutionChoice(executor="parallel", workers=3,
                                 chunk_elements=None,
                                 predicted_seconds=1e-3)
        tuned = tuner.apply(_config(), choice)
        assert tuned.executor == "parallel"
        assert tuned.num_threads == 3

    def test_matching_choice_returns_config_unchanged(self):
        tuner = ShapeTuner(synthetic_profile(cores=1))
        config = _config(chunk_elements=1 << 22)
        choice = ExecutionChoice(executor="vectorized", workers=1,
                                 chunk_elements=None,
                                 predicted_seconds=1e-3)
        assert tuner.apply(config, choice) is config


class TestKernelIntegration:
    @pytest.fixture()
    def tuned_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_AUTOTUNE", "1")
        monkeypatch.setattr(
            tuner_mod, "_AUTOTUNER",
            ShapeTuner(synthetic_profile(cores=1, chunk_elements=1 << 20)))
        yield
        reset_autotuner()

    def test_resolve_autotuned_fills_chunk_budget(self, tuned_env):
        qw = quantize_weights(gaussian_weights(64, 128, seed=2), bits=4,
                              group_size=32)
        kernel = TMACKernel(qw, _config())
        tuned = resolve_autotuned(kernel.plan, kernel.config, n=1)
        assert tuned.chunk_elements == 1 << 20
        assert tuned.executor == "vectorized"

    def test_autotuned_matmul_is_bit_identical(self, tuned_env, monkeypatch):
        qw = quantize_weights(gaussian_weights(64, 128, seed=2), bits=4,
                              group_size=32)
        a = gaussian_activation(3, 128, seed=9)
        tuned_out = TMACKernel(qw, _config()).matmul(a)
        monkeypatch.delenv("REPRO_AUTOTUNE")
        plain_out = TMACKernel(qw, _config()).matmul(a)
        np.testing.assert_array_equal(tuned_out, plain_out)

    def test_disabled_autotune_keeps_kernel_binding(self, monkeypatch):
        monkeypatch.delenv("REPRO_AUTOTUNE", raising=False)
        qw = quantize_weights(gaussian_weights(64, 128, seed=2), bits=4,
                              group_size=32)
        kernel = TMACKernel(qw, _config())
        config, executor = kernel._execution(np.zeros((1, 128),
                                                      dtype=np.float32))
        assert config is kernel.config
        assert executor is kernel.executor
