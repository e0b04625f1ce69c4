"""Unit tests for the numeric mpGEMM backends a model binds."""

import numpy as np
import pytest

from repro.backends import (
    DequantBackend,
    ReferenceBackend,
    TMACBackend,
    get_backend,
    pick_group_size,
)
from repro.core.config import TMACConfig
from repro.workloads.generator import gaussian_activation, gaussian_weights


class TestPickGroupSize:
    def test_divisible_passes_through(self):
        assert pick_group_size(4096, 128) == 128

    def test_shrinks_to_divisor(self):
        assert pick_group_size(192, 128) == 64
        assert pick_group_size(48, 32) == 24 or 48 % pick_group_size(48, 32) == 0

    def test_small_k(self):
        assert pick_group_size(64, 128) == 64

    def test_rejects_tiny_k(self):
        with pytest.raises(ValueError):
            pick_group_size(2, 128)


class TestEngines:
    def setup_method(self):
        self.weight = gaussian_weights(32, 128, seed=0)
        self.activation = gaussian_activation(2, 128, seed=1)
        self.reference = self.activation @ self.weight.T

    def test_reference_engine_is_exact(self):
        linear = ReferenceBackend().make_linear(self.weight)
        np.testing.assert_allclose(linear(self.activation), self.reference,
                                   rtol=1e-5, atol=1e-5)

    def test_dequant_engine_close_to_reference(self):
        linear = DequantBackend(bits=4, group_size=64).make_linear(self.weight)
        out = linear(self.activation)
        nmse = np.mean((out - self.reference) ** 2) / np.mean(self.reference ** 2)
        assert nmse < 0.02

    def test_tmac_engine_close_to_reference(self):
        linear = TMACBackend(bits=4, group_size=64).make_linear(self.weight)
        out = linear(self.activation)
        nmse = np.mean((out - self.reference) ** 2) / np.mean(self.reference ** 2)
        assert nmse < 0.02

    def test_tmac_and_dequant_agree(self):
        """Both quantized engines consume the same weights: Table 4 parity."""
        tmac = TMACBackend(bits=4, group_size=64).make_linear(self.weight)
        dequant = DequantBackend(bits=4, group_size=64).make_linear(self.weight)
        a = self.activation
        diff = np.mean((tmac(a) - dequant(a)) ** 2) / np.mean(dequant(a) ** 2)
        assert diff < 1e-3

    def test_fast_aggregation_engine_name(self):
        engine = TMACBackend(bits=4,
                            config=TMACConfig(bits=4, fast_aggregation=True))
        assert "FA" in engine.name

    def test_bitnet_engines(self):
        tmac = TMACBackend(bitnet=True).make_linear(self.weight)
        dequant = DequantBackend(bitnet=True).make_linear(self.weight)
        out_t = tmac(self.activation)
        out_d = dequant(self.activation)
        assert out_t.shape == (2, 32)
        diff = np.mean((out_t - out_d) ** 2) / (np.mean(out_d ** 2) + 1e-12)
        assert diff < 1e-2

    def test_weight_bytes_reported(self):
        linear4 = TMACBackend(bits=4, group_size=64).make_linear(self.weight)
        linear2 = TMACBackend(bits=2, group_size=64).make_linear(self.weight)
        assert linear2.weight_bytes < linear4.weight_bytes

    def test_linear_operator_metadata(self):
        linear = ReferenceBackend().make_linear(self.weight, name="mlp.up_proj")
        assert linear.name == "mlp.up_proj"
        assert linear.out_features == 32
        assert linear.in_features == 128


class TestFactory:
    def test_known_kinds(self):
        assert isinstance(get_backend("reference"), ReferenceBackend)
        assert isinstance(get_backend("dequant"), DequantBackend)
        assert isinstance(get_backend("llama.cpp"), DequantBackend)
        assert isinstance(get_backend("tmac"), TMACBackend)
        assert isinstance(get_backend("T-MAC"), TMACBackend)

    def test_fast_aggregation_flag(self):
        engine = get_backend("tmac", fast_aggregation=True)
        assert engine.config.fast_aggregation

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            get_backend("tpu")
