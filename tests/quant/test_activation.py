"""Unit tests for dynamic int8 activation quantization."""

import numpy as np
import pytest

from repro.quant.activation import (
    dequantize_activation,
    quantize_activation,
)


class TestQuantizeActivation:
    def test_codes_in_int8_range(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((4, 128)).astype(np.float32) * 5
        qa = quantize_activation(a, block_size=32)
        assert qa.codes.dtype == np.int8
        assert qa.codes.max() <= 127
        assert qa.codes.min() >= -127

    def test_round_trip_error_is_small(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((4, 128)).astype(np.float32)
        qa = quantize_activation(a, block_size=32)
        recon = dequantize_activation(qa)
        rel = np.abs(recon - a).max() / np.abs(a).max()
        assert rel < 0.01  # int8 dynamic quantization is ~0.4% worst case

    def test_block_maximum_is_exactly_represented(self):
        a = np.zeros((1, 32), dtype=np.float32)
        a[0, 5] = 3.0
        qa = quantize_activation(a, block_size=32)
        recon = dequantize_activation(qa)
        np.testing.assert_allclose(recon[0, 5], 3.0, rtol=1e-6)

    def test_scales_shape(self):
        a = np.ones((2, 96), dtype=np.float32)
        qa = quantize_activation(a, block_size=32)
        assert qa.scales.shape == (2, 3)
        assert qa.memory_bytes() == 2 * 96 + 2 * 3 * 2

    @pytest.mark.filterwarnings("error")
    def test_underflowing_scale_quantizes_to_zero(self):
        """A block whose absmax is nonzero but below 127 times the smallest
        float32 (its ``amax / 127`` underflows to 0) takes the unit scale
        of an all-zero block instead of dividing by 0."""
        a = np.zeros((2, 64), dtype=np.float32)
        a[0, 5] = 1e-44
        a[1, 40] = -5e-44
        qa = quantize_activation(a, block_size=32)
        np.testing.assert_array_equal(qa.scales, np.ones((2, 2)))
        np.testing.assert_array_equal(qa.codes, np.zeros((2, 64)))

    def test_block_size_must_divide_k(self):
        with pytest.raises(ValueError):
            quantize_activation(np.zeros((2, 100), dtype=np.float32),
                                block_size=32)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            quantize_activation(np.zeros(32, dtype=np.float32))
