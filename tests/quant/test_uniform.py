"""Unit tests for per-group uniform weight quantization."""

import numpy as np
import pytest

from repro.core import native
from repro.quant.bitnet import quantize_bitnet
from repro.quant.uniform import (
    QuantizedWeight,
    dequantize_weights,
    max_code,
    quantize_weights,
)


class TestMaxCode:
    def test_values(self):
        assert max_code(1) == 1
        assert max_code(2) == 3
        assert max_code(3) == 7
        assert max_code(4) == 15
        assert max_code(8) == 255

    def test_rejects_zero_bits(self):
        with pytest.raises(ValueError):
            max_code(0)


class TestQuantizeWeights:
    @pytest.mark.parametrize("bits", [1, 2, 3, 4, 8])
    def test_codes_within_range(self, bits):
        rng = np.random.default_rng(0)
        w = rng.standard_normal((16, 128)).astype(np.float32)
        qw = quantize_weights(w, bits=bits, group_size=32)
        assert qw.codes.dtype == np.uint8
        assert qw.codes.max() <= max_code(bits)
        assert qw.codes.min() >= 0

    @pytest.mark.parametrize("bits", [2, 3, 4])
    def test_reconstruction_error_bounded_by_scale(self, bits):
        rng = np.random.default_rng(1)
        w = rng.standard_normal((8, 64)).astype(np.float32)
        qw = quantize_weights(w, bits=bits, group_size=16)
        recon = dequantize_weights(qw)
        # Round-to-nearest error is at most half a quantization step.
        per_group_scale = np.repeat(qw.scales, qw.group_size, axis=1)
        assert np.all(np.abs(recon - w) <= per_group_scale * 0.5 + 1e-6)

    def test_higher_bits_reduce_error(self):
        rng = np.random.default_rng(2)
        w = rng.standard_normal((16, 256)).astype(np.float32)
        errors = []
        for bits in (1, 2, 3, 4):
            qw = quantize_weights(w, bits=bits, group_size=64)
            errors.append(float(np.mean((dequantize_weights(qw) - w) ** 2)))
        assert errors == sorted(errors, reverse=True)

    def test_shapes_of_scales_and_zeros(self):
        w = np.zeros((6, 96), dtype=np.float32)
        qw = quantize_weights(w, bits=4, group_size=32)
        assert qw.scales.shape == (6, 3)
        assert qw.zeros.shape == (6, 3)

    def test_zero_weights_do_not_divide_by_zero(self):
        w = np.zeros((4, 32), dtype=np.float32)
        qw = quantize_weights(w, bits=4, group_size=32)
        recon = dequantize_weights(qw)
        assert np.all(np.isfinite(recon))
        np.testing.assert_allclose(recon, 0.0, atol=1e-6)

    def test_asymmetric_covers_range(self):
        rng = np.random.default_rng(3)
        # Strictly positive weights: an asymmetric grid should fit much better
        # than a symmetric one at 2 bits.
        w = rng.uniform(1.0, 2.0, size=(8, 64)).astype(np.float32)
        sym = quantize_weights(w, bits=2, group_size=32, symmetric=True)
        asym = quantize_weights(w, bits=2, group_size=32, symmetric=False)
        err_sym = np.mean((dequantize_weights(sym) - w) ** 2)
        err_asym = np.mean((dequantize_weights(asym) - w) ** 2)
        assert err_asym < err_sym

    def test_group_size_must_divide_k(self):
        with pytest.raises(ValueError):
            quantize_weights(np.zeros((4, 100), dtype=np.float32), bits=4,
                             group_size=64)

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            quantize_weights(np.zeros(64, dtype=np.float32), bits=4)

    def test_rejects_bad_bits(self):
        with pytest.raises(ValueError):
            quantize_weights(np.zeros((4, 64), dtype=np.float32), bits=0)
        with pytest.raises(ValueError):
            quantize_weights(np.zeros((4, 64), dtype=np.float32), bits=9)


@pytest.fixture(params=["native", "numpy"])
def quantizer_path(request):
    """Run the test on the native quantizer and under the numpy fallback."""
    if request.param == "numpy":
        with native.force("numpy"):
            yield request.param
        return
    if native.backend() is None:
        pytest.skip(f"native library unavailable: {native.status().reason}")
    yield request.param


class TestNotFinite:
    """A NaN or inf weight raises, naming its [row, col], instead of
    silently turning its group's scale into 0, inf or NaN."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("symmetric,method", [
        (True, "absmax"), (False, "absmax"), (True, "mse")])
    def test_raises_naming_the_first_bad_weight(self, quantizer_path, bad,
                                                symmetric, method):
        w = np.ones((4, 32), dtype=np.float32)
        w[1, 3] = bad
        w[2, 20] = np.nan
        with pytest.raises(ValueError, match=r"weights\[1, 3\] = .* is not "
                                             r"finite"):
            quantize_weights(w, bits=4, group_size=16, symmetric=symmetric,
                             method=method)

    def test_bad_weight_in_a_partial_vector(self, quantizer_path):
        # Group size 12: the bad weight sits in the 4-wide tail.
        w = np.ones((3, 24), dtype=np.float32)
        w[2, 22] = np.inf
        with pytest.raises(ValueError, match=r"weights\[2, 22\]"):
            quantize_weights(w, bits=2, group_size=12)

    @pytest.mark.filterwarnings("ignore:overflow encountered in cast")
    def test_float64_overflowing_float32_is_not_finite(self, quantizer_path):
        w = np.ones((2, 8))
        w[0, 5] = 1e300
        with pytest.raises(ValueError, match=r"weights\[0, 5\] = inf"):
            quantize_weights(w, bits=4, group_size=8)

    def test_bitnet_raises(self):
        w = np.ones((4, 64), dtype=np.float32)
        w[3, 33] = np.nan
        with pytest.raises(ValueError, match=r"weights\[3, 33\]"):
            quantize_bitnet(w, group_size=32)


class TestQuantizedWeight:
    def test_properties(self, small_qweight):
        assert small_qweight.out_features == 48
        assert small_qweight.in_features == 256
        assert small_qweight.shape == (48, 256)
        assert small_qweight.num_groups == 4

    def test_memory_bytes_scales_with_bits(self):
        rng = np.random.default_rng(4)
        w = rng.standard_normal((32, 256)).astype(np.float32)
        sizes = [quantize_weights(w, bits=b, group_size=64).memory_bytes()
                 for b in (1, 2, 4)]
        # Packed code bytes double with the bit width (scales constant).
        assert sizes[0] < sizes[1] < sizes[2]
        code_only = [s - 2 * 32 * 4 for s in sizes]
        assert code_only[1] == 2 * code_only[0]
        assert code_only[2] == 4 * code_only[0]

    def test_validate_catches_out_of_range_codes(self, small_qweight):
        bad = QuantizedWeight(
            codes=np.full_like(small_qweight.codes, 200),
            scales=small_qweight.scales,
            zeros=small_qweight.zeros,
            bits=4,
            group_size=64,
        )
        with pytest.raises(ValueError):
            bad.validate()

    def test_validate_catches_shape_mismatch(self, small_qweight):
        bad = QuantizedWeight(
            codes=small_qweight.codes,
            scales=small_qweight.scales[:, :2],
            zeros=small_qweight.zeros,
            bits=4,
            group_size=64,
        )
        with pytest.raises(ValueError):
            bad.validate()
