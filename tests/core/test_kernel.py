"""Unit tests for the T-MAC kernel: correctness against references."""

import contextlib

import numpy as np
import pytest

from repro.baselines.reference import quantized_reference_gemm
from repro.core import native
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.quant.bitnet import quantize_bitnet
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights


class TestExactness:
    """Without table quantization the kernel is exact (up to fp rounding)."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_integer_code_gemm_is_exact(self, bits, rng):
        w = gaussian_weights(24, 96, seed=bits)
        a = gaussian_activation(2, 96, seed=bits + 10)
        qw = quantize_weights(w, bits=bits, group_size=32)
        config = TMACConfig(bits=bits, table_quantization=False,
                            act_dtype="float32")
        kernel = TMACKernel(qw, config)
        expected = a.astype(np.float64) @ qw.codes.astype(np.float64).T
        np.testing.assert_allclose(kernel.matmul_codes(a), expected,
                                   atol=1e-3, rtol=1e-6)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    def test_matches_dequantized_reference(self, bits):
        w = gaussian_weights(32, 128, seed=bits)
        a = gaussian_activation(3, 128, seed=bits + 20)
        qw = quantize_weights(w, bits=bits, group_size=64)
        config = TMACConfig(bits=bits, table_quantization=False,
                            act_dtype="float32")
        out = TMACKernel(qw, config).matmul(a)
        ref = quantized_reference_gemm(a, qw)
        np.testing.assert_allclose(out, ref, atol=1e-3, rtol=1e-4)

    def test_mirror_consolidation_does_not_change_results(self):
        w = gaussian_weights(16, 64, seed=1)
        a = gaussian_activation(2, 64, seed=2)
        qw = quantize_weights(w, bits=3, group_size=32)
        base = TMACConfig(bits=3, table_quantization=False,
                          act_dtype="float32")
        with_mirror = TMACKernel(qw, base).matmul(a)
        without_mirror = TMACKernel(
            qw, base.with_options(mirror_consolidation=False)).matmul(a)
        np.testing.assert_allclose(with_mirror, without_mirror, atol=1e-4)

    def test_layout_options_do_not_change_results(self):
        """Permutation / interleaving / tiling are pure layout changes."""
        w = gaussian_weights(32, 128, seed=3)
        a = gaussian_activation(1, 128, seed=4)
        qw = quantize_weights(w, bits=4, group_size=32)
        reference = TMACKernel(qw, TMACConfig(bits=4)).matmul(a)
        for permute in (False, True):
            for interleave in (False, True):
                for tiling in (False, True):
                    config = TMACConfig(bits=4, permute_weights=permute,
                                        interleave_weights=interleave,
                                        tiling=tiling)
                    out = TMACKernel(qw, config).matmul(a)
                    np.testing.assert_allclose(out, reference, atol=1e-5)


class TestTableQuantizationError:
    def test_small_relative_error(self, small_qweight, small_activation):
        config = TMACConfig(bits=4, table_quantization=True)
        out = TMACKernel(small_qweight, config).matmul(small_activation)
        ref = quantized_reference_gemm(small_activation, small_qweight)
        nmse = np.mean((out - ref) ** 2) / np.mean(ref ** 2)
        assert nmse < 1e-3

    def test_fine_granularity_no_worse_than_group(self, small_qweight,
                                                  small_activation):
        ref = quantized_reference_gemm(small_activation, small_qweight)
        fine = TMACKernel(
            small_qweight,
            TMACConfig(bits=4, lut_scale_granularity="fine")).matmul(
                small_activation)
        group = TMACKernel(
            small_qweight,
            TMACConfig(bits=4, lut_scale_granularity="group")).matmul(
                small_activation)
        nmse_fine = np.mean((fine - ref) ** 2) / np.mean(ref ** 2)
        nmse_group = np.mean((group - ref) ** 2) / np.mean(ref ** 2)
        assert nmse_fine <= nmse_group * 1.5


class TestFastAggregation:
    def test_fast_aggregation_increases_error(self, small_qweight,
                                              small_activation):
        """Error source (b) of Section 5.6: +FA is measurably lossier."""
        ref = quantized_reference_gemm(small_activation, small_qweight)
        exact = TMACKernel(small_qweight, TMACConfig(bits=4)).matmul(
            small_activation)
        fast = TMACKernel(
            small_qweight, TMACConfig(bits=4, fast_aggregation=True)).matmul(
                small_activation)
        nmse_exact = np.mean((exact - ref) ** 2) / np.mean(ref ** 2)
        nmse_fast = np.mean((fast - ref) ** 2) / np.mean(ref ** 2)
        assert nmse_fast > nmse_exact
        # ... but stays usable (same order of magnitude as the paper's 2.5x
        # inflation over the quantization error).
        assert nmse_fast < 0.05

    def test_fast_aggregation_requires_table_quantization(self):
        with pytest.raises(ValueError):
            TMACConfig(bits=4, fast_aggregation=True, table_quantization=False)


class TestBitnetWeights:
    def test_ternary_weights_run_as_2bit(self):
        """BitNet ternary weights are interpreted as 2-bit (paper Sec. 5.1)."""
        w = gaussian_weights(24, 64, seed=9)
        qw = quantize_bitnet(w, group_size=32)
        a = gaussian_activation(2, 64, seed=10)
        out = TMACKernel(qw, TMACConfig(bits=2, table_quantization=False,
                                        act_dtype="float32")).matmul(a)
        ref = quantized_reference_gemm(a, qw)
        np.testing.assert_allclose(out, ref, atol=1e-3, rtol=1e-4)


class TestInterface:
    def test_1d_activation_returns_1d(self, small_qweight):
        a = gaussian_activation(1, 256, seed=5)[0]
        out = TMACKernel(small_qweight, TMACConfig(bits=4)).matmul(a)
        assert out.shape == (48,)

    def test_callable(self, small_qweight, small_activation):
        kernel = TMACKernel(small_qweight, TMACConfig(bits=4))
        np.testing.assert_allclose(kernel(small_activation),
                                   kernel.matmul(small_activation))

    def test_shape_properties(self, small_qweight):
        kernel = TMACKernel(small_qweight, TMACConfig(bits=4))
        assert kernel.out_features == 48
        assert kernel.in_features == 256
        assert kernel.bits == 4

    @pytest.mark.parametrize("path", ["host", "numpy", "loop", "parallel"])
    def test_zero_row_activation_gives_an_empty_result(self, small_qweight,
                                                       path):
        """A ``[0, K]`` activation is a valid (empty) batch on every path."""
        options = {"loop": {"executor": "loop"},
                   "parallel": {"executor": "parallel", "num_threads": 2,
                                "parallel_threshold": 0}}.get(path, {})
        kernel = TMACKernel(small_qweight, TMACConfig(bits=4, **options))
        empty = np.zeros((0, 256), dtype=np.float32)
        forced = native.force("numpy") if path == "numpy" \
            else contextlib.nullcontext()
        with forced:
            outs = [kernel.matmul(empty),
                    kernel.matmul_with_table(empty, kernel.precompute(empty))]
        for out in outs:
            assert out.shape == (0, 48)
            assert out.dtype == np.float32

    def test_wrong_activation_width_rejected(self, small_qweight):
        kernel = TMACKernel(small_qweight, TMACConfig(bits=4))
        with pytest.raises(ValueError):
            kernel.matmul(np.zeros((1, 100), dtype=np.float32))

    def test_bits_mismatch_rejected(self, small_qweight):
        with pytest.raises(ValueError):
            TMACKernel(small_qweight, TMACConfig(bits=2))

    def test_default_config_from_weights(self, small_qweight):
        kernel = TMACKernel(small_qweight)
        assert kernel.config.bits == 4

    def test_precompute_table_shape(self, small_qweight, small_activation):
        kernel = TMACKernel(small_qweight, TMACConfig(bits=4))
        table = kernel.precompute(small_activation)
        assert table.num_rows == 3
        assert table.num_groups == 256 // 4
