"""Property-based tests for the quantization substrate."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core import native
from repro.core.config import TMACConfig
from repro.core.plan import weight_fingerprint
from repro.core.weights import pack_codes, preprocess_weights
from repro.quant.activation import dequantize_activation, quantize_activation
from repro.quant.bitnet import ternary_codes
from repro.quant.uniform import dequantize_weights, max_code, quantize_weights


def weight_matrices(max_m=8, k_choices=(16, 32, 64)):
    """Strategy for small well-conditioned weight matrices."""
    return st.integers(1, max_m).flatmap(
        lambda m: st.sampled_from(k_choices).flatmap(
            lambda k: hnp.arrays(
                dtype=np.float32,
                shape=(m, k),
                elements=st.floats(-8.0, 8.0, allow_nan=False, width=32),
            )
        )
    )


class TestUniformQuantProperties:
    @given(weights=weight_matrices(), bits=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_codes_always_in_range(self, weights, bits):
        qw = quantize_weights(weights, bits=bits, group_size=16)
        assert qw.codes.min() >= 0
        assert qw.codes.max() <= max_code(bits)

    @given(weights=weight_matrices(), bits=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_reconstruction_error_within_half_step(self, weights, bits):
        qw = quantize_weights(weights, bits=bits, group_size=16)
        recon = dequantize_weights(qw)
        step = np.repeat(qw.scales, qw.group_size, axis=1)
        assert np.all(np.abs(recon - weights) <= step * 0.5 + 1e-5)

    @given(weights=weight_matrices())
    @settings(max_examples=40, deadline=None)
    def test_quantization_is_idempotent(self, weights):
        """Quantizing an already-quantized (reconstructed) matrix is lossless."""
        qw = quantize_weights(weights, bits=4, group_size=16)
        recon = dequantize_weights(qw)
        qw2 = quantize_weights(recon, bits=4, group_size=16)
        recon2 = dequantize_weights(qw2)
        assert np.allclose(recon, recon2, atol=1e-4)


class TestActivationQuantProperties:
    @given(
        activation=hnp.arrays(
            dtype=np.float32, shape=(2, 64),
            elements=st.floats(-100.0, 100.0, allow_nan=False, width=32)),
        block=st.sampled_from([16, 32, 64]),
    )
    @settings(max_examples=60, deadline=None)
    def test_relative_error_bounded(self, activation, block):
        qa = quantize_activation(activation, block_size=block)
        recon = dequantize_activation(qa)
        scale = np.abs(activation).max() + 1e-6
        assert np.abs(recon - activation).max() <= scale / 127.0 + 1e-5


class TestBitnetProperties:
    @given(weights=weight_matrices())
    @settings(max_examples=50, deadline=None)
    def test_ternary_values_and_positive_scales(self, weights):
        ternary, scales = ternary_codes(weights)
        assert set(np.unique(ternary)).issubset({-1, 0, 1})
        assert np.all(scales > 0)


# Weights the float32 operations treat specially: signed zeros, subnormals
# (as weights and as the scale they make), and the largest finite value.
SPECIAL_WEIGHTS = (0.0, -0.0, 1e-45, -1e-45, 1e-40, -3e-39, 1.5, -2.5,
                   3.0e38, -3.4028235e38)


@st.composite
def offline_cases(draw):
    """``(weights, bits, group_size)`` for the native offline pass: any bit
    width, group sizes with and without a partial 8-wide tail, M off the
    32-row block, and groups that are all zero, special, or made of exact
    ``.5`` ties (every ``x / scale + zero`` an integer plus one half)."""
    bits = draw(st.integers(1, 8))
    group = draw(st.sampled_from([4, 8, 12, 16, 20, 32]))
    m = draw(st.integers(1, 70))
    groups = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    w = rng.standard_normal((m, groups, group)).astype(np.float32)
    w *= np.float32(draw(st.sampled_from([1.0, 1e-3, 1e-38, 1e30])))
    half = ((1 << bits) - 1) / 2.0
    for row in range(m):
        for q in range(groups):
            kind = draw(st.sampled_from(
                ["gaussian", "zero", "special", "ties"]))
            if kind == "zero":
                w[row, q] = rng.choice([0.0, -0.0], size=group)
            elif kind == "special":
                w[row, q] = rng.choice(SPECIAL_WEIGHTS, size=group)
            elif kind == "ties":
                # amax = half * 2**e makes the scale exactly 2**e.
                step = np.float32(2.0 ** int(rng.integers(-20, 20)))
                w[row, q] = rng.integers(-int(half), int(half) + 1,
                                         size=group) * step
                w[row, q, rng.integers(group)] = np.float32(half) * step
    return w.reshape(m, groups * group), bits, group


class TestNativeOfflineProperties:
    """The native ``tlut_quantize`` / ``tlut_pack`` against numpy: codes,
    scales, zeros, packed bytes and fingerprint, bit for bit."""

    @given(case=offline_cases())
    @settings(max_examples=40, deadline=None)
    # 1-bit groups near FLT_MAX overflow the scale to inf on both paths.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_native_offline_pass_is_bit_identical_to_numpy(self, case):
        if native.backend() is None:
            pytest.skip(f"native library unavailable: {native.status().reason}")
        w, bits, group = case
        config = TMACConfig(bits=bits)
        with native.force("numpy"):
            ref = quantize_weights(w, bits=bits, group_size=group)
            ref_packed = preprocess_weights(ref, config).packed
        got = quantize_weights(w, bits=bits, group_size=group)
        np.testing.assert_array_equal(got.codes, ref.codes)
        # Bit patterns, so a -0.0 against a 0.0 scale also fails.
        np.testing.assert_array_equal(got.scales.view(np.uint32),
                                      ref.scales.view(np.uint32))
        np.testing.assert_array_equal(got.zeros.view(np.uint32),
                                      ref.zeros.view(np.uint32))
        assert weight_fingerprint(got) == weight_fingerprint(ref)
        packed = native.backend().pack(got.codes, bits)
        np.testing.assert_array_equal(packed, pack_codes(ref.codes, bits, 4))
        np.testing.assert_array_equal(preprocess_weights(got, config).packed,
                                      ref_packed)
        assert not packed.flags.writeable
