"""Unit tests for the offline weight-preprocessing pipeline."""

import numpy as np
import pytest

from repro.core.config import TMACConfig
from repro.core.weights import (
    deinterleave_packed,
    group_bits,
    interleave_packed,
    pack_indices,
    permute_tiles,
    preprocess_weights,
    ungroup_bits,
    unpack_indices,
    unpermute_tiles,
)
from repro.quant.uniform import quantize_weights


class TestGrouping:
    def test_group_bits_round_trip(self, rng):
        plane = rng.integers(0, 2, size=(8, 32)).astype(np.uint8)
        indices = group_bits(plane, g=4)
        assert indices.shape == (8, 8)
        assert indices.max() < 16
        np.testing.assert_array_equal(ungroup_bits(indices, 4), plane)

    def test_bit_order_within_group(self):
        # Bit t of the index corresponds to position t inside the group.
        plane = np.array([[1, 0, 0, 0, 0, 0, 0, 1]], dtype=np.uint8)
        indices = group_bits(plane, g=4)
        assert indices[0, 0] == 0b0001
        assert indices[0, 1] == 0b1000

    def test_requires_divisible_k(self):
        with pytest.raises(ValueError):
            group_bits(np.zeros((2, 10), dtype=np.uint8), g=4)

    @pytest.mark.parametrize("g", [2, 3, 4, 6])
    def test_other_group_sizes(self, g, rng):
        plane = rng.integers(0, 2, size=(4, g * 5)).astype(np.uint8)
        np.testing.assert_array_equal(ungroup_bits(group_bits(plane, g), g),
                                      plane)


    @pytest.mark.parametrize("g", [1, 2, 4, 8])
    def test_matches_widened_multiply_sum(self, g, rng):
        """The shift-or of strided slices equals the expression it
        replaced (widen to uint32, multiply by shifts, sum), dtype too."""
        plane = rng.integers(0, 2, size=(24, g * 16)).astype(np.uint8)
        grouped = plane.reshape(24, 16, g).astype(np.uint32)
        expected = (grouped * (1 << np.arange(g, dtype=np.uint32))).sum(
            axis=2).astype(np.uint8)
        indices = group_bits(plane, g)
        assert indices.dtype == expected.dtype
        np.testing.assert_array_equal(indices, expected)


class TestPacking:
    def test_pack_unpack_round_trip(self, rng):
        indices = rng.integers(0, 16, size=(4, 17)).astype(np.uint8)
        packed = pack_indices(indices, g=4)
        assert packed.shape == (4, 9)  # odd count padded
        unpacked = unpack_indices(packed, num_indices=17, g=4)
        np.testing.assert_array_equal(unpacked, indices)

    def test_two_indices_per_byte(self):
        indices = np.array([[0x3, 0xA]], dtype=np.uint8)
        packed = pack_indices(indices, g=4)
        assert packed.shape == (1, 1)
        assert packed[0, 0] == 0x3 | (0xA << 4)

    def test_wide_indices_not_packed(self, rng):
        indices = rng.integers(0, 64, size=(2, 8)).astype(np.uint8)
        packed = pack_indices(indices, g=6)
        np.testing.assert_array_equal(packed, indices)
        np.testing.assert_array_equal(unpack_indices(packed, 8, g=6), indices)


class TestInterleaving:
    def test_round_trip(self, rng):
        packed = rng.integers(0, 256, size=(3, 64)).astype(np.uint8)
        interleaved = interleave_packed(packed)
        restored = deinterleave_packed(interleaved)
        np.testing.assert_array_equal(restored, packed)

    def test_is_a_permutation_of_nibbles(self, rng):
        packed = rng.integers(0, 256, size=(1, 32)).astype(np.uint8)
        interleaved = interleave_packed(packed)
        original_nibbles = sorted(
            list(packed[0] & 0x0F) + list(packed[0] >> 4))
        new_nibbles = sorted(
            list(interleaved[0] & 0x0F) + list(interleaved[0] >> 4))
        assert original_nibbles == new_nibbles

    def test_low_nibbles_come_from_first_half(self, rng):
        """After interleaving, AND 0x0F yields the first block's indices in
        order (the Figure 4 fast-unpack property)."""
        indices = np.arange(64, dtype=np.uint8) % 16
        packed = pack_indices(indices[None, :], g=4)  # 32 bytes = 1 block
        interleaved = interleave_packed(packed, span=16)
        low = interleaved[0, :16] & 0x0F
        np.testing.assert_array_equal(low, indices[:16])
        high = interleaved[0, :16] >> 4
        np.testing.assert_array_equal(high, indices[16:32])

    def test_short_rows_unchanged(self, rng):
        packed = rng.integers(0, 256, size=(2, 8)).astype(np.uint8)
        np.testing.assert_array_equal(interleave_packed(packed), packed)


class TestPermutation:
    def test_round_trip(self, rng):
        mat = rng.integers(0, 256, size=(12, 20)).astype(np.uint8)
        flat = permute_tiles(mat, tile_m=4, tile_k=8)
        assert flat.shape == (12 * 20,)
        np.testing.assert_array_equal(
            unpermute_tiles(flat, (12, 20), 4, 8), mat)

    def test_tiles_are_contiguous(self):
        mat = np.arange(16).reshape(4, 4)
        flat = permute_tiles(mat, tile_m=2, tile_k=2)
        np.testing.assert_array_equal(flat[:4], [0, 1, 4, 5])
        np.testing.assert_array_equal(flat[4:8], [2, 3, 6, 7])

    def test_ragged_edges(self, rng):
        mat = rng.integers(0, 100, size=(5, 7))
        flat = permute_tiles(mat, tile_m=2, tile_k=3)
        np.testing.assert_array_equal(unpermute_tiles(flat, (5, 7), 2, 3), mat)


class TestPreprocessWeights:
    def test_produces_one_plane_per_bit(self, small_qweight):
        config = TMACConfig(bits=4)
        pre = preprocess_weights(small_qweight, config)
        assert len(pre.index_planes) == 4
        assert len(pre.packed_planes) == 4
        assert pre.shape == (48, 256)
        assert pre.permuted and pre.interleaved

    def test_index_planes_recombine_to_codes(self, small_qweight):
        config = TMACConfig(bits=4)
        pre = preprocess_weights(small_qweight, config)
        codes = np.zeros_like(small_qweight.codes, dtype=np.uint32)
        for i, plane in enumerate(pre.index_planes):
            bits = ungroup_bits(plane, config.g)
            codes |= bits.astype(np.uint32) << i
        np.testing.assert_array_equal(codes, small_qweight.codes)

    def test_packed_bytes_scale_with_bits(self, small_weights):
        sizes = {}
        for bits in (1, 2, 4):
            qw = quantize_weights(small_weights, bits=bits, group_size=64)
            pre = preprocess_weights(qw, TMACConfig(bits=bits))
            sizes[bits] = pre.packed_bytes()
        assert sizes[2] == 2 * sizes[1]
        assert sizes[4] == 4 * sizes[1]

    def test_bits_mismatch_rejected(self, small_qweight):
        with pytest.raises(ValueError):
            preprocess_weights(small_qweight, TMACConfig(bits=2))

    def test_quant_group_must_be_multiple_of_g(self, small_weights):
        qw = quantize_weights(small_weights, bits=4, group_size=64)
        with pytest.raises(ValueError):
            preprocess_weights(qw, TMACConfig(bits=4, g=7))

    def test_layout_flags_follow_config(self, small_qweight):
        config = TMACConfig(bits=4, permute_weights=False,
                            interleave_weights=False)
        pre = preprocess_weights(small_qweight, config)
        assert not pre.permuted and not pre.interleaved
