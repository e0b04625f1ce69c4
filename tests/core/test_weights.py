"""Unit tests for the offline weight-preprocessing pipeline."""

import numpy as np
import pytest

from repro.core.config import TMACConfig
from repro.core.weights import (
    group_bits,
    nibble_blocks,
    pack_indices,
    preprocess_weights,
    ungroup_bits,
    unpack_indices,
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


def unpack_blocks(nibbles: np.ndarray, m: int) -> np.ndarray:
    """Inverse of :func:`nibble_blocks`: ``[bits, M, K/g]`` indices."""
    bits, groups, _ = nibbles.shape
    body = nibbles.reshape(bits, groups, -1, 16)
    rows = np.concatenate([body & 0x0F, body >> 4], axis=3)
    return rows.reshape(bits, groups, -1)[:, :, :m].transpose(0, 2, 1)


class TestNibbleBlocks:
    def test_round_trip(self, rng):
        planes = [rng.integers(0, 16, size=(70, 9)).astype(np.uint8)
                  for _ in range(3)]
        nibbles = nibble_blocks(planes)
        assert nibbles.shape == (3, 9, 3 * 16)  # ceil(70 / 32) blocks
        assert not nibbles.flags.writeable
        np.testing.assert_array_equal(unpack_blocks(nibbles, 70),
                                      np.stack(planes))

    def test_is_a_permutation_of_indices(self, rng):
        plane = rng.integers(0, 16, size=(64, 1)).astype(np.uint8)
        nibbles = nibble_blocks([plane])[0, 0]
        assert sorted(list(nibbles & 0x0F) + list(nibbles >> 4)) == sorted(
            plane[:, 0])

    def test_low_nibbles_come_from_first_half(self):
        """AND 0x0F yields rows 0-15 of a 32-row block in order and
        SHR 4 rows 16-31 (the Figure 4 fast-unpack property)."""
        indices = np.arange(32, dtype=np.uint8)
        indices[16:] = 15 - indices[:16]
        nibbles = nibble_blocks([indices[:, None]])[0, 0]
        np.testing.assert_array_equal(nibbles & 0x0F, indices[:16])
        np.testing.assert_array_equal(nibbles >> 4, indices[16:])

    def test_partial_block_padded_with_zero(self, rng):
        plane = rng.integers(1, 16, size=(20, 2)).astype(np.uint8)
        nibbles = nibble_blocks([plane])
        assert nibbles.shape == (1, 2, 16)
        assert not (nibbles[0, :, 4:] >> 4).any()  # rows 20-31
        np.testing.assert_array_equal(unpack_blocks(nibbles, 20)[0], plane)


class TestPreprocessWeights:
    def test_produces_one_plane_per_bit(self, small_qweight):
        config = TMACConfig(bits=4)
        pre = preprocess_weights(small_qweight, config)
        assert len(pre.index_planes) == 4
        assert pre.packed_bytes() == 4 * 48 * (256 // 4) // 2
        assert pre.shape == (48, 256)

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
