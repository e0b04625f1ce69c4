"""Unit tests for the offline weight-preprocessing pipeline."""

import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backends import get_backend
from repro.core.bitserial import decompose_bits
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.core.plan import clear_plan_cache
from repro.core.weights import (
    PreprocessedWeights,
    group_bits,
    nibble_blocks,
    pack_codes,
    pack_indices,
    preprocess_weights,
    ungroup_bits,
    unpack_indices,
)
from repro.llm import TransformerModel, tiny_arch
from repro.llm.model import generate_random_weights
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


class TestPackCodes:
    @given(m=st.integers(1, 100), bits=st.integers(1, 4),
           g=st.sampled_from([1, 2, 3, 4, 6]), groups=st.integers(1, 6),
           data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_decompose_group_nibble_blocks(self, m, bits, g, groups,
                                                   data):
        """The from-codes packer equals the step-by-step pipeline, and
        every derived (bit, j0:j1) slice equals the reference plane's."""
        seed = data.draw(st.integers(0, 2**32 - 1))
        codes = np.random.default_rng(seed).integers(
            0, 1 << bits, (m, groups * g)).astype(np.uint8)
        planes = [group_bits(p, g) for p in decompose_bits(codes, bits)]
        packed = pack_codes(codes, bits, g)
        np.testing.assert_array_equal(packed, nibble_blocks(planes, g))
        assert not packed.flags.writeable

        pre = PreprocessedWeights(packed=packed, scales_t=None, sz_t=None,
                                  bits=bits, g=g, group_size=g,
                                  shape=codes.shape)
        bit = data.draw(st.integers(0, bits - 1))
        j0 = data.draw(st.integers(0, groups - 1))
        j1 = data.draw(st.integers(j0 + 1, groups))
        np.testing.assert_array_equal(pre.indices(bit, j0, j1),
                                      planes[bit][:, j0:j1])
        np.testing.assert_array_equal(pre.indices(bit), planes[bit])

    @pytest.mark.parametrize("bits,g", [(8, 4), (5, 2), (8, 8)])
    def test_codes_wider_than_a_nibble(self, bits, g, rng):
        codes = rng.integers(0, 1 << bits, (45, 8 * g)).astype(np.uint8)
        planes = [group_bits(p, g) for p in decompose_bits(codes, bits)]
        np.testing.assert_array_equal(pack_codes(codes, bits, g),
                                      nibble_blocks(planes, g))


class TestPreprocessWeights:
    def test_produces_one_plane_per_bit(self, small_qweight):
        config = TMACConfig(bits=4)
        pre = preprocess_weights(small_qweight, config)
        # 48 rows pad to two 32-row blocks of 16 bytes per index column.
        assert pre.packed.shape == (4, 256 // 4, 2 * 16)
        assert pre.packed_bytes() == pre.packed.nbytes == 4 * 64 * 64 // 2
        assert pre.shape == (48, 256)

    def test_index_planes_recombine_to_codes(self, small_qweight):
        config = TMACConfig(bits=4)
        pre = preprocess_weights(small_qweight, config)
        codes = np.zeros_like(small_qweight.codes, dtype=np.uint32)
        for i in range(pre.bits):
            bits = ungroup_bits(pre.indices(i), config.g)
            codes |= bits.astype(np.uint32) << i
        np.testing.assert_array_equal(codes, small_qweight.codes)

    def test_scales_stored_once_in_epilogue_form(self, small_qweight):
        pre = preprocess_weights(small_qweight, TMACConfig(bits=4))
        np.testing.assert_array_equal(pre.scales_t, small_qweight.scales.T)
        np.testing.assert_array_equal(
            pre.sz_t, (small_qweight.scales * small_qweight.zeros).T)
        assert pre.scales_t.dtype == pre.sz_t.dtype == np.float32
        assert pre.scales_t.flags.c_contiguous and pre.sz_t.flags.c_contiguous

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


def _plan_arrays(plan):
    """Every ndarray reachable from a plan's attributes, its weights, its
    gather cache and its compiled kernel, with the path it was found at."""
    found = []

    def walk(obj, path, depth):
        if isinstance(obj, np.ndarray):
            found.append((path, obj))
        elif depth and isinstance(obj, (list, tuple)):
            for i, item in enumerate(obj):
                walk(item, f"{path}[{i}]", depth - 1)
        elif depth and isinstance(obj, dict):
            for key, item in obj.items():
                walk(item, f"{path}[{key!r}]", depth - 1)
        elif depth and hasattr(obj, "__dict__"):
            for key, item in vars(obj).items():
                walk(item, f"{path}.{key}", depth - 1)

    walk(plan, "plan", 4)
    return found


class TestResidentBytes:
    def test_bench_medium_shape_holds_one_packed_layout(self):
        """A model of bench-medium's shape, every operator run once on the
        default executor and once on the loop oracle, keeps at most 1.5x
        its quantized weight bytes resident, and no plan holds an
        ``[M, K/g]`` index array afterwards."""
        arch = tiny_arch(512, 1376, num_layers=4, num_heads=8,
                         vocab_size=1024)
        weights = generate_random_weights(arch, seed=3)
        clear_plan_cache()
        gc.collect()
        tracemalloc.start()
        try:
            model = TransformerModel(
                arch, engine=get_backend("tmac", bits=4, group_size=64),
                weights=weights)
            rng = np.random.default_rng(0)
            for op in model.linears():
                x = rng.standard_normal((1, op.in_features)).astype(
                    np.float32)
                oracle = TMACKernel.from_plan(
                    op.kernel.plan,
                    op.kernel.config.with_options(executor="loop"))
                np.testing.assert_array_equal(op(x), oracle.matmul(x))
            gc.collect()
            resident, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        quantized = model.quantized_weight_bytes()
        assert resident <= 1.5 * quantized, (resident, quantized)

        for op in model.linears():
            plan = op.kernel.plan
            planes = (plan.out_features, plan.num_groups)
            for path, arr in _plan_arrays(plan):
                assert arr.shape[-2:] != planes, path
        clear_plan_cache()
