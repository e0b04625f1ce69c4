"""Unit tests for lookup-table precomputation, mirror consolidation and
table quantization."""

import numpy as np
import pytest

from repro.core.bitserial import BitSerialTransform
from repro.core.lut import (
    build_lut,
    lookup,
    lut_storage_bytes,
    precompute_lut,
)


def brute_force_entry(activation_group, pattern, s0=-1.0, s1=1.0):
    """Directly compute one table entry from its definition."""
    total = 0.0
    for t, value in enumerate(activation_group):
        sign = s1 if (pattern >> t) & 1 else s0
        total += sign * value
    return total


class TestBuildLut:
    def test_entries_match_brute_force(self, rng):
        a = rng.standard_normal((2, 8)).astype(np.float32)
        lut = build_lut(a, g=4)
        assert lut.shape == (2, 2, 16)
        for n in range(2):
            for j in range(2):
                group = a[n, j * 4:(j + 1) * 4]
                for p in range(16):
                    assert lut[n, j, p] == pytest.approx(
                        brute_force_entry(group, p), abs=1e-5)

    def test_pattern_zero_is_negated_sum(self, rng):
        a = rng.standard_normal((1, 4)).astype(np.float32)
        lut = build_lut(a, g=4)
        assert lut[0, 0, 0] == pytest.approx(-a.sum(), abs=1e-5)
        assert lut[0, 0, 15] == pytest.approx(a.sum(), abs=1e-5)

    def test_example_from_paper(self):
        """Section 3.1 example: alternating-sign patterns.

        In this implementation bit ``t`` of the pattern gives the sign of
        ``A[t]``, so the paper's "0101" pattern (-A1+A2-A3+A4) corresponds to
        the index ``0b1010`` and its mirror to ``0b0101``.
        """
        a = np.array([[1.0, 2.0, 3.0, 4.0]], dtype=np.float32)
        lut = build_lut(a, g=4)
        assert lut[0, 0, 0b1010] == pytest.approx(-1 + 2 - 3 + 4)
        assert lut[0, 0, 0b0101] == pytest.approx(1 - 2 + 3 - 4)

    def test_g_must_divide_k(self):
        with pytest.raises(ValueError):
            build_lut(np.zeros((1, 10), dtype=np.float32), g=4)

    @pytest.mark.parametrize("g", [2, 3, 4, 5])
    def test_generic_group_sizes(self, g, rng):
        a = rng.standard_normal((1, g * 3)).astype(np.float32)
        lut = build_lut(a, g=g)
        assert lut.shape == (1, 3, 1 << g)


    @pytest.mark.parametrize("g", [1, 2, 4, 8])
    def test_cached_sign_matmul_equals_einsum_expression(self, g, rng):
        """``build_lut`` multiplies by a cached sign matrix; the result is
        ``np.array_equal`` to the per-call einsum it replaced."""
        patterns = np.arange(1 << g, dtype=np.uint32)
        bits = ((patterns[:, None] >> np.arange(g, dtype=np.uint32)) & 1
                ).astype(np.float32)
        for s1 in (1.0, 1.5):
            transform = BitSerialTransform(s0=-s1, s1=s1)
            signs = transform.s0 + (transform.s1 - transform.s0) * bits
            for n in (1, 2, 3, 8, 33, 64, 100):
                for k in (64, 256, 512, 1376):
                    a = rng.standard_normal((n, k)).astype(np.float32)
                    old = np.einsum("njt,pt->njp", a.reshape(n, k // g, g),
                                    signs, optimize=True)
                    # np.array_equal: the tables run to millions of
                    # entries and assert_array_equal is several passes.
                    assert np.array_equal(
                        build_lut(a, g=g, transform=transform,
                                  dtype="float32"), old), (s1, n, k)
                    assert np.array_equal(
                        build_lut(a, g=g, transform=transform,
                                  dtype="float16"),
                        old.astype(np.float16).astype(np.float32)), (s1, n, k)


class TestMirrorConsolidation:
    def test_half_table_stored(self, rng):
        a = rng.standard_normal((2, 16)).astype(np.float32)
        table = precompute_lut(a, g=4, mirror_consolidation=True,
                               table_quantization=False)
        assert table.stored_length == 8
        assert table.full_length == 16

    def test_lookup_reconstructs_mirrored_entries(self, rng):
        a = rng.standard_normal((2, 16)).astype(np.float32)
        full = precompute_lut(a, g=4, mirror_consolidation=False,
                              table_quantization=False, act_dtype="float32")
        half = precompute_lut(a, g=4, mirror_consolidation=True,
                              table_quantization=False, act_dtype="float32")
        indices = np.arange(16, dtype=np.uint8)[None, :].repeat(4, axis=0)
        indices = indices[:, :4]  # [M=4, J=4]
        full_vals = lookup(full, indices)
        half_vals = lookup(half, indices)
        np.testing.assert_allclose(half_vals, full_vals, atol=1e-6)

    def test_requires_symmetric_transform(self, rng):
        a = rng.standard_normal((1, 8)).astype(np.float32)
        with pytest.raises(ValueError):
            precompute_lut(a, g=4, transform=BitSerialTransform(0.0, 1.0),
                           mirror_consolidation=True)


class TestTableQuantization:
    def test_quantized_values_are_int8(self, rng):
        a = rng.standard_normal((2, 32)).astype(np.float32)
        table = precompute_lut(a, g=4, table_quantization=True, scale_block=2)
        assert table.values.dtype == np.int8
        assert table.scales is not None
        assert table.scales.shape == (2, 4)

    def test_quantization_error_is_small(self, rng):
        a = rng.standard_normal((1, 32)).astype(np.float32)
        exact = precompute_lut(a, g=4, mirror_consolidation=True,
                               table_quantization=False, act_dtype="float32")
        quant = precompute_lut(a, g=4, mirror_consolidation=True,
                               table_quantization=True, scale_block=1)
        indices = np.arange(8, dtype=np.uint8)[None, :]
        exact_vals = lookup(exact, indices)
        quant_vals = lookup(quant, indices) * quant.scales[:, None, :]
        rel = np.abs(exact_vals - quant_vals).max() / np.abs(exact_vals).max()
        assert rel < 0.02

    def test_scale_block_must_divide_groups(self, rng):
        a = rng.standard_normal((1, 12)).astype(np.float32)
        with pytest.raises(ValueError):
            precompute_lut(a, g=4, table_quantization=True, scale_block=2)


class TestStorage:
    def test_storage_reduction_is_4x(self):
        """Mirror consolidation + table quantization shrink tables to 1/4."""
        baseline = lut_storage_bytes(1, 4096, 4, False, False, "float16")
        reduced = lut_storage_bytes(1, 4096, 4, True, True, "float16")
        assert baseline == 4 * reduced

    def test_lut_is_4x_activation_without_reduction(self):
        """For g=4 the raw fp16 LUT is 4x larger than the fp16 activation."""
        k = 1024
        activation_bytes = k * 2
        assert lut_storage_bytes(1, k, 4, False, False) == 4 * activation_bytes

    def test_storage_bytes_method(self, rng):
        a = rng.standard_normal((2, 32)).astype(np.float32)
        table = precompute_lut(a, g=4, mirror_consolidation=True,
                               table_quantization=True, scale_block=1)
        # 2 rows * 8 groups * 8 int8 entries + fp16 scales (2 * 8)
        assert table.storage_bytes() == 2 * 8 * 8 + 2 * 8 * 2


class TestLookup:
    def test_gather_matches_direct_indexing(self, rng):
        a = rng.standard_normal((3, 24)).astype(np.float32)
        table = precompute_lut(a, g=4, mirror_consolidation=False,
                               table_quantization=False, act_dtype="float32")
        indices = rng.integers(0, 16, size=(5, 6)).astype(np.uint8)
        out = lookup(table, indices)
        assert out.shape == (3, 5, 6)
        for n in range(3):
            for m in range(5):
                for j in range(6):
                    assert out[n, m, j] == pytest.approx(
                        table.values[n, j, indices[m, j]], abs=1e-6)

    def test_group_slice(self, rng):
        a = rng.standard_normal((1, 32)).astype(np.float32)
        table = precompute_lut(a, g=4, mirror_consolidation=False,
                               table_quantization=False, act_dtype="float32")
        indices = rng.integers(0, 16, size=(4, 3)).astype(np.uint8)
        out = lookup(table, indices, group_slice=slice(2, 5))
        np.testing.assert_allclose(
            out[0, 0, 0], table.values[0, 2, indices[0, 0]], atol=1e-6)

    def test_wrong_index_width_raises(self, rng):
        a = rng.standard_normal((1, 32)).astype(np.float32)
        table = precompute_lut(a, g=4)
        with pytest.raises(ValueError):
            lookup(table, np.zeros((4, 5), dtype=np.uint8),
                   group_slice=slice(0, 3))
