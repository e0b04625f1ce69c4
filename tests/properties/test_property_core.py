"""Property-based tests for the T-MAC core invariants."""

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.aggregation import fast_aggregate, rhadd
from repro.core.bitserial import compose_bits, decompose_bits
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.core.lut import build_lut, lookup, precompute_lut
from repro.core import native
from repro.core.plan import build_plan
from repro.core.specialize import IntegerLutKernel
from repro.core.weights import (
    group_bits,
    nibble_blocks,
    pack_indices,
    ungroup_bits,
    unpack_indices,
)
from repro.quant.uniform import QuantizedWeight, quantize_weights


class TestBitserialProperties:
    @given(
        codes=hnp.arrays(dtype=np.uint8, shape=(4, 16),
                         elements=st.integers(0, 15)),
    )
    @settings(max_examples=80, deadline=None)
    def test_decompose_compose_round_trip(self, codes):
        np.testing.assert_array_equal(
            compose_bits(decompose_bits(codes, 4)), codes)


class TestLayoutProperties:
    @given(
        plane=hnp.arrays(dtype=np.uint8, shape=(6, 24),
                         elements=st.integers(0, 1)),
    )
    @settings(max_examples=60, deadline=None)
    def test_group_ungroup_round_trip(self, plane):
        np.testing.assert_array_equal(ungroup_bits(group_bits(plane, 4), 4),
                                      plane)

    @given(
        indices=hnp.arrays(dtype=np.uint8, shape=(3, 40),
                           elements=st.integers(0, 15)),
    )
    @settings(max_examples=60, deadline=None)
    def test_pack_unpack_round_trip(self, indices):
        packed = pack_indices(indices, g=4)
        np.testing.assert_array_equal(
            unpack_indices(packed, indices.shape[1], g=4), indices)

    @given(
        planes=hnp.arrays(dtype=np.uint8,
                          shape=st.tuples(st.integers(1, 4),
                                          st.integers(1, 70),
                                          st.integers(1, 6)),
                          elements=st.integers(0, 15)),
    )
    @settings(max_examples=60, deadline=None)
    def test_nibble_blocks_round_trip(self, planes):
        """Byte i of a 32-row block holds rows i and 16 + i; the padding
        rows of the last block are zero."""
        bits, m, groups = planes.shape
        nibbles = nibble_blocks(list(planes))
        assert nibbles.shape == (bits, groups, -(-m // 32) * 16)
        body = nibbles.reshape(bits, groups, -1, 16)
        rows = np.concatenate([body & 15, body >> 4], axis=3).reshape(
            bits, groups, -1)
        np.testing.assert_array_equal(rows[:, :, :m],
                                      planes.transpose(0, 2, 1))
        assert not rows[:, :, m:].any()


class TestLutProperties:
    @given(
        activation=hnp.arrays(
            dtype=np.float32, shape=(1, 16),
            elements=st.floats(-4.0, 4.0, allow_nan=False, width=32)),
    )
    @settings(max_examples=60, deadline=None)
    def test_mirror_symmetry(self, activation):
        """Entry(p) == -Entry(~p) for the +-1 transform."""
        lut = build_lut(activation, g=4)
        for p in range(16):
            np.testing.assert_allclose(lut[0, :, p], -lut[0, :, 15 - p],
                                       atol=1e-4)

    @given(
        activation=hnp.arrays(
            dtype=np.float32, shape=(1, 16),
            elements=st.floats(-4.0, 4.0, allow_nan=False, width=32)),
        indices=hnp.arrays(dtype=np.uint8, shape=(5, 4),
                           elements=st.integers(0, 15)),
    )
    @settings(max_examples=60, deadline=None)
    def test_consolidated_lookup_equals_full_lookup(self, activation, indices):
        full = precompute_lut(activation, g=4, mirror_consolidation=False,
                              table_quantization=False, act_dtype="float32")
        half = precompute_lut(activation, g=4, mirror_consolidation=True,
                              table_quantization=False, act_dtype="float32")
        np.testing.assert_allclose(lookup(half, indices),
                                   lookup(full, indices), atol=1e-5)


class TestAggregationProperties:
    @given(
        values=hnp.arrays(dtype=np.int64, shape=(20, 8),
                          elements=st.integers(-127, 127)),
    )
    @settings(max_examples=80, deadline=None)
    def test_rhadd_bounds(self, values):
        a, b = values[:10], values[10:]
        result = rhadd(a, b)
        assert np.all(result >= np.minimum(a, b))
        assert np.all(result <= np.maximum(a, b) + 1)

    @given(
        values=hnp.arrays(dtype=np.int64, shape=(4, 16),
                          elements=st.integers(-127, 127)),
    )
    @settings(max_examples=80, deadline=None)
    def test_fast_aggregate_error_bounded(self, values):
        """The rhadd-tree estimate stays within a bounded distance of the
        true sum (each tree level contributes at most 1 LSB of error per
        element)."""
        estimate = fast_aggregate(values, axis=-1)
        true = values.sum(axis=-1)
        levels = 4  # 16 leaves
        assert np.all(np.abs(estimate - true) <= levels * 16 + 16)


class TestKernelProperties:
    @given(
        bits=st.integers(1, 4),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_kernel_error_bounded_by_quantization_step(self, bits, seed):
        """T-MAC output (without table quantization) equals the dequantized
        reference for any weights/activations and bit width."""
        rng = np.random.default_rng(seed)
        w = rng.standard_normal((16, 32)).astype(np.float32)
        a = rng.standard_normal((2, 32)).astype(np.float32)
        qw = quantize_weights(w, bits=bits, group_size=16)
        config = TMACConfig(bits=bits, table_quantization=False,
                            act_dtype="float32")
        out = TMACKernel(qw, config).matmul(a)
        from repro.baselines.reference import quantized_reference_gemm
        ref = quantized_reference_gemm(a, qw)
        assert np.allclose(out, ref, atol=1e-3, rtol=1e-4)


class TestRowConcatenationProperties:
    @given(
        bits=st.sampled_from([2, 4]),
        rows=st.lists(st.integers(1, 40), min_size=2, max_size=4),
        n=st.sampled_from([1, 8, 33]),
        executor=st.sampled_from(["vectorized", "parallel"]),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_fused_rows_equal_concatenated_parts(self, bits, rows, n,
                                                 executor, seed):
        """Every kernel operation is elementwise along the output axis: the
        kernel on row-concatenated weights ``np.array_equal``s the
        column-concatenated outputs of the parts, for any row split —
        what lets the model bind q|k|v and gate|up as one operator."""
        rng = np.random.default_rng(seed)
        parts = [quantize_weights(
            rng.standard_normal((m, 64)).astype(np.float32), bits=bits,
            group_size=32) for m in rows]
        fused = QuantizedWeight(
            codes=np.concatenate([qw.codes for qw in parts]),
            scales=np.concatenate([qw.scales for qw in parts]),
            zeros=np.concatenate([qw.zeros for qw in parts]),
            bits=bits, group_size=32)
        a = rng.standard_normal((n, 64)).astype(np.float32)
        config = TMACConfig(bits=bits, executor=executor, num_threads=2,
                            parallel_threshold=0)
        np.testing.assert_array_equal(
            TMACKernel(fused, config).matmul(a),
            np.concatenate([TMACKernel(qw, config).matmul(a)
                            for qw in parts], axis=1))


def integer_phases():
    """The integer phases a ``g = 4`` kernel can run here: the native one
    when this host builds it, and the numpy fallback."""
    host = native.status().path
    return (host, "numpy") if host != "numpy" else ("numpy",)


class TestIntegerLutKernelProperties:
    @given(
        bits=st.integers(1, 4),
        # One byte-wide lookup fuses f = max(1, 8 // g) indices: g=1 -> 8,
        # g=2 -> 4, g=4 -> 2 (the packed uint4[2] byte), g=8 -> 1.  g=4,
        # the native kernel's, is drawn twice as often.
        g=st.sampled_from([1, 2, 4, 4, 8]),
        # Groups per quantization group: 258 is the last block length whose
        # sums fit the int16 accumulator (258 * 127 = 32766), 259 the first
        # that needs int32; g=1 with gpq=512 is group_size=512.  3 and 259
        # (and 2, 3 at g=1) leave a short last step, padded with pattern 0.
        # (gpq=1 is per-table scales, i.e. the fine-granularity float
        # closures.)
        gpq=st.sampled_from([2, 3, 16, 258, 259, 512]),
        qgroups=st.integers(1, 3),
        mirrored=st.booleans(),
        # alpha = 1 / (2 * s1): 0.5 folds into the epilogue's scale
        # factors (a power of two), 1/3 takes the unfolded pass.
        s1=st.sampled_from([1.0, 1.5]),
        n=st.sampled_from([1, 2, 3, 8, 33]),
        # 97 and 688 end in a partial 32-row nibble block.
        m=st.one_of(st.integers(1, 40), st.sampled_from([97, 688])),
        span=st.tuples(st.integers(0, 687), st.integers(1, 688)),
        budget=st.sampled_from([1, 1 << 10, 1 << 24]),
        # Rows per expanded-table block: at n=33, 5 leaves a short last
        # block, 32 a one-row one.
        block_rows=st.sampled_from([1, 5, 32]),
        seed=st.integers(0, 1000),
    )
    # Native corners: int32 sums over a partial last block, int16 sums of
    # 33 rows on 97 rows, 8 rows at the int16 bound.
    @example(bits=4, g=4, gpq=259, qgroups=1, mirrored=True, s1=1.0, n=1,
             m=688, span=(45, 600), budget=1 << 24, block_rows=5, seed=1)
    @example(bits=3, g=4, gpq=16, qgroups=2, mirrored=False, s1=1.5, n=33,
             m=97, span=(5, 70), budget=1 << 10, block_rows=32, seed=2)
    @example(bits=1, g=4, gpq=258, qgroups=2, mirrored=False, s1=1.0, n=8,
             m=97, span=(33, 64), budget=1, block_rows=1, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_loop_oracle(self, bits, g, gpq, qgroups,
                                          mirrored, s1, n, m, span, budget,
                                          block_rows, seed):
        """Every integer phase — at ``g = 4`` the native AVX2 one and
        the numpy one, at other ``g`` numpy — makes the
        kernel ``np.array_equal`` the loop oracle on full calls and on
        output spans not aligned to 32 rows under any budget, whether or
        not the budget splits the activation rows."""
        assume(g * gpq <= 1040)  # keeps the tables small
        assume(n * m * gpq <= 1 << 20)  # and the oracle's temporaries
        group_size = g * gpq
        k = group_size * qgroups
        rng = np.random.default_rng(seed)
        qw = quantize_weights(
            rng.standard_normal((m, k)).astype(np.float32), bits=bits,
            group_size=group_size)
        a = rng.standard_normal((n, k)).astype(np.float32)
        config = TMACConfig(bits=bits, g=g, mirror_consolidation=mirrored,
                            s0=-s1, s1=s1, executor="vectorized")
        oracle = TMACKernel(qw, config.with_options(executor="loop")).matmul(
            a)
        m0 = span[0] % m
        m1 = m0 + 1 + (span[1] - 1) % (m - m0)
        group_sums = a.reshape(n, qgroups, -1).sum(axis=2)
        for path in integer_phases() if g == 4 else ("numpy",):
            # A fresh plan per path: the compiled kernel is cached on it.
            kernel = TMACKernel.from_plan(build_plan(qw, config), config)
            with native.force(path):
                np.testing.assert_array_equal(kernel.matmul(a), oracle)
            table = kernel.precompute(a)
            compiled = kernel.plan.specialized()
            assert isinstance(compiled, IntegerLutKernel)
            assert compiled.path == path
            assert compiled.acc_dtype == (
                np.int16 if gpq * 127 <= 32767 else np.int32)
            shard = compiled.recombine_span(table, group_sums, m0, m1,
                                            budget)
            np.testing.assert_array_equal(shard.astype(np.float32),
                                          oracle[:, m0:m1])
            if path != "numpy":
                assert not compiled.nibbles.flags.writeable
                continue
            f = {1: 8, 2: 4, 4: 2, 8: 1}[g]
            assert compiled.steps == -(-gpq // f)
            assert compiled.planes.shape == (compiled.steps, m, bits,
                                             qgroups)
            # QG * 256 addresses per slab at every one of these widths.
            assert compiled.planes.dtype == (
                np.uint8 if qgroups == 1 else np.uint16)
            assert table.fused_entries == compiled.steps * qgroups * 256
            # The budget bounds the expanded table: rows are split into
            # blocks that each fit it, and the result does not change by
            # a bit.
            row_budget = block_rows * table.fused_entries
            assert compiled.block_rows(table, row_budget) == block_rows
            assert table.row_minor(0, min(block_rows, n)).size <= row_budget
            blocked = compiled.recombine_span(table, group_sums, m0, m1,
                                              row_budget)
            np.testing.assert_array_equal(blocked, shard)
