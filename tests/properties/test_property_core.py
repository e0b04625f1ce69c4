"""Property-based tests for the T-MAC core invariants."""

import numpy as np
import pytest
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
from repro.core.specialize import NativeLutKernel
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


class TestNativeLutKernelProperties:
    @given(
        bits=st.integers(1, 4),
        # Groups per quantization group: 258 is the last block length whose
        # sums fit the int16 accumulator (258 * 127 = 32766), 259 the first
        # that needs int32.  (gpq=1 is per-table scales, i.e. the
        # fine-granularity ablation, which runs the oracle.)
        gpq=st.sampled_from([2, 3, 16, 258, 259]),
        qgroups=st.integers(1, 3),
        mirrored=st.booleans(),
        # alpha = 1 / (2 * s1): 0.5 folds into the epilogue's scale
        # factors (a power of two), 1/3 takes the unfolded pass.
        s1=st.sampled_from([1.0, 1.5]),
        n=st.sampled_from([1, 2, 3, 8, 33]),
        # 97 and 688 end in a partial 32-row nibble block.
        m=st.one_of(st.integers(1, 40), st.sampled_from([97, 688])),
        span=st.tuples(st.integers(0, 687), st.integers(1, 688)),
        # The span budget: 1 and 1 << 10 split the output columns.
        budget=st.sampled_from([1, 1 << 10, 1 << 24]),
        seed=st.integers(0, 1000),
    )
    # Native corners: int32 sums over a partial last block, int16 sums of
    # 33 rows on 97 rows, 8 rows at the int16 bound.
    @example(bits=4, gpq=259, qgroups=1, mirrored=True, s1=1.0, n=1,
             m=688, span=(45, 600), budget=1 << 24, seed=1)
    @example(bits=3, gpq=16, qgroups=2, mirrored=False, s1=1.5, n=33,
             m=97, span=(5, 70), budget=1 << 10, seed=2)
    @example(bits=1, gpq=258, qgroups=2, mirrored=False, s1=1.0, n=8,
             m=97, span=(33, 64), budget=1, seed=3)
    @settings(max_examples=60, deadline=None)
    def test_bit_identical_to_loop_oracle(self, bits, gpq, qgroups, mirrored,
                                          s1, n, m, span, budget, seed):
        """The native kernel (``g = 4``) is ``np.array_equal`` to the loop
        oracle on full calls and on output spans not aligned to 32 rows
        under any span budget."""
        status = native.status()
        if status.path == "numpy":
            pytest.skip(f"native kernel unavailable: {status.reason}")
        assume(n * m * gpq <= 1 << 20)  # keeps the oracle's temporaries small
        group_size = 4 * gpq
        k = group_size * qgroups
        rng = np.random.default_rng(seed)
        qw = quantize_weights(
            rng.standard_normal((m, k)).astype(np.float32), bits=bits,
            group_size=group_size)
        a = rng.standard_normal((n, k)).astype(np.float32)
        config = TMACConfig(bits=bits, mirror_consolidation=mirrored,
                            s0=-s1, s1=s1, executor="vectorized")
        oracle = TMACKernel(qw, config.with_options(executor="loop")).matmul(
            a)
        kernel = TMACKernel(qw, config)
        np.testing.assert_array_equal(kernel.matmul(a), oracle)
        compiled = kernel.plan.specialized()
        assert isinstance(compiled, NativeLutKernel)
        assert compiled.path == status.path
        assert not compiled.nibbles.flags.writeable
        assert compiled.acc_dtype == (
            np.int16 if gpq * 127 <= 32767 else np.int32)
        m0 = span[0] % m
        m1 = m0 + 1 + (span[1] - 1) % (m - m0)
        group_sums = a.reshape(n, qgroups, -1).sum(axis=2)
        shard = compiled.recombine_span(kernel.precompute(a), group_sums, m0,
                                        m1, budget)
        np.testing.assert_array_equal(shard.astype(np.float32),
                                      oracle[:, m0:m1])


@st.composite
def table_activations(draw):
    """``(activation, gpq)``: N 1-70 rows of K = 4 * gpq * blocks, each
    scale block Gaussian at one magnitude between fp16 subnormals and the
    fp16 range's edge (where some tables overflow), all zero, or mostly
    zero."""
    gpq = draw(st.sampled_from([1, 2, 4, 8, 16]))
    n = draw(st.integers(1, 70))
    blocks = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, blocks, 4 * gpq)).astype(np.float32)
    for row in range(n):
        for blk in range(blocks):
            kind = draw(st.sampled_from(["scaled", "zero", "sparse"]))
            if kind == "zero":
                a[row, blk] = rng.choice([0.0, -0.0], size=4 * gpq)
            elif kind == "sparse":
                a[row, blk, rng.random(4 * gpq) < 0.8] = 0.0
            a[row, blk] *= np.float32(draw(st.sampled_from(
                [6e-8, 1e-6, 1e-3, 1.0, 3e2, 3e3, 8e3])))
    return a.reshape(n, blocks * 4 * gpq), gpq


class TestNativeTableProperties:
    @given(case=table_activations(), mirrored=st.booleans(),
           act_dtype=st.sampled_from(["float16", "float32"]))
    @settings(max_examples=80, deadline=None)
    def test_native_table_is_bit_identical_to_precompute_lut(
            self, case, mirrored, act_dtype):
        """``Backend.table`` against ``precompute_lut``: int8 values
        ``np.array_equal``, scales equal bit for bit, and the same
        ``ValueError`` where a table overflows fp16."""
        backend = native.backend()
        if backend is None:
            pytest.skip(f"native library unavailable: {native.status().reason}")
        a, gpq = case
        stored = 8 if mirrored else 16
        try:
            ref = precompute_lut(a, g=4, mirror_consolidation=mirrored,
                                 scale_block=gpq, act_dtype=act_dtype)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                backend.table(a, gpq, stored, act_dtype == "float16")
            assert str(got.value) == str(exc)
            return
        values, scales = backend.table(a, gpq, stored,
                                       act_dtype == "float16")
        assert values.shape == ref.values.shape
        assert np.array_equal(values, ref.values)
        np.testing.assert_array_equal(scales.view(np.uint32),
                                      ref.scales.view(np.uint32))


def activation_layouts(a):
    """The values of ``a`` as Fortran-ordered, row-sliced and
    transposed-view arrays, besides the C-ordered original."""
    n, k = a.shape
    padded = np.zeros((2 * n, k + 3), dtype=np.float32)
    padded[::2, 1:k + 1] = a
    return {"C": a, "F": np.asfortranarray(a),
            "rows": padded[::2, 1:k + 1],
            "transposed": np.ascontiguousarray(a.T).T}


class TestActivationLayoutProperties:
    @given(
        bits=st.integers(1, 4),
        group_size=st.sampled_from([32, 64, 128]),
        qgroups=st.integers(1, 3),
        n=st.integers(1, 33),
        m=st.integers(1, 48),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_output_independent_of_memory_layout(self, bits, group_size,
                                                 qgroups, n, m, seed):
        """The default kernel (native where the library loads) and the
        loop oracle each give the same bits for the same activation values
        whatever their memory layout, through ``matmul`` and through
        ``precompute`` + ``matmul_with_table``."""
        rng = np.random.default_rng(seed)
        k = group_size * qgroups
        qw = quantize_weights(
            rng.standard_normal((m, k)).astype(np.float32), bits=bits,
            group_size=group_size)
        a = rng.standard_normal((n, k)).astype(np.float32)
        for executor in ("loop", "vectorized"):
            config = TMACConfig(bits=bits, executor=executor)
            kernel = TMACKernel.from_plan(build_plan(qw, config), config)
            expected = kernel.matmul(a)
            for layout, view in activation_layouts(a).items():
                np.testing.assert_array_equal(
                    kernel.matmul(view), expected,
                    err_msg=f"{executor} {layout}")
                np.testing.assert_array_equal(
                    kernel.matmul_with_table(view, kernel.precompute(view)),
                    expected, err_msg=f"{executor} {layout}")
