"""Unit tests for the transformer layers."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.config import TMACConfig
from repro.llm.architecture import tiny_arch
from repro.llm.engine import ReferenceEngine
from repro.llm.layers import (
    Attention,
    KVCache,
    MLP,
    apply_rope,
    build_rope_cache,
    rms_norm,
    silu,
    softmax,
    swiglu,
)
from repro.llm.model import generate_random_weights


class TestPrimitives:
    def test_rms_norm_unit_scale(self, rng):
        x = rng.standard_normal((4, 64)).astype(np.float32) * 3
        out = rms_norm(x, np.ones(64, dtype=np.float32))
        rms = np.sqrt(np.mean(out ** 2, axis=-1))
        np.testing.assert_allclose(rms, 1.0, atol=1e-3)

    def test_softmax_sums_to_one(self, rng):
        x = rng.standard_normal((3, 10)).astype(np.float32) * 50
        probs = softmax(x)
        np.testing.assert_allclose(probs.sum(axis=-1), 1.0, rtol=1e-5)
        assert np.all(probs >= 0)

    def test_softmax_stability_with_large_values(self):
        x = np.array([[1e4, 1e4 - 1.0]], dtype=np.float32)
        probs = softmax(x)
        assert np.all(np.isfinite(probs))

    def test_silu_known_values(self):
        assert silu(np.array([0.0]))[0] == pytest.approx(0.0)
        assert silu(np.array([10.0]))[0] == pytest.approx(10.0, abs=1e-3)


class TestRope:
    def test_rotation_preserves_norm(self, rng):
        cos, sin = build_rope_cache(32, 16)
        x = rng.standard_normal((5, 2, 16)).astype(np.float32)
        rotated = apply_rope(x, cos, sin, np.arange(5))
        np.testing.assert_allclose(np.linalg.norm(rotated, axis=-1),
                                   np.linalg.norm(x, axis=-1), rtol=1e-5)

    def test_position_zero_is_identity(self, rng):
        cos, sin = build_rope_cache(8, 8)
        x = rng.standard_normal((1, 1, 8)).astype(np.float32)
        rotated = apply_rope(x, cos, sin, np.array([0]))
        np.testing.assert_allclose(rotated, x, atol=1e-6)

    def test_relative_property(self, rng):
        """Dot products depend only on relative positions."""
        cos, sin = build_rope_cache(64, 16)
        q = rng.standard_normal((1, 1, 16)).astype(np.float32)
        k = rng.standard_normal((1, 1, 16)).astype(np.float32)
        def score(pq, pk):
            rq = apply_rope(q, cos, sin, np.array([pq]))[0, 0]
            rk = apply_rope(k, cos, sin, np.array([pk]))[0, 0]
            return float(rq @ rk)
        assert score(3, 1) == pytest.approx(score(10, 8), abs=1e-4)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            build_rope_cache(8, 7)


class TestKVCache:
    def test_append_and_stack(self, rng):
        cache = KVCache()
        cache.append(rng.standard_normal((3, 2, 8)), rng.standard_normal((3, 2, 8)))
        cache.append(rng.standard_normal((1, 2, 8)), rng.standard_normal((1, 2, 8)))
        k, v = cache.stacked()
        assert k.shape == (4, 2, 8)
        assert cache.length == 4
        assert cache.memory_bytes() > 0

    def test_empty_cache_rejected(self):
        with pytest.raises(ValueError):
            KVCache().stacked()


class TestAttentionAndMLP:
    def test_incremental_attention_matches_full_pass(self, rng):
        """Decoding token-by-token with a KV cache equals a full forward."""
        arch = tiny_arch(hidden_size=32, intermediate_size=64, num_layers=1,
                         num_heads=4, vocab_size=50)
        weights = generate_random_weights(arch, seed=3)["layers"][0]
        attention = Attention(arch, ReferenceEngine(), weights["attention"])

        x = rng.standard_normal((6, 32)).astype(np.float32)
        full = attention.forward(x, np.arange(6), cache=None)

        cache = KVCache()
        incremental = []
        for position in range(6):
            out = attention.forward(x[position:position + 1],
                                    np.array([position]), cache=cache)
            incremental.append(out[0])
        np.testing.assert_allclose(np.stack(incremental), full, atol=1e-4)

    def test_causality(self, rng):
        """Changing a future token does not affect earlier outputs."""
        arch = tiny_arch(hidden_size=32, intermediate_size=64, num_layers=1,
                         num_heads=4, vocab_size=50)
        weights = generate_random_weights(arch, seed=4)["layers"][0]
        attention = Attention(arch, ReferenceEngine(), weights["attention"])
        x = rng.standard_normal((5, 32)).astype(np.float32)
        out_a = attention.forward(x, np.arange(5))
        x_modified = x.copy()
        x_modified[4] += 10.0
        out_b = attention.forward(x_modified, np.arange(5))
        np.testing.assert_allclose(out_a[:4], out_b[:4], atol=1e-4)

    def test_mlp_shapes(self, rng):
        arch = tiny_arch(hidden_size=32, intermediate_size=96, num_layers=1,
                         num_heads=4, vocab_size=50)
        weights = generate_random_weights(arch, seed=5)["layers"][0]
        mlp = MLP(arch, ReferenceEngine(), weights["mlp"])
        out = mlp.forward(rng.standard_normal((3, 32)).astype(np.float32))
        assert out.shape == (3, 32)


def _layer(num_kv_heads):
    arch = tiny_arch(hidden_size=64, intermediate_size=160, num_layers=1,
                     num_heads=4, num_kv_heads=num_kv_heads, vocab_size=50)
    return arch, generate_random_weights(arch, seed=6)["layers"][0]


def _separate(engine, weights, names, x):
    """Column-concatenated outputs of one operator per projection."""
    return np.concatenate(
        [engine.make_linear(weights[name])(x) for name in names], axis=1)


class TestFusedProjections:
    """q|k|v and gate|up are bound as one row-concatenated operator."""

    @pytest.mark.parametrize("executor", ["vectorized", "parallel"])
    @pytest.mark.parametrize("n", [1, 8, 33])
    @pytest.mark.parametrize("num_kv_heads", [4, 2], ids=["mha", "gqa"])
    @pytest.mark.parametrize(
        "quant", [{"bits": 4}, {"bits": 2}, {"bitnet": True}],
        ids=["4bit", "2bit", "bitnet"])
    def test_tmac_bit_identical_to_separate_operators(
            self, quant, num_kv_heads, n, executor, rng):
        """Quantizers and kernel are row-independent: the fused columns
        ``np.array_equal`` the separately bound projections."""
        arch, weights = _layer(num_kv_heads)
        engine = get_backend(
            "tmac", group_size=32, **quant,
            config=TMACConfig(executor=executor, num_threads=2,
                              parallel_threshold=0))
        x = rng.standard_normal((n, 64)).astype(np.float32)

        attention = Attention(arch, engine, weights["attention"])
        assert attention.qkv_proj.out_features == 64 + 2 * arch.kv_dim
        np.testing.assert_array_equal(
            attention.qkv_proj(x),
            _separate(engine, weights["attention"],
                      ("q_proj", "k_proj", "v_proj"), x))

        mlp = MLP(arch, engine, weights["mlp"])
        np.testing.assert_array_equal(
            mlp.gate_up_proj(x),
            _separate(engine, weights["mlp"], ("gate_proj", "up_proj"), x))

    @pytest.mark.parametrize("kind", ["reference", "dequant"])
    def test_blas_backends_match_within_tolerance(self, kind, rng):
        """One fused GEMM may differ from three in final ulps."""
        arch, weights = _layer(num_kv_heads=2)
        engine = get_backend(kind, bits=4, group_size=32)
        x = rng.standard_normal((8, 64)).astype(np.float32)
        np.testing.assert_allclose(
            Attention(arch, engine, weights["attention"]).qkv_proj(x),
            _separate(engine, weights["attention"],
                      ("q_proj", "k_proj", "v_proj"), x),
            rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(
            MLP(arch, engine, weights["mlp"]).gate_up_proj(x),
            _separate(engine, weights["mlp"], ("gate_proj", "up_proj"), x),
            rtol=1e-5, atol=1e-5)

    def test_split_matches_separate_projections(self, rng):
        """``split_qkv`` / ``swiglu`` slice the fused result where the
        separate projections would have been (GQA: kv_dim < hidden)."""
        arch, weights = _layer(num_kv_heads=2)
        engine = get_backend("tmac", bits=4, group_size=32)
        attention = Attention(arch, engine, weights["attention"])
        x = rng.standard_normal((3, 64)).astype(np.float32)
        positions = np.arange(3)

        def project(name, heads):
            return engine.make_linear(weights["attention"][name])(x).reshape(
                3, heads, arch.head_dim)

        q, k, v = attention.split_qkv(attention.qkv_proj(x), positions)
        cos, sin = build_rope_cache(arch.max_seq_len, arch.head_dim)
        np.testing.assert_array_equal(
            q, apply_rope(project("q_proj", 4), cos, sin, positions))
        np.testing.assert_array_equal(
            k, apply_rope(project("k_proj", 2), cos, sin, positions))
        np.testing.assert_array_equal(v, project("v_proj", 2))
        assert v.flags.owndata  # a cached v does not pin the fused result

        gate = engine.make_linear(weights["mlp"]["gate_proj"])(x)
        up = engine.make_linear(weights["mlp"]["up_proj"])(x)
        np.testing.assert_array_equal(
            swiglu(MLP(arch, engine, weights["mlp"]).gate_up_proj(x)),
            silu(gate) * up)
