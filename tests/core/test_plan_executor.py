"""Plan/executor split: parity, plan cache and gemm memoization."""

import numpy as np
import pytest

from repro.core.config import TMACConfig
from repro.core.executor import get_executor, list_executors
from repro.core.gemm import tmac_gemm
from repro.core.kernel import TMACKernel
from repro.core.plan import (
    PLAN_CACHE,
    PlanCache,
    build_plan,
    clear_plan_cache,
    get_plan,
    weight_fingerprint,
)
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights


class TestExecutorParity:
    """The vectorized executor is bit-identical to the loop reference."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("group_size", [32, 64])
    def test_parity_across_bits_and_groups(self, bits, group_size):
        w = gaussian_weights(24, 128, seed=bits)
        a = gaussian_activation(3, 128, seed=bits + 40)
        qw = quantize_weights(w, bits=bits, group_size=group_size)
        config = TMACConfig(bits=bits)
        vec = TMACKernel(qw, config).matmul(a)
        loop = TMACKernel(qw, config.with_options(executor="loop")).matmul(a)
        np.testing.assert_array_equal(vec, loop)

    @pytest.mark.parametrize("fast_aggregation", [False, True])
    def test_parity_with_fast_aggregation(self, fast_aggregation):
        w = gaussian_weights(32, 128, seed=5)
        a = gaussian_activation(2, 128, seed=6)
        qw = quantize_weights(w, bits=4, group_size=32)
        config = TMACConfig(bits=4, fast_aggregation=fast_aggregation)
        vec = TMACKernel(qw, config).matmul(a)
        loop = TMACKernel(qw, config.with_options(executor="loop")).matmul(a)
        np.testing.assert_array_equal(vec, loop)

    def test_parity_fine_scale_granularity(self):
        w = gaussian_weights(16, 128, seed=7)
        a = gaussian_activation(2, 128, seed=8)
        qw = quantize_weights(w, bits=3, group_size=64)
        config = TMACConfig(bits=3, lut_scale_granularity="fine")
        vec = TMACKernel(qw, config).matmul(a)
        loop = TMACKernel(qw, config.with_options(executor="loop")).matmul(a)
        np.testing.assert_array_equal(vec, loop)

    def test_parity_unquantized_tables_and_no_mirror(self):
        w = gaussian_weights(16, 64, seed=9)
        a = gaussian_activation(2, 64, seed=10)
        qw = quantize_weights(w, bits=2, group_size=32)
        for config in (
            TMACConfig(bits=2, table_quantization=False, act_dtype="float32"),
            TMACConfig(bits=2, mirror_consolidation=False),
        ):
            vec = TMACKernel(qw, config).matmul(a)
            loop = TMACKernel(qw, config.with_options(executor="loop")).matmul(a)
            np.testing.assert_array_equal(vec, loop)

    def test_matmul_codes_parity(self):
        w = gaussian_weights(24, 96, seed=11)
        a = gaussian_activation(2, 96, seed=12)
        qw = quantize_weights(w, bits=4, group_size=32)
        config = TMACConfig(bits=4, table_quantization=False,
                            act_dtype="float32")
        vec = TMACKernel(qw, config).matmul_codes(a)
        loop = TMACKernel(qw, config.with_options(executor="loop")).matmul_codes(a)
        np.testing.assert_allclose(vec, loop, rtol=1e-12, atol=1e-9)

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError):
            TMACConfig(bits=4, executor="cuda")
        with pytest.raises(ValueError):
            get_executor("cuda")

    def test_executor_listing(self):
        assert list_executors() == ["loop", "parallel", "vectorized"]


class TestSharedTableExecution:
    """matmul_with_table lets several kernels reuse one LUT precompute."""

    def test_external_table_matches_internal(self):
        w1 = gaussian_weights(24, 128, seed=13)
        w2 = gaussian_weights(40, 128, seed=14)
        a = gaussian_activation(2, 128, seed=15)
        config = TMACConfig(bits=4)
        k1 = TMACKernel(quantize_weights(w1, bits=4, group_size=32), config)
        k2 = TMACKernel(quantize_weights(w2, bits=4, group_size=32), config)
        table = k1.precompute(a)
        np.testing.assert_array_equal(k1.matmul_with_table(a, table),
                                      k1.matmul(a))
        # The table depends only on the activation, so k2 accepts k1's table.
        np.testing.assert_array_equal(k2.matmul_with_table(a, table),
                                      k2.matmul(a))

    def test_incompatible_table_rejected(self):
        """A mismatched external table must fail loudly, not corrupt output."""
        a64 = gaussian_activation(2, 64, seed=26)
        a128 = gaussian_activation(2, 128, seed=27)
        config = TMACConfig(bits=4)
        k64 = TMACKernel(quantize_weights(gaussian_weights(8, 64, seed=28),
                                          bits=4, group_size=32), config)
        k128 = TMACKernel(quantize_weights(gaussian_weights(8, 128, seed=29),
                                           bits=4, group_size=32), config)
        table128 = k128.precompute(a128)
        with pytest.raises(ValueError):  # wrong K / group count
            k64.matmul_with_table(a64, table128)
        table64 = k64.precompute(a64)
        with pytest.raises(ValueError):  # wrong activation row count
            k64.matmul_with_table(a64[:1], table64)
        unquantized = TMACKernel(
            quantize_weights(gaussian_weights(8, 64, seed=28), bits=4,
                             group_size=32),
            config.with_options(table_quantization=False,
                                act_dtype="float32"))
        with pytest.raises(ValueError):  # quantization mismatch
            unquantized.matmul_with_table(a64, table64)
        other_transform = TMACKernel(
            quantize_weights(gaussian_weights(8, 64, seed=28), bits=4,
                             group_size=32),
            config.with_options(s0=0.0, s1=1.0, mirror_consolidation=False))
        plain = TMACKernel(
            quantize_weights(gaussian_weights(8, 64, seed=28), bits=4,
                             group_size=32),
            config.with_options(mirror_consolidation=False))
        with pytest.raises(ValueError):  # bit-serial transform mismatch
            plain.matmul_with_table(a64, other_transform.precompute(a64))


class TestKernelPlan:
    def test_fingerprint_is_content_addressed(self):
        w = gaussian_weights(16, 64, seed=16)
        qw_a = quantize_weights(w, bits=4, group_size=32)
        qw_b = quantize_weights(w.copy(), bits=4, group_size=32)
        qw_c = quantize_weights(w, bits=2, group_size=32)
        assert weight_fingerprint(qw_a) == weight_fingerprint(qw_b)
        assert weight_fingerprint(qw_a) != weight_fingerprint(qw_c)

    def test_fingerprint_memoized(self):
        """Repeated fingerprinting of one object does not re-hash M*K bytes."""
        from repro.core.plan import _FINGERPRINT_MEMO

        w = gaussian_weights(16, 64, seed=16)
        qw = quantize_weights(w, bits=4, group_size=32)
        first = weight_fingerprint(qw)
        assert _FINGERPRINT_MEMO[id(qw.codes)][3] == first
        assert weight_fingerprint(qw) == first

    def test_fingerprint_memo_not_fooled_by_replaced_arrays(self):
        """dataclasses.replace-derived weights with new arrays re-hash."""
        import dataclasses

        w = gaussian_weights(16, 64, seed=16)
        qw = quantize_weights(w, bits=4, group_size=32)
        first = weight_fingerprint(qw)
        other = dataclasses.replace(
            qw, codes=quantize_weights(gaussian_weights(16, 64, seed=99),
                                       bits=4, group_size=32).codes)
        assert weight_fingerprint(other) != first

    def test_fingerprinted_weights_stay_picklable(self):
        """The memo must not attach unpicklable state to the weight object."""
        import pickle

        w = gaussian_weights(16, 64, seed=16)
        qw = quantize_weights(w, bits=4, group_size=32)
        weight_fingerprint(qw)
        restored = pickle.loads(pickle.dumps(qw))
        assert weight_fingerprint(restored) == weight_fingerprint(qw)

    def test_kernel_from_plan_matches_direct(self):
        w = gaussian_weights(16, 64, seed=17)
        a = gaussian_activation(1, 64, seed=18)
        qw = quantize_weights(w, bits=4, group_size=32)
        config = TMACConfig(bits=4)
        plan = build_plan(qw, config)
        np.testing.assert_array_equal(
            TMACKernel.from_plan(plan, config).matmul(a),
            TMACKernel(qw, config).matmul(a),
        )

    def test_plan_shared_between_fa_and_exact(self):
        """Execution-time knobs do not fragment the plan cache."""
        cache = PlanCache()
        w = gaussian_weights(16, 64, seed=19)
        qw = quantize_weights(w, bits=4, group_size=32)
        plan_exact = cache.get(qw, TMACConfig(bits=4))
        plan_fa = cache.get(qw, TMACConfig(bits=4, fast_aggregation=True))
        assert plan_exact is plan_fa
        assert cache.stats()["hits"] == 1

    def test_implicit_and_explicit_default_tile_share_a_plan(self):
        from repro.core.tiling import TileConfig

        cache = PlanCache()
        w = gaussian_weights(16, 64, seed=19)
        qw = quantize_weights(w, bits=4, group_size=32)
        implicit = cache.get(qw, TMACConfig(bits=4))
        explicit = cache.get(qw, TMACConfig(bits=4),
                             TileConfig(m_tm=32, k_tk=32))
        assert implicit is explicit

    def test_plan_shared_across_permute_and_interleave_flags(self):
        """The flags change no offline artifact: one plan serves them."""
        cache = PlanCache()
        w = gaussian_weights(16, 64, seed=20)
        qw = quantize_weights(w, bits=4, group_size=32)
        base = cache.get(qw, TMACConfig(bits=4))
        for options in ({"permute_weights": False},
                        {"interleave_weights": False},
                        {"permute_weights": False,
                         "interleave_weights": False}):
            assert cache.get(qw, TMACConfig(bits=4, **options)) is base
        assert cache.stats()["misses"] == 1

    def test_plan_not_shared_across_layout_changes(self):
        cache = PlanCache()
        w = gaussian_weights(16, 64, seed=20)
        qw = quantize_weights(w, bits=4, group_size=32)
        base = cache.get(qw, TMACConfig(bits=4))
        other = cache.get(qw, TMACConfig(bits=4, g=2))
        assert base is not other

    def test_incompatible_plan_rejected(self):
        w = gaussian_weights(16, 64, seed=21)
        qw = quantize_weights(w, bits=4, group_size=32)
        plan = build_plan(qw, TMACConfig(bits=4))
        with pytest.raises(ValueError):
            TMACKernel.from_plan(plan, TMACConfig(bits=4, g=2))

    def test_mismatched_tile_request_rejected(self):
        from repro.core.tiling import TileConfig

        w = gaussian_weights(16, 64, seed=21)
        qw = quantize_weights(w, bits=4, group_size=32)
        plan = build_plan(qw, TMACConfig(bits=4))  # default [32, 32] tiles
        with pytest.raises(ValueError):  # explicit different tiling
            TMACKernel.from_plan(
                plan, TMACConfig(bits=4, tile_config=TileConfig(m_tm=16,
                                                                k_tk=16)))
        # No tile preference, or the plan's own tiling: both accepted.
        TMACKernel.from_plan(plan, TMACConfig(bits=4))
        TMACKernel.from_plan(
            plan, TMACConfig(bits=4, tile_config=plan.weights.tile_config))

    def test_lru_eviction(self):
        cache = PlanCache(max_entries=2)
        weights = [gaussian_weights(8, 32, seed=30 + i) for i in range(3)]
        qws = [quantize_weights(w, bits=4, group_size=32) for w in weights]
        for qw in qws:
            cache.get(qw, TMACConfig(bits=4))
        assert len(cache) == 2
        # The oldest entry was evicted; re-fetching it is a miss.
        misses_before = cache.stats()["misses"]
        cache.get(qws[0], TMACConfig(bits=4))
        assert cache.stats()["misses"] == misses_before + 1

    def test_hit_refreshes_lru_order(self):
        """Eviction takes the least recently *used* plan, not the oldest
        built: a hit moves its entry to the back."""
        cache = PlanCache(max_entries=2)
        config = TMACConfig(bits=4)
        first, second, third = (
            quantize_weights(gaussian_weights(8, 32, seed=40 + i), bits=4,
                             group_size=32) for i in range(3))
        kept = cache.get(first, config)
        cache.get(second, config)
        assert cache.get(first, config) is kept  # hit: first is now newest
        cache.get(third, config)  # evicts second
        assert cache.get(first, config) is kept
        misses_before = cache.stats()["misses"]
        cache.get(second, config)
        assert cache.stats()["misses"] == misses_before + 1

    def test_clear_drops_plans_and_counters(self):
        cache = PlanCache()
        config = TMACConfig(bits=4)
        qw = quantize_weights(gaussian_weights(8, 32, seed=43), bits=4,
                              group_size=32)
        plan = cache.get(qw, config)
        cache.get(qw, config)
        cache.clear()
        assert cache.stats() == {"hits": 0, "misses": 0, "entries": 0}
        assert cache.get(qw, config) is not plan
        assert cache.stats() == {"hits": 0, "misses": 1, "entries": 1}


class TestGemmMemoization:
    def test_repeated_gemm_hits_plan_cache(self):
        clear_plan_cache()
        w = gaussian_weights(16, 64, seed=22)
        qw = quantize_weights(w, bits=4, group_size=32)
        a = gaussian_activation(2, 64, seed=23)
        first = tmac_gemm(a, qw)
        stats_after_first = PLAN_CACHE.stats()
        second = tmac_gemm(a, qw)
        stats_after_second = PLAN_CACHE.stats()
        np.testing.assert_array_equal(first, second)
        assert stats_after_second["hits"] == stats_after_first["hits"] + 1
        assert stats_after_second["misses"] == stats_after_first["misses"]

    def test_equal_weights_rebuilt_elsewhere_still_hit(self):
        clear_plan_cache()
        w = gaussian_weights(16, 64, seed=24)
        a = gaussian_activation(1, 64, seed=25)
        tmac_gemm(a, quantize_weights(w, bits=4, group_size=32))
        tmac_gemm(a, quantize_weights(w.copy(), bits=4, group_size=32))
        assert PLAN_CACHE.stats()["hits"] >= 1
