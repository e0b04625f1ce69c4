"""Paged KV caches: drop-in equivalence, COW fork, reservation, reuse."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.hardware.memory import kv_block_bytes
from repro.kvcache import OutOfBlocks, PagePool
from repro.llm import TransformerModel, tiny_arch
from repro.llm.model import generate_random_weights


def make_arch():
    return tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                     num_heads=4, vocab_size=97, max_seq_len=64)


@pytest.fixture(scope="module")
def arch():
    return make_arch()


@pytest.fixture(scope="module")
def model(arch):
    weights = generate_random_weights(arch, seed=3)
    return TransformerModel(
        arch, engine=get_backend("tmac", bits=4, group_size=32),
        weights=weights)


def make_pool(arch, blocks=32, block_size=4, prefix_caching=True):
    block_bytes = kv_block_bytes(arch.num_layers, arch.num_kv_heads,
                                 arch.head_dim, block_size)
    return PagePool.for_model(arch, budget_bytes=blocks * block_bytes,
                              block_size=block_size,
                              prefix_caching=prefix_caching)


class TestDropIn:
    def test_forward_identical_to_unpaged_cache(self, arch, model):
        """PagedKVCache is a bit-exact drop-in for llm.layers.KVCache."""
        tokens = np.asarray([1, 2, 3, 4, 5, 6, 7, 8, 9])
        unpaged = model.new_cache()
        expected = model.forward(tokens, caches=unpaged, start_position=0)

        pool = make_pool(arch)
        views = pool.create_session_cache(tokens.tolist()).layer_views()
        actual = model.forward(tokens, caches=views, start_position=0)
        np.testing.assert_array_equal(expected, actual)

        # Incremental decode stays identical too (page-boundary crossing).
        for step, token in enumerate([11, 12, 13, 14, 15]):
            t = np.asarray([token])
            exp = model.forward(t, caches=unpaged, start_position=9 + step)
            act = model.forward(t, caches=views, start_position=9 + step)
            np.testing.assert_array_equal(exp, act)
        for layer in range(arch.num_layers):
            k_u, v_u = unpaged[layer].stacked()
            k_p, v_p = views[layer].stacked()
            np.testing.assert_array_equal(k_u, k_p)
            np.testing.assert_array_equal(v_u, v_p)
            assert unpaged[layer].length == views[layer].length
            assert unpaged[layer].memory_bytes() == views[layer].memory_bytes()

    def test_empty_cache_raises_like_unpaged(self, arch):
        pool = make_pool(arch)
        view = pool.create_session_cache([1, 2]).layer_views()[0]
        with pytest.raises(ValueError):
            view.stacked()


class TestReservation:
    def test_reserve_is_all_or_nothing(self, arch):
        pool = make_pool(arch, blocks=3, block_size=4)
        cache = pool.create_session_cache([1] * 4)
        cache.reserve(8)  # 2 pages
        other = pool.create_session_cache([2] * 4)
        other.reserve(4)  # pool now full
        with pytest.raises(OutOfBlocks):
            cache.reserve(16)  # needs 2 more pages, only 0 free
        # The failed reservation must not have leaked the pool dry.
        assert pool.free_blocks == 0
        assert len(cache.block_table) == 2

    def test_append_autogrows_and_respects_budget(self, arch):
        pool = make_pool(arch, blocks=2, block_size=4)
        cache = pool.create_session_cache([1])
        view = cache.layer_views()[0]
        heads, dim = pool.kv_shape
        rows = np.zeros((8, heads, dim), dtype=np.float32)
        view.append(rows, rows)  # grows to 2 pages
        assert view.length == 8
        with pytest.raises(OutOfBlocks):
            view.append(rows[:1], rows[:1])

    def test_release_returns_pages(self, arch):
        pool = make_pool(arch, blocks=4, block_size=4)
        cache = pool.create_session_cache([1])
        cache.reserve(16)
        assert pool.free_blocks == 0
        cache.release()
        assert pool.free_blocks == 4
        with pytest.raises(RuntimeError):
            cache.reserve(4)  # released caches are inert


class TestCopyOnWrite:
    def test_fork_shares_pages_until_write(self, arch, model):
        pool = make_pool(arch, block_size=4)
        tokens = np.asarray([1, 2, 3, 4, 5, 6])
        parent = pool.create_session_cache(tokens.tolist())
        model.forward(tokens, caches=parent.layer_views(), start_position=0)
        pages_before = pool.allocator.used_blocks

        child = parent.fork()
        assert pool.allocator.used_blocks == pages_before  # zero-copy fork
        assert pool.shared_blocks == 2  # both pages shared

        # Writing through the child forks only the partial tail page.
        child_views = child.layer_views()
        parent_views = parent.layer_views()
        exp_child = model.forward(np.asarray([7]), caches=child_views,
                                  start_position=6)
        assert pool.cow_forks == 1
        exp_parent = model.forward(np.asarray([8]), caches=parent_views,
                                   start_position=6)
        # Divergent tails, intact shared prefix: replay both histories
        # against fresh unpaged caches with the same prefill/decode
        # schedule (attention's matmuls are GEMVs for one query and GEMMs
        # for several, so a whole-sequence pass differs in final ulps) and
        # compare bitwise.
        for branch_token, views in ((7, child_views), (8, parent_views)):
            fresh = model.new_cache()
            model.forward(tokens, caches=fresh, start_position=0)
            model.forward(np.asarray([branch_token]), caches=fresh,
                          start_position=6)
            for layer in range(arch.num_layers):
                k_f, v_f = fresh[layer].stacked()
                k_b, v_b = views[layer].stacked()
                np.testing.assert_array_equal(k_f, k_b)
                np.testing.assert_array_equal(v_f, v_b)

    def test_fork_release_keeps_parent_intact(self, arch, model):
        pool = make_pool(arch, block_size=4)
        tokens = np.asarray([1, 2, 3, 4, 5])
        parent = pool.create_session_cache(tokens.tolist())
        views = parent.layer_views()
        expected = model.forward(tokens, caches=views, start_position=0)
        child = parent.fork()
        child.release()
        k_before, _ = views[0].stacked()
        actual = model.forward(tokens, caches=pool.create_session_cache(
            tokens.tolist()).layer_views(), start_position=0)
        np.testing.assert_array_equal(expected, actual)
        k_after, _ = views[0].stacked()
        np.testing.assert_array_equal(k_before, k_after)


class TestPrefixReuse:
    def test_second_session_maps_same_physical_pages(self, arch, model):
        pool = make_pool(arch, block_size=4)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9]
        first = pool.create_session_cache(tokens)
        model.forward(np.asarray(tokens), caches=first.layer_views(),
                      start_position=0)
        first.commit_prefix(tokens)

        second = pool.create_session_cache(tokens)
        # 8 of 9 positions come from the cache (2 full pages; the last
        # token is always recomputed).
        assert second.prefix_length == 8
        assert second.block_table[:2] == first.block_table[:2]
        assert pool.shared_blocks == 2
        assert pool.prefix_cache.hit_tokens == 8

    def test_eviction_unlinks_then_reuses_pages(self, arch, model):
        pool = make_pool(arch, blocks=3, block_size=4)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8]
        first = pool.create_session_cache(tokens)
        model.forward(np.asarray(tokens), caches=first.layer_views(),
                      start_position=0)
        first.commit_prefix(tokens)
        first.release()  # 2 cached pages now evictable

        # A new session needs all 3 pages: the cached ones get evicted.
        big = pool.create_session_cache([9] * 12)
        big.reserve(12)
        assert pool.allocator.evictions >= 1
        ids, _ = pool.prefix_cache.match(tokens)
        assert ids == []  # evicted pages no longer match

    def test_partial_eviction_keeps_chain_root_matchable(self, arch, model):
        """Pages are released leaf-first, so one eviction under pressure
        trims the *tail* of a cached prefix chain — the root page stays
        matchable instead of orphaning every descendant."""
        pool = make_pool(arch, blocks=4, block_size=4)
        tokens = [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12]
        first = pool.create_session_cache(tokens)
        model.forward(np.asarray(tokens), caches=first.layer_views(),
                      start_position=0)
        first.commit_prefix(tokens)
        first.release()  # 3 cached pages evictable, 1 page truly free

        pressure = pool.create_session_cache([90] * 8)
        pressure.reserve(8)  # needs 2 pages: 1 free + 1 evicted (the leaf)
        assert pool.allocator.evictions == 1
        ids, _ = pool.prefix_cache.match(tokens)
        assert len(ids) == 2  # root + middle survive; only the tail is gone
