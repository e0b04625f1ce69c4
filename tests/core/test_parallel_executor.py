"""Parallel executor: bit-identity, sharding policy, tile geometry, knobs."""

import numpy as np
import pytest

from repro.core import native
from repro.core.config import DEFAULT_PARALLEL_THRESHOLD, TMACConfig
from repro.core.executor import (
    ParallelExecutor,
    get_executor,
    get_worker_pool,
    parallel_executor_stats,
    reset_parallel_executor_stats,
)
from repro.core.kernel import TMACKernel
from repro.core.plan import build_plan
from repro.core.specialize import IntegerLutKernel
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights


def make_kernel(bits=4, m=96, k=128, group_size=32, seed=0, **options):
    qw = quantize_weights(gaussian_weights(m, k, seed=seed), bits=bits,
                          group_size=group_size)
    return TMACKernel(qw, TMACConfig(bits=bits, **options)), qw


class TestBitIdentity:
    """The sharded result must equal the serial vectorized result bitwise."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("threads", [2, 3, 4])
    def test_parity_across_bits_and_threads(self, bits, threads):
        qw = quantize_weights(gaussian_weights(96, 128, seed=bits), bits=bits,
                              group_size=32)
        a = gaussian_activation(3, 128, seed=bits + 50)
        # executor pinned: the baseline must stay serial even when
        # REPRO_EXECUTOR=parallel flips the process default (CI leg 2).
        serial = TMACKernel(qw, TMACConfig(
            bits=bits, executor="vectorized")).matmul(a)
        parallel = TMACKernel(qw, TMACConfig(
            bits=bits, executor="parallel", num_threads=threads,
            parallel_threshold=0)).matmul(a)
        np.testing.assert_array_equal(serial, parallel)

    @pytest.mark.parametrize("options", [
        dict(fast_aggregation=True),
        dict(lut_scale_granularity="fine"),
        dict(table_quantization=False, act_dtype="float32"),
        dict(mirror_consolidation=False),
    ])
    def test_parity_across_table_modes(self, options):
        qw = quantize_weights(gaussian_weights(64, 128, seed=7), bits=3,
                              group_size=32)
        a = gaussian_activation(2, 128, seed=8)
        serial = TMACKernel(qw, TMACConfig(
            bits=3, executor="vectorized", **options)).matmul(a)
        parallel = TMACKernel(qw, TMACConfig(
            bits=3, executor="parallel", num_threads=4,
            parallel_threshold=0, **options)).matmul(a)
        np.testing.assert_array_equal(serial, parallel)

    def test_parity_against_loop_oracle(self):
        qw = quantize_weights(gaussian_weights(96, 128, seed=9), bits=4,
                              group_size=64)
        a = gaussian_activation(2, 128, seed=10)
        loop = TMACKernel(qw, TMACConfig(bits=4, executor="loop")).matmul(a)
        parallel = TMACKernel(qw, TMACConfig(
            bits=4, executor="parallel", num_threads=3,
            parallel_threshold=0)).matmul(a)
        np.testing.assert_array_equal(loop, parallel)

    def test_parity_with_shared_external_table(self):
        """Workers consume a shared read-only LUT, like the serving path."""
        qw1 = quantize_weights(gaussian_weights(64, 128, seed=11), bits=4,
                               group_size=32)
        qw2 = quantize_weights(gaussian_weights(96, 128, seed=12), bits=4,
                               group_size=32)
        a = gaussian_activation(2, 128, seed=13)
        config = TMACConfig(bits=4, executor="parallel", num_threads=4,
                            parallel_threshold=0)
        k1, k2 = TMACKernel(qw1, config), TMACKernel(qw2, config)
        table = k1.precompute(a)
        np.testing.assert_array_equal(k1.matmul_with_table(a, table),
                                      k1.matmul(a))
        np.testing.assert_array_equal(k2.matmul_with_table(a, table),
                                      k2.matmul(a))

    def test_parity_more_threads_than_tiles(self):
        """Thread counts beyond the tile count shard at tile granularity."""
        qw = quantize_weights(gaussian_weights(32, 64, seed=14), bits=2,
                              group_size=32)
        a = gaussian_activation(1, 64, seed=15)
        serial = TMACKernel(qw, TMACConfig(
            bits=2, executor="vectorized")).matmul(a)
        parallel = TMACKernel(qw, TMACConfig(
            bits=2, executor="parallel", num_threads=16,
            parallel_threshold=0)).matmul(a)
        np.testing.assert_array_equal(serial, parallel)


    @pytest.mark.parametrize("group_size", [32, 64, 128])
    def test_parity_across_group_sizes(self, group_size):
        qw = quantize_weights(gaussian_weights(96, 256, seed=16), bits=4,
                              group_size=group_size)
        a = gaussian_activation(2, 256, seed=17)
        serial = TMACKernel(qw, TMACConfig(
            bits=4, executor="vectorized")).matmul(a)
        parallel = TMACKernel(qw, TMACConfig(
            bits=4, executor="parallel", num_threads=3,
            parallel_threshold=0)).matmul(a)
        np.testing.assert_array_equal(serial, parallel)

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("threads", [2, 4])
    def test_numpy_integer_phase_parity_across_bits_and_threads(
            self, bits, threads):
        """The numpy fallback of the integer kernel shards bit-identically
        too (the host's native phase is covered above)."""
        qw = quantize_weights(gaussian_weights(96, 128, seed=bits + 60),
                              bits=bits, group_size=32)
        a = gaussian_activation(3, 128, seed=bits + 70)
        loop = TMACKernel(qw, TMACConfig(bits=bits,
                                         executor="loop")).matmul(a)
        config = TMACConfig(bits=bits, executor="parallel",
                            num_threads=threads, parallel_threshold=0)
        with native.force("numpy"):
            kernel = TMACKernel(qw, config)
            np.testing.assert_array_equal(kernel.matmul(a), loop)
        assert type(kernel.plan.specialized()) is IntegerLutKernel

    def test_parity_single_thread_is_serial_path(self):
        kernel, qw = make_kernel(seed=18, executor="parallel", num_threads=1,
                                 parallel_threshold=0)
        a = gaussian_activation(2, 128, seed=19)
        serial = TMACKernel(qw, TMACConfig(bits=4, executor="vectorized"))
        np.testing.assert_array_equal(serial.matmul(a), kernel.matmul(a))

    def test_repeated_calls_stay_bit_identical(self):
        """Reused per-thread buffers never perturb later results."""
        kernel, qw = make_kernel(seed=20, executor="parallel", num_threads=2,
                                 parallel_threshold=0)
        serial = TMACKernel(qw, TMACConfig(bits=4, executor="vectorized"))
        for step in range(4):
            a = gaussian_activation(1 + step, 128, seed=21 + step)
            np.testing.assert_array_equal(serial.matmul(a), kernel.matmul(a))


class TestShardingPolicy:
    def test_small_calls_fall_back_to_serial(self):
        reset_parallel_executor_stats()
        kernel, _ = make_kernel(executor="parallel", num_threads=4)
        # 1 x 96 x (128/4) = 3072 gather elements << default threshold.
        kernel.matmul(gaussian_activation(1, 128, seed=1))
        stats = parallel_executor_stats()
        assert stats["parallel_calls"] == 1
        assert stats["parallel_serial_fallbacks"] == 1
        assert stats["parallel_sharded_calls"] == 0

    def test_large_calls_shard(self):
        reset_parallel_executor_stats()
        kernel, _ = make_kernel(executor="parallel", num_threads=3,
                                parallel_threshold=0)
        kernel.matmul(gaussian_activation(2, 128, seed=2))
        stats = parallel_executor_stats()
        assert stats["parallel_sharded_calls"] == 1
        assert stats["parallel_shards_executed"] == 3

    @pytest.mark.parametrize("options", [
        dict(table_quantization=False),
        dict(lut_scale_granularity="fine"),
        dict(fast_aggregation=True),
        dict(table_quantization=False, mirror_consolidation=False),
    ], ids=["unquantized", "quantized_fine", "fast_aggregation",
            "unmirrored_float"])
    def test_ablation_modes_run_serial_oracle(self, options):
        """The pool shards only integer keys: an ablation table mode takes
        the serial fallback whatever the thread count and threshold, and
        equals the loop oracle bitwise."""
        reset_parallel_executor_stats()
        kernel, qw = make_kernel(seed=4, executor="parallel", num_threads=3,
                                 parallel_threshold=0, **options)
        a = gaussian_activation(2, 128, seed=5)
        out = kernel.matmul(a)
        stats = parallel_executor_stats()
        assert stats["parallel_serial_fallbacks"] == 1
        assert stats["parallel_sharded_calls"] == 0
        assert stats["parallel_shards_executed"] == 0
        oracle = TMACKernel(qw, kernel.config.with_options(executor="loop"))
        np.testing.assert_array_equal(out, oracle.matmul(a))

    def test_single_thread_stays_serial(self):
        reset_parallel_executor_stats()
        kernel, _ = make_kernel(executor="parallel", num_threads=1,
                                parallel_threshold=0)
        kernel.matmul(gaussian_activation(2, 128, seed=3))
        assert parallel_executor_stats()["parallel_sharded_calls"] == 0

    def test_default_threshold_exported(self):
        assert TMACConfig(bits=4).parallel_threshold == \
            DEFAULT_PARALLEL_THRESHOLD

    def test_worker_pools_are_persistent(self):
        assert get_worker_pool(2) is get_worker_pool(2)
        assert get_worker_pool(2) is not get_worker_pool(3)

    def test_resolve_threads(self):
        executor = get_executor("parallel")
        assert isinstance(executor, ParallelExecutor)
        assert executor.resolve_threads(
            TMACConfig(bits=4, num_threads=7)) == 7
        assert executor.resolve_threads(TMACConfig(bits=4)) >= 1


class TestStats:
    def test_snapshot_and_reset(self):
        reset_parallel_executor_stats()
        stats = parallel_executor_stats()
        for key in ("parallel_calls", "parallel_sharded_calls",
                    "parallel_serial_fallbacks", "parallel_shards_executed"):
            assert stats[key] == 0
        kernel, _ = make_kernel(seed=30, executor="parallel", num_threads=2,
                                parallel_threshold=0)
        kernel.matmul(gaussian_activation(2, 128, seed=31))
        after = parallel_executor_stats()
        assert after["parallel_calls"] == 1
        assert after["parallel_shards_executed"] == 2
        assert not any(key.startswith("process") for key in after)

    def test_parallel_stats_reset_is_atomic(self):
        reset_parallel_executor_stats()
        kernel, _ = make_kernel(seed=32, executor="parallel", num_threads=2,
                                parallel_threshold=0)
        kernel.matmul(gaussian_activation(2, 128, seed=33))
        assert parallel_executor_stats()["parallel_sharded_calls"] == 1
        reset_parallel_executor_stats()
        assert all(v == 0 for v in parallel_executor_stats().values())

    def test_stat_accessors_are_safe_during_dispatch(self):
        """Snapshots and resets from other threads while sharded calls run
        neither raise nor disturb the results."""
        import threading

        kernel, qw = make_kernel(seed=34, executor="parallel", num_threads=2,
                                 parallel_threshold=0)
        a = gaussian_activation(2, 128, seed=35)
        expected = TMACKernel(qw, TMACConfig(
            bits=4, executor="vectorized")).matmul(a)
        stop = threading.Event()
        errors = []

        def hammer():
            try:
                while not stop.is_set():
                    parallel_executor_stats()
                    reset_parallel_executor_stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                np.testing.assert_array_equal(kernel.matmul(a), expected)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        assert errors == []
        reset_parallel_executor_stats()
        kernel.matmul(a)
        assert parallel_executor_stats()["parallel_calls"] == 1


class TestOutputTiles:
    def test_tiles_cover_m_exactly_and_align(self):
        _, qw = make_kernel(m=96)
        plan = build_plan(qw, TMACConfig(bits=4))
        m_tm = plan.weights.tile_config.m_tm
        for num in (1, 2, 3, 5, 96):
            spans = plan.output_tiles(num)
            assert spans[0][0] == 0 and spans[-1][1] == plan.out_features
            for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
                assert a1 == b0  # contiguous, ordered
            for m0, m1 in spans[:-1]:
                assert m0 % m_tm == 0 and m1 % m_tm == 0

    def test_tiles_balanced_within_one_layout_tile(self):
        _, qw = make_kernel(m=160)
        plan = build_plan(qw, TMACConfig(bits=4))
        m_tm = plan.weights.tile_config.m_tm
        spans = plan.output_tiles(3)
        widths = [m1 - m0 for m0, m1 in spans]
        assert max(widths) - min(widths) <= m_tm

    def test_never_more_tiles_than_layout_units(self):
        _, qw = make_kernel(m=64)
        plan = build_plan(qw, TMACConfig(bits=4))
        m_tm = plan.weights.tile_config.m_tm
        assert len(plan.output_tiles(64)) == -(-64 // m_tm)

    def test_invalid_tile_count_rejected(self):
        _, qw = make_kernel()
        plan = build_plan(qw, TMACConfig(bits=4))
        with pytest.raises(ValueError):
            plan.output_tiles(0)


class TestConfigKnobs:
    def test_invalid_num_threads_rejected(self):
        with pytest.raises(ValueError):
            TMACConfig(bits=4, num_threads=0)
        with pytest.raises(ValueError):
            TMACConfig(bits=4, num_threads=-2)
        TMACConfig(bits=4, num_threads=None)
        TMACConfig(bits=4, num_threads=8)

    def test_invalid_parallel_threshold_rejected(self):
        with pytest.raises(ValueError):
            TMACConfig(bits=4, parallel_threshold=-1)
        TMACConfig(bits=4, parallel_threshold=0)

    def test_env_overrides_executor_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "parallel")
        monkeypatch.setenv("REPRO_NUM_THREADS", "2")
        config = TMACConfig(bits=4)
        assert config.executor == "parallel"
        assert config.num_threads == 2
        monkeypatch.setenv("REPRO_NUM_THREADS", "not-a-number")
        with pytest.raises(ValueError):
            TMACConfig(bits=4)

    def test_env_default_is_vectorized(self, monkeypatch):
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        monkeypatch.delenv("REPRO_NUM_THREADS", raising=False)
        config = TMACConfig(bits=4)
        assert config.executor == "vectorized"
        assert config.num_threads is None


class TestBackendPlumbing:
    def test_backend_executor_kwargs(self, monkeypatch):
        from repro.backends import get_backend

        backend = get_backend("tmac", bits=4, group_size=32,
                              executor="parallel", num_threads=2)
        assert backend.config.executor == "parallel"
        assert backend.config.num_threads == 2
        # num_threads alone implies the parallel executor — but only when
        # no executor was chosen anywhere (kwarg, config, environment).
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        implied = get_backend("tmac", bits=4, num_threads=3)
        assert implied.config.executor == "parallel"
        assert implied.config.num_threads == 3
        # tmac-fa keeps lossy aggregation alongside the executor choice.
        fa = get_backend("tmac-fa", bits=4, executor="parallel")
        assert fa.config.fast_aggregation
        assert fa.config.executor == "parallel"
        # An explicitly supplied config's executor is never overridden by
        # a bare num_threads (the loop oracle stays the loop oracle).
        pinned = get_backend("tmac", config=TMACConfig(bits=4,
                                                       executor="loop"),
                             num_threads=2)
        assert pinned.config.executor == "loop"
        assert pinned.config.num_threads == 2
        # ...and neither is an executor selected via REPRO_EXECUTOR.
        monkeypatch.setenv("REPRO_EXECUTOR", "loop")
        env_pinned = get_backend("tmac", bits=4, num_threads=2)
        assert env_pinned.config.executor == "loop"
        assert env_pinned.config.num_threads == 2

    def test_backend_linear_outputs_match_serial(self):
        from repro.backends import get_backend

        w = gaussian_weights(96, 128, seed=21)
        x = gaussian_activation(4, 128, seed=22)
        serial = get_backend("tmac", bits=4, group_size=32,
                             executor="vectorized").make_linear(w)
        parallel = get_backend(
            "tmac", bits=4, group_size=32, executor="parallel",
            num_threads=4).make_linear(w)
        # Force sharding regardless of size via a zero threshold.
        parallel.kernel.config = parallel.kernel.config.with_options(
            parallel_threshold=0)
        np.testing.assert_array_equal(serial(x), parallel(x))
