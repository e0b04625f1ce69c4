"""Process executor: bit-identity, shm lifecycle, fault paths, knobs."""

import gc

import numpy as np
import pytest

from repro.core import shm
from repro.core.config import TMACConfig, usable_cpus
from repro.core.executor import (
    ExecutorWorkerError,
    ProcessExecutor,
    get_executor,
    process_executor_stats,
    reset_process_executor_stats,
)
from repro.core.kernel import TMACKernel
from repro.core.plan import PlanCache, build_plan
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights

pytestmark = pytest.mark.skipif(
    not shm.shm_available(), reason="shared memory unavailable on this host"
)


@pytest.fixture(autouse=True)
def no_segment_leaks():
    """Every test must leave zero *new* published plan segments behind.

    Kernels (and therefore plans) built inside a test are locals; once the
    test returns and they are collected, the registry's finalizers must
    unlink every segment they published.  The assertion is against the
    pre-test baseline, not zero: when the whole suite runs, other modules
    (e.g. pytest-benchmark fixtures holding a kernel closure until the
    session-end report) may legitimately keep plans — and hence segments —
    alive across this file.
    """
    gc.collect()
    baseline = shm.PLAN_SEGMENTS.stats()["segments"]
    yield
    gc.collect()
    stats = shm.PLAN_SEGMENTS.stats()
    assert stats["segments"] <= baseline, f"leaked plan segments: {stats}"


def make_kernels(bits=4, m=96, k=128, group_size=32, seed=0, workers=2,
                 **options):
    """A (serial, process) kernel pair over the same quantized weights."""
    qw = quantize_weights(gaussian_weights(m, k, seed=seed), bits=bits,
                          group_size=group_size)
    serial = TMACKernel(qw, TMACConfig(bits=bits, executor="vectorized",
                                       **options))
    process = TMACKernel(qw, TMACConfig(bits=bits, executor="process",
                                        num_workers=workers,
                                        parallel_threshold=0, **options))
    return serial, process


class TestBitIdentity:
    """The process-pool result must equal the serial result bitwise."""

    @pytest.mark.parametrize("bits", [1, 2, 3, 4])
    @pytest.mark.parametrize("workers", [2, 4])
    def test_parity_across_bits_and_workers(self, bits, workers):
        serial, process = make_kernels(bits=bits, seed=bits, workers=workers)
        a = gaussian_activation(3, 128, seed=bits + 50)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))

    def test_parity_single_worker_is_serial_path(self):
        serial, process = make_kernels(workers=1, seed=5)
        a = gaussian_activation(2, 128, seed=6)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))

    @pytest.mark.parametrize("options", [
        dict(fast_aggregation=True),
        dict(lut_scale_granularity="fine"),
        dict(table_quantization=False, act_dtype="float32"),
        dict(mirror_consolidation=False),
    ])
    def test_parity_across_table_modes(self, options):
        serial, process = make_kernels(bits=3, m=64, seed=7, workers=4,
                                       **options)
        a = gaussian_activation(2, 128, seed=8)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))

    @pytest.mark.parametrize("group_size", [32, 64, 128])
    def test_parity_across_group_sizes(self, group_size):
        serial, process = make_kernels(bits=4, m=96, k=256,
                                       group_size=group_size, seed=9,
                                       workers=3)
        a = gaussian_activation(2, 256, seed=10)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))

    def test_parity_against_loop_oracle(self):
        qw = quantize_weights(gaussian_weights(96, 128, seed=11), bits=4,
                              group_size=64)
        a = gaussian_activation(2, 128, seed=12)
        loop = TMACKernel(qw, TMACConfig(bits=4, executor="loop")).matmul(a)
        process = TMACKernel(qw, TMACConfig(
            bits=4, executor="process", num_workers=3,
            parallel_threshold=0)).matmul(a)
        np.testing.assert_array_equal(loop, process)

    def test_parity_with_shared_external_table(self):
        """Workers consume a shared read-only LUT, like the serving path."""
        qw1 = quantize_weights(gaussian_weights(64, 128, seed=13), bits=4,
                               group_size=32)
        qw2 = quantize_weights(gaussian_weights(96, 128, seed=14), bits=4,
                               group_size=32)
        a = gaussian_activation(2, 128, seed=15)
        config = TMACConfig(bits=4, executor="process", num_workers=4,
                            parallel_threshold=0)
        k1, k2 = TMACKernel(qw1, config), TMACKernel(qw2, config)
        table = k1.precompute(a)
        np.testing.assert_array_equal(k1.matmul_with_table(a, table),
                                      k1.matmul(a))
        np.testing.assert_array_equal(k2.matmul_with_table(a, table),
                                      k2.matmul(a))

    def test_parity_more_workers_than_tiles(self):
        qw = quantize_weights(gaussian_weights(32, 64, seed=16), bits=2,
                              group_size=32)
        a = gaussian_activation(1, 64, seed=17)
        serial = TMACKernel(qw, TMACConfig(
            bits=2, executor="vectorized")).matmul(a)
        process = TMACKernel(qw, TMACConfig(
            bits=2, executor="process", num_workers=16,
            parallel_threshold=0)).matmul(a)
        np.testing.assert_array_equal(serial, process)

    def test_repeated_calls_reuse_arena_bit_identically(self):
        """Arena reuse across calls must never perturb results."""
        serial, process = make_kernels(seed=18, workers=2)
        for step in range(4):
            a = gaussian_activation(2, 128, seed=20 + step)
            np.testing.assert_array_equal(serial.matmul(a),
                                          process.matmul(a))


class TestDispatchPolicy:
    def test_small_calls_fall_back_to_serial(self):
        reset_process_executor_stats()
        qw = quantize_weights(gaussian_weights(96, 128, seed=1), bits=4,
                              group_size=32)
        kernel = TMACKernel(qw, TMACConfig(bits=4, executor="process",
                                           num_workers=4))
        # 1 x 96 x (128/4) = 3072 gather elements << default threshold.
        kernel.matmul(gaussian_activation(1, 128, seed=1))
        stats = process_executor_stats()
        assert stats["process_calls"] == 1
        assert stats["process_serial_fallbacks"] == 1
        assert stats["process_dispatches"] == 0

    def test_explicit_workers_pin_the_process_pool(self):
        reset_process_executor_stats()
        _, process = make_kernels(seed=2, workers=2)
        process.matmul(gaussian_activation(2, 128, seed=3))
        stats = process_executor_stats()
        assert stats["process_dispatches"] == 1
        assert stats["process_thread_delegations"] == 0
        assert stats["process_shards_executed"] == 2

    def test_auto_workers_delegate_small_shapes_to_threads(self):
        """With num_workers unset, the cost model's IPC term routes tiny
        above-threshold shapes to the thread pool."""
        reset_process_executor_stats()
        qw = quantize_weights(gaussian_weights(96, 128, seed=4), bits=4,
                              group_size=32)
        kernel = TMACKernel(qw, TMACConfig(bits=4, executor="process",
                                           num_workers=None,
                                           parallel_threshold=0))
        serial = TMACKernel(qw, TMACConfig(bits=4, executor="vectorized"))
        a = gaussian_activation(2, 128, seed=5)
        np.testing.assert_array_equal(serial.matmul(a), kernel.matmul(a))
        stats = process_executor_stats()
        if shm.multiprocessing is None or usable_cpus() < 2:
            assert stats["process_serial_fallbacks"] == 1
        else:
            assert stats["process_thread_delegations"] == 1
            assert stats["process_dispatches"] == 0

    def test_disable_shm_env_falls_back_serially(self, monkeypatch):
        monkeypatch.setenv("REPRO_DISABLE_SHM", "1")
        assert not shm.shm_available()
        reset_process_executor_stats()
        serial, process = make_kernels(seed=6, workers=4)
        a = gaussian_activation(2, 128, seed=7)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))
        stats = process_executor_stats()
        assert stats["process_serial_fallbacks"] == 1
        assert stats["process_dispatches"] == 0

    def test_resolve_workers(self):
        executor = get_executor("process")
        assert isinstance(executor, ProcessExecutor)
        assert executor.resolve_workers(
            TMACConfig(bits=4, num_workers=7)) == 7
        assert executor.resolve_workers(TMACConfig(bits=4)) >= 1

    def test_worker_pools_are_persistent(self):
        assert shm.get_process_pool(2) is shm.get_process_pool(2)
        assert shm.get_process_pool(2) is not shm.get_process_pool(3)


class TestConfigKnobs:
    def test_invalid_num_workers_rejected(self):
        with pytest.raises(ValueError):
            TMACConfig(bits=4, num_workers=0)
        with pytest.raises(ValueError):
            TMACConfig(bits=4, num_workers=-2)
        TMACConfig(bits=4, num_workers=None)
        TMACConfig(bits=4, num_workers=8)

    def test_env_overrides_defaults(self, monkeypatch):
        monkeypatch.setenv("REPRO_EXECUTOR", "process")
        monkeypatch.setenv("REPRO_NUM_WORKERS", "2")
        config = TMACConfig(bits=4)
        assert config.executor == "process"
        assert config.num_workers == 2
        monkeypatch.setenv("REPRO_NUM_WORKERS", "not-a-number")
        with pytest.raises(ValueError):
            TMACConfig(bits=4)

    def test_env_default_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_NUM_WORKERS", raising=False)
        assert TMACConfig(bits=4).num_workers is None


class TestBackendPlumbing:
    def test_num_workers_implies_process_executor(self, monkeypatch):
        from repro.backends import get_backend

        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        backend = get_backend("tmac", bits=4, group_size=32, num_workers=2)
        assert backend.config.executor == "process"
        assert backend.config.num_workers == 2
        # An explicit executor kwarg always wins.
        pinned = get_backend("tmac", bits=4, executor="vectorized",
                            num_workers=2)
        assert pinned.config.executor == "vectorized"
        assert pinned.config.num_workers == 2
        # ...and so does an executor selected via REPRO_EXECUTOR.
        monkeypatch.setenv("REPRO_EXECUTOR", "loop")
        env_pinned = get_backend("tmac", bits=4, num_workers=2)
        assert env_pinned.config.executor == "loop"
        assert env_pinned.config.num_workers == 2
        # tmac-fa keeps lossy aggregation alongside the executor choice.
        monkeypatch.delenv("REPRO_EXECUTOR", raising=False)
        fa = get_backend("tmac-fa", bits=4, executor="process",
                         num_workers=2)
        assert fa.config.fast_aggregation
        assert fa.config.executor == "process"


class TestStats:
    def test_snapshot_and_reset(self):
        reset_process_executor_stats()
        stats = process_executor_stats()
        for key in ("process_calls", "process_dispatches",
                    "process_serial_fallbacks", "process_thread_delegations",
                    "process_shards_executed", "process_worker_errors",
                    "process_shm_segments", "process_shm_bytes",
                    "process_worker_restarts"):
            assert key in stats
        assert stats["process_calls"] == 0
        _, process = make_kernels(seed=30, workers=2)
        process.matmul(gaussian_activation(2, 128, seed=31))
        after = process_executor_stats()
        assert after["process_calls"] == 1
        assert after["process_shm_segments"] >= 1
        assert after["process_shm_bytes"] > 0
        reset_process_executor_stats()
        cleared = process_executor_stats()
        assert cleared["process_calls"] == 0
        assert cleared["process_worker_restarts"] == 0

    def test_parallel_stats_reset_is_atomic(self):
        from repro.core.executor import (
            parallel_executor_stats,
            reset_parallel_executor_stats,
        )

        reset_parallel_executor_stats()
        qw = quantize_weights(gaussian_weights(96, 128, seed=32), bits=4,
                              group_size=32)
        kernel = TMACKernel(qw, TMACConfig(bits=4, executor="parallel",
                                           num_threads=2,
                                           parallel_threshold=0))
        kernel.matmul(gaussian_activation(2, 128, seed=33))
        assert parallel_executor_stats()["parallel_sharded_calls"] == 1
        reset_parallel_executor_stats()
        assert all(v == 0 for v in parallel_executor_stats().values())

    def test_pool_stat_accessors_are_safe_during_dispatch(self):
        """Regression (found by repro_lint): ``reset_stats`` and
        ``arena_bytes`` read/wrote pool state with no lock, racing the
        dispatch path's worker respawns and arena growth.  Hammer the
        accessors from other threads while calls run and assert nothing
        raises and the final counters are coherent."""
        import threading

        _, process = make_kernels(seed=34, workers=2)
        a = gaussian_activation(2, 128, seed=35)
        process.matmul(a)  # warm the pool + arena
        pool = shm.get_process_pool(2)
        stop = threading.Event()
        errors = []

        def hammer():
            try:
                while not stop.is_set():
                    pool.arena_bytes()
                    pool.restart_count()
                    pool.reset_stats()
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(3)]
        for thread in threads:
            thread.start()
        try:
            for _ in range(5):
                process.matmul(a)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=5.0)
        assert errors == []
        assert pool.arena_bytes() > 0
        pool.reset_stats()
        assert pool.restart_count() == 0


class TestFaultTolerance:
    def test_worker_killed_between_calls_respawns(self):
        reset_process_executor_stats()
        serial, process = make_kernels(seed=40, workers=2)
        a = gaussian_activation(2, 128, seed=41)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))
        shm.get_process_pool(2).debug_kill_worker(0)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))
        assert process_executor_stats()["process_worker_restarts"] >= 1

    def test_worker_killed_mid_dispatch_completes_bit_identically(self):
        """A crash marker queued ahead of the call's shards kills the
        worker while it drains its queue; the dispatcher must respawn it,
        resubmit the lost shards and still return the exact result."""
        reset_process_executor_stats()
        serial, process = make_kernels(seed=42, workers=2)
        a = gaussian_activation(2, 128, seed=43)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))
        shm.get_process_pool(2).debug_kill_worker(0, mid_dispatch=True)
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))
        assert process_executor_stats()["process_worker_restarts"] >= 1

    def test_unrecoverable_pool_raises_typed_error(self, monkeypatch):
        """With respawn disabled, a dead pool must raise ExecutorWorkerError
        (never hang) and the next call must recover on fresh workers."""
        serial, process = make_kernels(seed=44, workers=2)
        a = gaussian_activation(2, 128, seed=45)
        process.matmul(a)  # warm the pool
        pool = shm.get_process_pool(2)
        monkeypatch.setattr(pool, "max_retries", 0)
        for worker in pool._workers:
            worker.proc.terminate()
            worker.proc.join(timeout=5.0)
        monkeypatch.setattr(pool, "_ensure_workers_locked",
                            lambda count_restarts=True: None)
        with pytest.raises(ExecutorWorkerError):
            process.matmul(a)
        monkeypatch.undo()
        np.testing.assert_array_equal(serial.matmul(a), process.matmul(a))


class TestShmLifecycle:
    def test_publish_is_idempotent_per_plan(self):
        # Baseline-relative: other modules' live plans may hold segments
        # when the full suite runs (see the autouse fixture's docstring).
        base = shm.PLAN_SEGMENTS.stats()["segments"]
        qw = quantize_weights(gaussian_weights(64, 128, seed=50), bits=4,
                              group_size=32)
        plan = build_plan(qw, TMACConfig(bits=4))
        m1 = shm.PLAN_SEGMENTS.publish(plan, mirrored=True)
        m2 = shm.PLAN_SEGMENTS.publish(plan, mirrored=True)
        assert m1["segment"] == m2["segment"]
        assert shm.PLAN_SEGMENTS.stats()["segments"] == base + 1
        del plan
        gc.collect()
        assert shm.PLAN_SEGMENTS.stats()["segments"] == base

    def test_segments_unlinked_after_plan_cache_eviction(self):
        """A create/evict/create cycle must not leak segments."""
        from multiprocessing import shared_memory

        base = shm.PLAN_SEGMENTS.stats()["segments"]
        cache = PlanCache(max_entries=1)
        config = TMACConfig(bits=4)
        qw1 = quantize_weights(gaussian_weights(64, 128, seed=51), bits=4,
                               group_size=32)
        qw2 = quantize_weights(gaussian_weights(96, 128, seed=52), bits=4,
                               group_size=32)
        plan1 = cache.get(qw1, config)
        manifest1 = shm.PLAN_SEGMENTS.publish(plan1, mirrored=True)
        assert shm.PLAN_SEGMENTS.stats()["segments"] == base + 1
        cache.get(qw2, config)  # evicts plan1 from the cache
        del plan1
        gc.collect()
        assert shm.PLAN_SEGMENTS.stats()["segments"] == base
        # The segment is unlinked from the OS, not merely forgotten.
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=manifest1["segment"])
        # The re-created plan publishes a fresh segment without conflict.
        plan3 = cache.get(qw1, config)
        manifest3 = shm.PLAN_SEGMENTS.publish(plan3, mirrored=True)
        assert manifest3["segment"] != manifest1["segment"]
        del plan3
        cache.clear()
        gc.collect()
        assert shm.PLAN_SEGMENTS.stats()["segments"] == base

    def test_arena_grows_to_largest_call_and_is_reused(self):
        shm.shutdown_process_pools()
        _, small = make_kernels(seed=53, workers=2)
        small.matmul(gaussian_activation(1, 128, seed=54))
        pool = shm.get_process_pool(2)
        first = pool.arena_bytes()
        assert first > 0
        _, large = make_kernels(m=256, k=512, seed=55, workers=2)
        large.matmul(gaussian_activation(8, 512, seed=56))
        grown = pool.arena_bytes()
        assert grown >= first
        # A second small call reuses the grown arena (no reallocation).
        small.matmul(gaussian_activation(1, 128, seed=57))
        assert pool.arena_bytes() == grown
        assert shm.shm_registry_stats()["arena_segments"] == 1
        shm.shutdown_process_pools()
        assert shm.shm_registry_stats()["arena_bytes"] == 0
