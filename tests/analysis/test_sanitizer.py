"""Runtime sanitizer tests: lock-order graph, patched locks, plan canary.

Everything here uses *isolated* ``LockOrderGraph`` / ``PlanCanaryRegistry``
instances (never the globals), so deliberately-provoked inversions and
canary trips cannot pollute the session-wide gate in ``conftest.py`` when
the suite itself runs under ``REPRO_SANITIZE=1``.
"""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.analysis import sanitizer
from repro.analysis.sanitizer import (
    LockOrderGraph,
    LockOrderInversionError,
    PlanCanaryRegistry,
    PlanMutationError,
    _SanitizedLock,
)
from repro.core import native
from repro.core.config import TMACConfig
from repro.core.executor import get_executor
from repro.core.plan import build_plan
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights


class TestLockOrderGraph:
    def test_consistent_order_has_no_inversion(self):
        graph = LockOrderGraph()
        graph.record("a.py:1", "b.py:2")
        graph.record("b.py:2", "c.py:3")
        graph.record("a.py:1", "c.py:3")
        assert graph.inversions() == []
        assert graph.edge_count() == 3

    def test_two_lock_inversion_detected(self):
        graph = LockOrderGraph()
        graph.record("a.py:1", "b.py:2")
        graph.record("b.py:2", "a.py:1")
        (inv,) = graph.inversions()
        held, new, path = inv
        assert (held, new) == ("b.py:2", "a.py:1")

    def test_transitive_inversion_detected(self):
        # a -> b, b -> c, then c -> a closes a 3-cycle.
        graph = LockOrderGraph()
        graph.record("a", "b")
        graph.record("b", "c")
        graph.record("c", "a")
        assert len(graph.inversions()) == 1

    def test_inversion_reported_once_per_edge_pair(self):
        graph = LockOrderGraph()
        graph.record("a", "b")
        graph.record("b", "a")
        graph.record("b", "a")  # repeat observation, not a new inversion
        assert len(graph.inversions()) == 1

    def test_same_site_edges_ignored(self):
        graph = LockOrderGraph()
        graph.record("a.py:1", "a.py:1")
        assert graph.edge_count() == 0
        assert graph.inversions() == []

    def test_raise_mode_raises_at_the_closing_edge(self):
        graph = LockOrderGraph(raise_on_inversion=True)
        graph.record("a", "b")
        with pytest.raises(LockOrderInversionError, match="inversion"):
            graph.record("b", "a")

    def test_render_is_stable_and_diffable(self):
        graph = LockOrderGraph()
        graph.record("b", "c")
        graph.record("a", "b")
        text = graph.render()
        assert text.index("a -> b") < text.index("b -> c")
        assert "# inversions: 0" in text

    def test_reset_clears_everything(self):
        graph = LockOrderGraph()
        graph.record("a", "b")
        graph.record("b", "a")
        graph.reset()
        assert graph.edge_count() == 0
        assert graph.inversions() == []


class TestSanitizedLock:
    def test_opposite_acquisition_orders_recorded_as_inversion(self):
        graph = LockOrderGraph()
        lock_a = _SanitizedLock("site-a", graph)
        lock_b = _SanitizedLock("site-b", graph)
        with lock_a:
            with lock_b:
                pass
        with lock_b:
            with lock_a:
                pass
        assert len(graph.inversions()) == 1

    def test_trylock_never_contributes_edges(self):
        graph = LockOrderGraph()
        lock_a = _SanitizedLock("site-a", graph)
        lock_b = _SanitizedLock("site-b", graph)
        with lock_a:
            assert lock_b.acquire(blocking=False)
            lock_b.release()
        with lock_b:
            with lock_a:
                pass
        # Only the blocking b->a edge exists; no inversion from the trylock.
        assert graph.edge_count() == 1
        assert graph.inversions() == []

    def test_held_stack_survives_out_of_order_release(self):
        graph = LockOrderGraph()
        lock_a = _SanitizedLock("site-a", graph)
        lock_b = _SanitizedLock("site-b", graph)
        lock_c = _SanitizedLock("site-c", graph)
        lock_a.acquire()
        lock_b.acquire()
        lock_a.release()  # hand-over-hand: a released before b
        lock_c.acquire()  # must record b->c (b is the innermost held)
        lock_c.release()
        lock_b.release()
        assert graph.edge_count() == 2  # a->b and b->c
        assert graph.inversions() == []

    def test_cross_thread_isolation(self):
        # Held stacks are thread-local: another thread's held lock must
        # not fabricate an ordering edge for this thread.  Sequencing
        # uses raw (unpatched) locks, and the thread starts/joins outside
        # the held region, so when the whole suite runs sanitized no
        # fixture edge leaks into the session-wide graph snapshot.
        graph = LockOrderGraph()
        lock_a = _SanitizedLock("site-a", graph)
        lock_b = _SanitizedLock("site-b", graph)
        gate = sanitizer._REAL_LOCK()
        done = sanitizer._REAL_LOCK()
        gate.acquire()
        done.acquire()

        def other():
            gate.acquire()  # wait until the main thread holds lock_a
            with lock_b:
                pass
            done.release()

        thread = threading.Thread(target=other)
        thread.start()
        with lock_a:
            gate.release()
            done.acquire()  # raw lock: no ordering edge recorded
        thread.join()
        assert graph.edge_count() == 0

    def test_behaves_like_a_lock(self):
        lock = _SanitizedLock("site", LockOrderGraph())
        assert not lock.locked()
        with lock:
            assert lock.locked()
            assert not lock.acquire(blocking=False)
        assert not lock.locked()

    def test_install_is_inert_when_disabled(self, monkeypatch):
        monkeypatch.setattr(sanitizer, "_ENABLED", False)
        monkeypatch.setattr(sanitizer, "_installed", False)
        real = threading.Lock
        try:
            assert sanitizer.install() is False
            assert threading.Lock is real
        finally:
            monkeypatch.setattr(sanitizer, "_installed", False)


class _FakeWeights:
    def __init__(self, rng):
        self.packed = rng.integers(0, 256, size=(4, 16, 16)).astype("u1")
        self.scales_t = rng.normal(size=(4, 8)).astype(np.float32)
        self.sz_t = rng.normal(size=(4, 8)).astype(np.float32)


class _FakePlan:
    def __init__(self, seed=0):
        self.weights = _FakeWeights(np.random.default_rng(seed))


class TestPlanCanary:
    def test_clean_dispatch_passes(self):
        registry = PlanCanaryRegistry()
        plan = _FakePlan()
        with registry.canary(plan):
            _ = plan.weights.scales_t.sum()
        assert registry.trips == 0
        assert registry.tracked() == 1

    def test_mutation_trips(self):
        registry = PlanCanaryRegistry()
        plan = _FakePlan()
        with pytest.raises(PlanMutationError, match="weights.scales_t"):
            with registry.canary(plan):
                plan.weights.scales_t[0, 0] += 1.0
        assert registry.trips == 1

    def test_trip_survives_an_in_dispatch_exception(self):
        # The canary checks in a finally block: a dispatch that raises
        # AND corrupted the plan must still surface the corruption.
        registry = PlanCanaryRegistry()
        plan = _FakePlan()
        with pytest.raises(PlanMutationError):
            with registry.canary(plan):
                plan.weights.sz_t[0, 0] = 42.0
                raise RuntimeError("worker died")
        assert registry.trips == 1

    def test_lazily_built_artifacts_extend_baseline(self):
        """The numpy integer kernel's planes appear mid-dispatch (the
        plan's lazy compile): publication, not mutation.  Once known, a
        write to them trips the canary on the next dispatch."""
        registry = PlanCanaryRegistry()
        qw = quantize_weights(gaussian_weights(32, 128, seed=15), bits=2,
                              group_size=32)
        cfg = TMACConfig(bits=2)
        plan = build_plan(qw, cfg)
        executor = get_executor("vectorized")
        activation = gaussian_activation(2, 128, seed=16)
        table = plan.precompute(activation, cfg)
        with native.force("numpy"), registry.canary(plan):
            executor.matmul_with_table(plan, table, cfg, activation)
        assert registry.trips == 0

        planes = plan._integer_kernel.planes
        planes.setflags(write=True)
        try:
            with pytest.raises(PlanMutationError, match="kernel.planes"):
                with registry.canary(plan):
                    executor.matmul_with_table(plan, table, cfg, activation)
                    planes[0, 0, 0, 0] ^= 1
        finally:
            planes[0, 0, 0, 0] ^= 1
            planes.setflags(write=False)
        assert registry.trips == 1

    def test_real_plan_mutation_trips_through_executor(self):
        """End-to-end: a real KernelPlan, a real executor dispatch, and a
        deliberate artifact mutation mid-flight must trip the canary."""
        registry = PlanCanaryRegistry()
        qw = quantize_weights(gaussian_weights(32, 128, seed=10), bits=2,
                              group_size=32)
        cfg = TMACConfig(bits=2)
        plan = build_plan(qw, cfg)
        executor = get_executor(cfg.executor)
        activation = gaussian_activation(2, 128, seed=11)
        table = plan.precompute(activation, cfg)

        with registry.canary(plan):
            executor.matmul_with_table(plan, table, cfg, activation)
        assert registry.trips == 0

        scales = plan.weights.scales_t
        scales.setflags(write=True)
        try:
            with pytest.raises(PlanMutationError, match="weights.scales_t"):
                with registry.canary(plan):
                    executor.matmul_with_table(plan, table, cfg, activation)
                    scales[0, 0] += 0.5
        finally:
            scales[0, 0] -= 0.5
            scales.setflags(write=False)
        assert registry.trips == 1

    def test_flipped_packed_nibble_trips_through_executor(self):
        """The canary checksums the stored packed indices, not index planes
        derived from them: one nibble flipped through a writable alias of
        the plan's array trips it."""
        registry = PlanCanaryRegistry()
        qw = quantize_weights(gaussian_weights(32, 128, seed=13), bits=4,
                              group_size=32)
        cfg = TMACConfig(bits=4)
        plan = build_plan(qw, cfg)
        executor = get_executor(cfg.executor)
        activation = gaussian_activation(2, 128, seed=14)
        table = plan.precompute(activation, cfg)
        with registry.canary(plan):
            executor.matmul_with_table(plan, table, cfg, activation)

        # A view taken while the array was briefly writable stays
        # writable after the plan's array is frozen again.
        packed = plan.weights.packed
        packed.setflags(write=True)
        alias = packed.reshape(-1)
        packed.setflags(write=False)
        try:
            with pytest.raises(PlanMutationError, match="weights.packed"):
                with registry.canary(plan):
                    executor.matmul_with_table(plan, table, cfg, activation)
                    alias[5] ^= 0x0F
        finally:
            alias[5] ^= 0x0F
        assert not packed.flags.writeable
        assert registry.trips == 1

    def test_frozen_plans_make_accidental_mutation_impossible(self):
        qw = quantize_weights(gaussian_weights(32, 128, seed=12), bits=2,
                              group_size=32)
        plan = build_plan(qw, TMACConfig(bits=2))
        with pytest.raises(ValueError):
            plan.weights.scales_t[0, 0] = 1.0

    def test_stats_shape(self):
        report = sanitizer.stats()
        for key in ("enabled", "lock_order_edges", "lock_order_inversions",
                    "canary_trips", "plans_tracked"):
            assert key in report
