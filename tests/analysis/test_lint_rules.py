"""Per-rule good/bad fixture snippets for ``repro_lint``.

Each rule gets at least one *bad* snippet proving it fires and one *good*
snippet proving the blessed idiom stays quiet — the linter is a CI gate,
so both directions are load-bearing.
"""

from __future__ import annotations

import textwrap

from repro.analysis.lint import lint_source


def run(path: str, source: str, rule: str):
    """Active findings of ``rule`` for a snippet."""
    findings = lint_source(path, textwrap.dedent(source))
    return [f for f in findings if f.rule == rule and not f.suppressed]


# --------------------------------------------------------------------- #
# frozen-plan
# --------------------------------------------------------------------- #

class TestFrozenPlan:
    def test_unfrozen_artifact_constructor_fires(self):
        bad = """
            def build(planes):
                return NativeLutKernel(gpq=2, nibbles=planes)
        """
        assert len(run("x.py", bad, "frozen-plan")) == 1

    def test_setflags_evidence_passes(self):
        good = """
            def build(planes):
                for arr in planes:
                    arr.setflags(write=False)
                return NativeLutKernel(gpq=2, nibbles=planes)
        """
        assert run("x.py", good, "frozen-plan") == []

    def test_setflags_write_true_is_not_evidence(self):
        bad = """
            def build(planes):
                planes[0].setflags(write=True)
                return PreprocessedWeights(index_planes=planes)
        """
        assert len(run("x.py", bad, "frozen-plan")) == 1

    def test_freeze_helper_counts_as_evidence(self):
        good = """
            def build(qw):
                qw.freeze()
                return PreprocessedWeights(index_planes=qw.codes)
        """
        assert run("x.py", good, "frozen-plan") == []

    def test_view_helper_is_not_evidence(self):
        """Only ``setflags(write=False)`` or a ``*freeze*`` call counts: a
        buffer view handed straight to an artifact constructor fires."""
        bad = """
            def rebuild(buf, spec):
                arr = _view(buf, spec)
                return NativeLutKernel(gpq=2, nibbles=arr)
        """
        assert len(run("x.py", bad, "frozen-plan")) == 1

    def test_plan_write_outside_build_fires(self):
        bad = """
            def poke(plan):
                plan.weights.scales[0] = 1.0
        """
        assert len(run("x.py", bad, "frozen-plan")) == 1

    def test_plan_write_inside_build_plan_passes(self):
        good = """
            def build_plan(qw, config):
                plan.checksum = compute(qw)
        """
        assert run("x.py", good, "frozen-plan") == []

    def test_kernel_plan_self_assign_outside_build_fires(self):
        bad = """
            class KernelPlan:
                def rewire(self):
                    self.transform = None
        """
        assert len(run("x.py", bad, "frozen-plan")) == 1

    def test_kernel_plan_init_assign_passes(self):
        good = """
            class KernelPlan:
                def __post_init__(self):
                    self.checksum = 0
        """
        assert run("x.py", good, "frozen-plan") == []


# --------------------------------------------------------------------- #
# lock-guard
# --------------------------------------------------------------------- #

class TestLockGuard:
    def test_unlocked_access_fires(self):
        bad = """
            class PlanCache:
                def peek(self, key):
                    return self._plans.get(key)
        """
        findings = run("x.py", bad, "lock-guard")
        assert len(findings) == 1
        assert findings[0].symbol == "PlanCache._plans"

    def test_with_lock_access_passes(self):
        good = """
            class PlanCache:
                def peek(self, key):
                    with self._lock:
                        return self._plans.get(key)
        """
        assert run("x.py", good, "lock-guard") == []

    def test_init_and_locked_methods_pass(self):
        good = """
            class PlanCache:
                def __init__(self):
                    self._plans = {}

                def _evict_locked(self):
                    self._plans.clear()
        """
        assert run("x.py", good, "lock-guard") == []

    def test_nested_def_resets_with_context(self):
        # A closure defined under the lock runs later, maybe after the
        # lock is released — the with-context must not leak into it.
        bad = """
            class PlanCache:
                def schedule(self, pool):
                    with self._lock:
                        def later():
                            self._plans.clear()
                        pool.submit(later)
        """
        assert len(run("x.py", bad, "lock-guard")) == 1

    def test_wrong_lock_does_not_guard(self):
        bad = """
            class KernelPlan:
                def peek(self):
                    with self._other_lock:
                        return self._integer_kernel
        """
        assert len(run("x.py", bad, "lock-guard")) == 1

    def test_unregistered_class_ignored(self):
        good = """
            class Unrelated:
                def peek(self):
                    return self._plans
        """
        assert run("x.py", good, "lock-guard") == []


# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #

HOT = "src/repro/core/hot.py"


class TestDeterminism:
    def test_wall_clock_fires_in_scope(self):
        bad = """
            def stamp():
                return time.time()
        """
        assert len(run(HOT, bad, "determinism")) == 1

    def test_monotonic_clock_passes(self):
        good = """
            def stamp(clock=time.monotonic):
                return clock() + time.perf_counter()
        """
        assert run(HOT, good, "determinism") == []

    def test_global_random_fires(self):
        bad = """
            def jitter():
                return random.random()
        """
        assert len(run(HOT, bad, "determinism")) == 1

    def test_random_import_fires(self):
        bad = """
            from random import shuffle
        """
        assert len(run(HOT, bad, "determinism")) == 1

    def test_unseeded_np_rng_fires_seeded_passes(self):
        bad = """
            def noise(shape):
                return np.random.rand(*shape) + np.random.default_rng()
        """
        assert len(run(HOT, bad, "determinism")) == 2
        good = """
            def noise(shape, seed):
                return np.random.default_rng(seed).normal(size=shape)
        """
        assert run(HOT, good, "determinism") == []

    def test_out_of_scope_path_ignored(self):
        source = """
            def stamp():
                return time.time()
        """
        assert run("src/repro/workloads/gen.py", source, "determinism") == []


# --------------------------------------------------------------------- #
# no-swallowed-futures
# --------------------------------------------------------------------- #

class TestNoSwallowedFutures:
    def test_dropped_submit_expression_fires(self):
        bad = """
            def go(pool, work):
                pool.submit(work)
        """
        assert len(run("executor.py", bad, "no-swallowed-futures")) == 1

    def test_unconsumed_binding_fires(self):
        bad = """
            def go(pool, work):
                fut = pool.submit(work)
        """
        assert len(run("runner.py", bad, "no-swallowed-futures")) == 1

    def test_consumed_futures_pass(self):
        good = """
            def go(pool, spans):
                futures = [pool.submit(run, s) for s in spans]
                for future in futures:
                    future.result()

            def ship(pool, work):
                fut = pool.submit(work)
                return fut
        """
        assert run("executor.py", good, "no-swallowed-futures") == []

    def test_explicit_discard_passes(self):
        good = """
            def fire_and_forget(pool, work):
                _ = pool.submit(work)
        """
        assert run("executor.py", good, "no-swallowed-futures") == []

    def test_other_files_ignored(self):
        source = """
            def go(pool, work):
                pool.submit(work)
        """
        assert run("engine.py", source, "no-swallowed-futures") == []
