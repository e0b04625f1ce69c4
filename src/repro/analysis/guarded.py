"""The repo-specific invariant registry that drives ``repro_lint``.

This is deliberately *data*, not code: the checkers in
:mod:`repro.analysis.checkers` are generic AST machinery, and everything
they know about this codebase — which classes guard which attributes with
which lock, which constructors publish frozen plan artifacts, which calls
count as freezing, which packages are deterministic hot paths — lives
here, in one reviewable place.  A new guarded structure or plan-artifact
type is enforced by adding one registry entry, not by writing a checker.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Tuple

__all__ = [
    "GUARDED_ATTRS",
    "LOCKED_SUFFIX",
    "CONSTRUCTOR_METHODS",
    "PLAN_ARTIFACT_CONSTRUCTORS",
    "PLAN_OBJECT_NAMES",
    "PLAN_BUILD_FUNCTIONS",
    "PLAN_BUILD_METHODS",
    "FREEZING_NAME_FRAGMENT",
    "DETERMINISM_SCOPES",
    "FUTURE_SCOPED_FILES",
]

# --------------------------------------------------------------------- #
# lock-guard
# --------------------------------------------------------------------- #

#: class name -> (lock attribute, attributes only touched under that lock).
#: Scope: accesses *inside the owning class*.  Within the class an access
#: is legal in ``__init__`` (construction happens-before publication),
#: lexically inside ``with self.<lock>:``, or in a method whose name ends
#: with ``_locked`` (the caller-holds-the-lock convention).
GUARDED_ATTRS: Dict[str, Tuple[str, FrozenSet[str]]] = {
    # core/plan.py — the single-flight plan cache and the lazy kernel build
    "PlanCache": ("_lock", frozenset({
        "_plans", "_building", "hits", "misses",
    })),
    "KernelPlan": ("_build_lock", frozenset({"_integer_kernel"})),
    # core/specialize.py — the atomic stats block behind executor and
    # specialization counters (re-exported by core/executor.py)
    "_StatsBlock": ("_lock", frozenset({"_counts"})),
    # server/queue.py — gateway admission bookkeeping
    "RequestLifecycle": ("_lock", frozenset({
        "_in_flight", "_mean_service_s", "admitted_total", "rejected_total",
    })),
    # server/runner.py — pending-submit count shared by loop + callers
    "EngineRunner": ("_pending_lock", frozenset({"_pending_submits"})),
    # server/metrics.py — scrape-vs-sample races
    "Counter": ("_lock", frozenset({"_values"})),
    "Gauge": ("_lock", frozenset({"_value"})),
    "Histogram": ("_lock", frozenset({"_bucket_counts", "_count", "_sum"})),
}

#: Methods named ``*_locked`` assert "my caller holds the lock" — the
#: lock-guard rule trusts the convention instead of cross-function
#: analysis.  The linter still flags a ``*_locked`` method called without
#: the lock indirectly via the attributes the *caller* touches.
LOCKED_SUFFIX = "_locked"

#: Methods where unguarded access is construction, not sharing.
CONSTRUCTOR_METHODS = frozenset({"__init__", "__post_init__", "__new__"})

# --------------------------------------------------------------------- #
# frozen-plan
# --------------------------------------------------------------------- #

#: Constructors that publish plan artifacts: every numpy array passed in
#: must be frozen (``setflags(write=False)``) in the same function.
PLAN_ARTIFACT_CONSTRUCTORS = frozenset({
    "PreprocessedWeights",  # core/weights.py — offline weight operand
    "NativeLutKernel",      # core/specialize.py — compiled integer LUT kernel
})

#: Parameter/variable names the attribute-write check treats as plan
#: objects wherever they appear (the codebase-wide convention).
PLAN_OBJECT_NAMES = frozenset({"plan", "kernel_plan"})

#: Free functions allowed to build/assign plan state.
PLAN_BUILD_FUNCTIONS = frozenset({"build_plan"})

#: ``KernelPlan`` methods that are part of the offline build phase
#: (everything else must treat the plan as immutable).
PLAN_BUILD_METHODS = frozenset({
    "__init__", "__post_init__", "_build_specialized_locked",
})

#: A call whose name contains this counts as freeze evidence inside a
#: function, besides ``setflags`` (with ``write=False``).
FREEZING_NAME_FRAGMENT = "freeze"

# --------------------------------------------------------------------- #
# determinism
# --------------------------------------------------------------------- #

#: Path fragments marking deterministic hot paths: no wall-clock time, no
#: global/unseeded rngs — clocks and generators must be injected.
DETERMINISM_SCOPES = ("repro/core/", "repro/serving/", "repro/kvcache/")

# --------------------------------------------------------------------- #
# no-swallowed-futures
# --------------------------------------------------------------------- #

#: File basenames where every ``concurrent.futures`` result must be
#: consumed or explicitly discarded (``_`` / ``_discard*`` names).
FUTURE_SCOPED_FILES = frozenset({"executor.py", "runner.py"})
