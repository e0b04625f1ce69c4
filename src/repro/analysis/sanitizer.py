"""Runtime concurrency sanitizer: lock-order recording + plan canaries.

Enabled with ``REPRO_SANITIZE=1`` (see :func:`enabled`).  Two detectors:

**Lock-order graph.**  :func:`install` replaces :func:`threading.Lock`
with a wrapper that tags every lock with its creation site
(``file:line``) and records, per thread, the order in which lock *sites*
are acquired while other locks are held.  An edge ``A -> B`` means "a
thread blocked on a B-site lock while holding an A-site lock"; a cycle
in the site graph is a lock-order inversion — a potential deadlock even
if the run happened not to interleave badly.  Non-blocking acquires
(``acquire(False)`` / ``timeout=0``) hold but never add edges: a trylock
cannot participate in a deadlock cycle (this also keeps
``threading.Condition``'s internal ownership probe quiet).

**Plan-mutation canary.**  :func:`plan_canary` checksums a plan's
published artifacts (the packed weight indices, the scales and
scale*zero products, the numpy integer kernel's lazily built planes)
around an executor dispatch and raises :class:`PlanMutationError` if any
existing artifact's bytes drift —
plans are frozen and content-addressed, so drift means corruption.
Artifacts that *appear* during the dispatch (the lazy kernel compile) are
merged into the baseline, not flagged.

Environment knobs:

``REPRO_SANITIZE=1``
    Master switch; everything below is inert without it.
``REPRO_SANITIZE_LOCKORDER=raise``
    Raise :class:`LockOrderInversionError` at the acquire that closes a
    cycle (default: record only; tests assert the record is empty).
``REPRO_SANITIZE_GRAPH_OUT=<path>``
    Write the lock-order graph snapshot to ``<path>`` at interpreter
    exit (CI stores it; ``benchmarks/results/lock_order_graph.txt`` is
    the tracked snapshot).

Granularity is per creation *site*, not per lock instance — the classic
lockdep trade-off: orders generalize across instances (every
``PlanCache._lock`` is one node), at the cost of not modelling ordered
acquisition of two locks born at the same line.
"""

from __future__ import annotations

import atexit
import os
import sys
import threading
import weakref
import zlib
from contextlib import contextmanager, nullcontext
from typing import Dict, Iterator, List, Optional, Tuple

__all__ = [
    "enabled",
    "set_enabled",
    "install",
    "uninstall",
    "LockOrderGraph",
    "LockOrderInversionError",
    "global_graph",
    "PlanCanaryRegistry",
    "PlanMutationError",
    "plan_canary",
    "stats",
    "reset_stats",
    "write_graph_snapshot",
]

_TRUTHY = ("1", "true", "yes", "on")

#: Real primitives captured before any patching, so the sanitizer's own
#: bookkeeping never recurses into the instrumented factory.
_REAL_LOCK = threading.Lock
_REAL_RLOCK = threading.RLock

_ENABLED = os.environ.get("REPRO_SANITIZE", "").strip().lower() in _TRUTHY
_RAISE_ON_INVERSION = (
    os.environ.get("REPRO_SANITIZE_LOCKORDER", "").strip().lower() == "raise"
)


def enabled() -> bool:
    """Whether the sanitizer is active (``REPRO_SANITIZE=1``)."""
    return _ENABLED


def set_enabled(value: bool) -> None:
    """Override the env-derived switch (tests)."""
    global _ENABLED
    _ENABLED = bool(value)


def _short_site(filename: str, lineno: int) -> str:
    parts = filename.replace(os.sep, "/").split("/")
    return "/".join(parts[-3:]) + f":{lineno}"


# --------------------------------------------------------------------- #
# Lock-order graph
# --------------------------------------------------------------------- #

class LockOrderInversionError(AssertionError):
    """A lock acquisition closed a cycle in the lock-order graph."""


class LockOrderGraph:
    """Directed graph of lock-site acquisition order, with cycle checks."""

    def __init__(self, raise_on_inversion: bool = False) -> None:
        self._mu = _REAL_RLOCK()
        #: site -> {successor site -> times observed}
        self._edges: Dict[str, Dict[str, int]] = {}
        #: unique (held_site, new_site, cycle path) triples
        self._inversions: List[Tuple[str, str, Tuple[str, ...]]] = []
        self._inversion_keys: set = set()
        self.raise_on_inversion = raise_on_inversion

    def record(self, held_site: str, new_site: str) -> None:
        """Record "blocked on ``new_site`` while holding ``held_site``"."""
        if held_site == new_site:
            return  # per-site granularity cannot order same-site locks
        with self._mu:
            bucket = self._edges.setdefault(held_site, {})
            first = new_site not in bucket
            bucket[new_site] = bucket.get(new_site, 0) + 1
            if not first:
                return  # cycle status cannot change on a repeat edge
            path = self._path(new_site, held_site)
            if path is None:
                return
            key = (held_site, new_site)
            if key not in self._inversion_keys:
                self._inversion_keys.add(key)
                self._inversions.append((held_site, new_site, tuple(path)))
        if self.raise_on_inversion:
            cycle = " -> ".join((*path, new_site))
            raise LockOrderInversionError(
                f"lock-order inversion: acquiring {new_site} while holding "
                f"{held_site}, but the reverse order exists: {cycle}"
            )

    def _path(self, src: str, dst: str) -> Optional[List[str]]:
        """DFS path ``src -> ... -> dst`` through recorded edges."""
        stack = [(src, [src])]
        seen = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for succ in self._edges.get(node, ()):
                if succ not in seen:
                    seen.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    def edge_count(self) -> int:
        with self._mu:
            return sum(len(b) for b in self._edges.values())

    def inversions(self) -> List[Tuple[str, str, Tuple[str, ...]]]:
        with self._mu:
            return list(self._inversions)

    def reset(self) -> None:
        with self._mu:
            self._edges.clear()
            self._inversions.clear()
            self._inversion_keys.clear()

    def render(self) -> str:
        """Stable text snapshot (sorted; diffable across runs)."""
        with self._mu:
            lines = ["# lock-order graph (site -> site: observations)"]
            for src in sorted(self._edges):
                for dst in sorted(self._edges[src]):
                    lines.append(f"{src} -> {dst}: {self._edges[src][dst]}")
            lines.append(f"# edges: {sum(len(b) for b in self._edges.values())}")
            lines.append(f"# inversions: {len(self._inversions)}")
            for held, new, path in self._inversions:
                cycle = " -> ".join((*path, new))
                lines.append(f"# INVERSION {held} vs {new}: {cycle}")
            return "\n".join(lines) + "\n"


_GLOBAL_GRAPH = LockOrderGraph(raise_on_inversion=_RAISE_ON_INVERSION)


def global_graph() -> LockOrderGraph:
    return _GLOBAL_GRAPH


_tls = threading.local()


def _held_stack() -> List["_SanitizedLock"]:
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = _tls.stack = []
    return stack


class _SanitizedLock:
    """Drop-in ``threading.Lock`` wrapper feeding the lock-order graph."""

    __slots__ = ("_real", "site", "_graph")

    def __init__(self, site: str, graph: LockOrderGraph) -> None:
        self._real = _REAL_LOCK()
        self.site = site
        self._graph = graph

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        stack = _held_stack()
        # Trylocks never block, so they cannot close a deadlock cycle —
        # and a lock already held by this thread is a reentrancy probe
        # (e.g. Condition._is_owned), not an ordering observation.
        if blocking and timeout != 0 and self not in stack and stack:
            self._graph.record(stack[-1].site, self.site)
        got = self._real.acquire(blocking, timeout)
        if got:
            stack.append(self)
        return got

    def release(self) -> None:
        self._real.release()
        stack = _held_stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i] is self:
                del stack[i]
                break

    def locked(self) -> bool:
        return self._real.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc) -> None:
        self.release()

    def _at_fork_reinit(self) -> None:  # pragma: no cover - fork children
        self._real._at_fork_reinit()
        _tls.stack = []

    def __repr__(self) -> str:
        state = "locked" if self._real.locked() else "unlocked"
        return f"<_SanitizedLock({state}) site={self.site}>"


_installed = False


def _lock_factory() -> _SanitizedLock:
    frame = sys._getframe(1)
    site = _short_site(frame.f_code.co_filename, frame.f_lineno)
    return _SanitizedLock(site, _GLOBAL_GRAPH)


def install() -> bool:
    """Patch ``threading.Lock`` so new locks feed the global graph.

    Idempotent; a no-op (returning ``False``) when the sanitizer is
    disabled.  Call as early as possible: locks created before the patch
    (including ``from threading import Lock`` imports) stay untracked.
    ``threading.RLock`` is left alone — reentrant locks in this codebase
    guard no registered state, and wrapping them would noise the graph
    with interpreter-internal reentrancy.
    """
    global _installed
    if not _ENABLED or _installed:
        return _installed
    threading.Lock = _lock_factory  # type: ignore[misc]
    _installed = True
    return True


def uninstall() -> None:
    """Restore the real ``threading.Lock`` factory (tests)."""
    global _installed
    threading.Lock = _REAL_LOCK  # type: ignore[misc]
    _installed = False


# --------------------------------------------------------------------- #
# Plan-mutation canary
# --------------------------------------------------------------------- #

class PlanMutationError(AssertionError):
    """A plan artifact's bytes changed across an executor dispatch."""


#: Arrays above this many bytes are checksummed by head+tail sample —
#: the canary runs around *every* dispatch and must stay cheap.
_FULL_CHECKSUM_MAX = 1 << 20
_SAMPLE_BYTES = 1 << 16


def _array_checksum(arr) -> int:
    data = arr.ravel()
    raw = data.view("u1") if data.dtype.kind != "V" else data
    header = f"{arr.shape}|{arr.dtype.str}".encode()
    if arr.nbytes <= _FULL_CHECKSUM_MAX:
        return zlib.crc32(raw.tobytes(), zlib.crc32(header))
    crc = zlib.crc32(header)
    crc = zlib.crc32(raw[:_SAMPLE_BYTES].tobytes(), crc)
    crc = zlib.crc32(raw[-_SAMPLE_BYTES:].tobytes(), crc)
    return crc


def _plan_checksums(plan) -> Dict[str, int]:
    """Checksum every published artifact of a plan (best-effort duck-typed)."""
    sums: Dict[str, int] = {}
    weights = getattr(plan, "weights", None)
    if weights is not None:
        for name in ("packed", "scales_t", "sz_t"):
            arr = getattr(weights, name, None)
            if arr is not None:
                sums[f"weights.{name}"] = _array_checksum(arr)
    kernel = getattr(plan, "_integer_kernel", None)
    if kernel is not None:
        # The compiled kernel reads the weights' arrays checksummed above;
        # the numpy kernel also owns its reduce-major planes, and a
        # mutation there would corrupt every call.
        arr = vars(kernel).get("planes")
        if arr is not None:
            sums["kernel.planes"] = _array_checksum(arr)
    return sums


class PlanCanaryRegistry:
    """Baseline store + drift detector for plan artifacts."""

    def __init__(self) -> None:
        self._mu = _REAL_LOCK()
        #: id(plan) -> {artifact name -> crc32}
        self._baselines: Dict[int, Dict[str, int]] = {}
        self.trips = 0

    def _evict(self, key: int) -> None:
        with self._mu:
            self._baselines.pop(key, None)

    def _baseline_for(self, plan) -> Dict[str, int]:
        key = id(plan)
        with self._mu:
            baseline = self._baselines.get(key)
        if baseline is not None:
            return baseline
        baseline = _plan_checksums(plan)
        with self._mu:
            existing = self._baselines.setdefault(key, baseline)
        if existing is baseline:
            try:
                weakref.finalize(plan, self._evict, key)
            except TypeError:  # pragma: no cover - non-weakrefable plan
                pass
        return existing

    @contextmanager
    def canary(self, plan) -> Iterator[None]:
        baseline = self._baseline_for(plan)
        try:
            yield
        finally:
            current = _plan_checksums(plan)
            drifted = []
            with self._mu:
                for name, crc in current.items():
                    before = baseline.get(name)
                    if before is None:
                        # Lazily built mid-dispatch (kernel planes):
                        # publication, not mutation — extend the baseline.
                        baseline[name] = crc
                    elif before != crc:
                        drifted.append(name)
                if drifted:
                    self.trips += 1
            if drifted:
                raise PlanMutationError(
                    "plan artifact(s) mutated across an executor dispatch: "
                    + ", ".join(sorted(drifted))
                    + " — plans are frozen and content-addressed; this is "
                    "silent corruption"
                )

    def tracked(self) -> int:
        with self._mu:
            return len(self._baselines)

    def reset(self) -> None:
        with self._mu:
            self._baselines.clear()
            self.trips = 0


_GLOBAL_CANARIES = PlanCanaryRegistry()


def plan_canary(plan):
    """Context manager guarding one executor dispatch of ``plan``.

    Near-zero cost when the sanitizer is off (returns ``nullcontext``).
    """
    if not _ENABLED:
        return nullcontext()
    return _GLOBAL_CANARIES.canary(plan)


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #

def stats() -> dict:
    """Counters the test-session gate asserts on."""
    return {
        "enabled": _ENABLED,
        "installed": _installed,
        "lock_order_edges": _GLOBAL_GRAPH.edge_count(),
        "lock_order_inversions": [
            {"held": held, "acquired": new, "cycle": list(path) + [new]}
            for held, new, path in _GLOBAL_GRAPH.inversions()
        ],
        "canary_trips": _GLOBAL_CANARIES.trips,
        "plans_tracked": _GLOBAL_CANARIES.tracked(),
    }


def reset_stats() -> None:
    _GLOBAL_GRAPH.reset()
    _GLOBAL_CANARIES.reset()


def write_graph_snapshot(path: str) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(_GLOBAL_GRAPH.render())


_graph_out = os.environ.get("REPRO_SANITIZE_GRAPH_OUT", "").strip()
if _ENABLED and _graph_out:  # pragma: no cover - exercised by CI leg
    atexit.register(write_graph_snapshot, _graph_out)
