"""Cross-PR benchmark trajectory: aggregate BENCH_*.json into one history.

Every benchmark run writes a ``BENCH_<name>.json`` document to the
git-ignored ``benchmarks/out/`` (see ``benchmarks/conftest.py``) with
headline scalar ``metrics`` stamped with the git sha.  This tool folds
those per-run documents into the single committed
``benchmarks/results/BENCH_trajectory.json`` — one metric history per
bench — and checks fresh runs against that baseline so a change that
quietly loses 10% of decode throughput gets flagged in CI.

Commands::

    python benchmarks/trajectory.py update    # fold current BENCH_*.json in
    python benchmarks/trajectory.py check     # warn on >10% regressions

``check`` always exits 0 and prints GitHub ``::warning::`` annotations —
the numbers come from shared CI runners, so a regression is a prompt for a
human look, not a red build.  Pass ``--strict`` to exit non-zero instead
(for local use on a quiet machine).

Metric direction is inferred from the name (``*_tokens_per_s`` up,
``*_latency_ms`` down, ...); metrics whose direction is ambiguous are
skipped rather than guessed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
from typing import Dict, List, Optional, Tuple

RESULTS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                           "results")
OUT_DIR = os.path.join(os.path.dirname(RESULTS_DIR), "out")
TRAJECTORY_BASENAME = "BENCH_trajectory.json"
TRAJECTORY_SCHEMA_VERSION = 1

#: Default regression threshold: warn when a metric moves >10% in the bad
#: direction relative to the committed baseline.
DEFAULT_THRESHOLD = 0.10

#: Keep this many points per bench (oldest dropped first) so the committed
#: file stays reviewable.
DEFAULT_MAX_POINTS = 50

#: Name fragments deciding which direction is "better".  Higher-is-better
#: fragments are consulted first (``tokens_per_s`` must not fall into the
#: ``_s`` seconds suffix); the ``_s``/``_ms`` unit checks are suffix-only
#: so names like ``mpGEMM_S0_threads`` stay unclassified instead of being
#: misread as latencies.
_HIGHER_IS_BETTER = ("tokens_per_s", "tok_s", "throughput", "speedup",
                     "hit_rate", "_over_", "improvement", "bandwidth")
_LOWER_IS_BETTER = ("latency", "seconds", "nmse", "error", "overhead",
                    "bytes", "p50", "p90", "p99")
_LOWER_SUFFIXES = ("_s", "_ms", "_us")


def metric_direction(name: str) -> Optional[str]:
    """``"lower"`` / ``"higher"`` is better, or ``None`` when ambiguous."""
    lowered = name.lower()
    if any(frag in lowered for frag in _HIGHER_IS_BETTER):
        return "higher"
    if (any(frag in lowered for frag in _LOWER_IS_BETTER)
            or lowered.endswith(_LOWER_SUFFIXES)):
        return "lower"
    return None


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _bench_documents(results_dir: str) -> List[dict]:
    """Current per-run BENCH_*.json documents (trajectory file excluded)."""
    docs = []
    for path in sorted(glob.glob(os.path.join(results_dir, "BENCH_*.json"))):
        if os.path.basename(path) == TRAJECTORY_BASENAME:
            continue
        doc = _load_json(path)
        if isinstance(doc, dict) and doc.get("bench"):
            docs.append(doc)
    return docs


def load_trajectory(path: str) -> dict:
    """The trajectory document, or a fresh empty one."""
    if os.path.exists(path):
        return _load_json(path)
    return {"schema_version": TRAJECTORY_SCHEMA_VERSION, "benches": {}}


def update(results_dir: str = RESULTS_DIR,
           trajectory_path: Optional[str] = None,
           max_points: int = DEFAULT_MAX_POINTS) -> dict:
    """Fold the current BENCH_*.json metrics into the trajectory file.

    A re-run at the same git sha replaces that sha's point instead of
    appending a duplicate, so iterating locally does not inflate the
    history.  Returns the updated document (also written to disk).
    """
    trajectory_path = trajectory_path or os.path.join(results_dir,
                                                      TRAJECTORY_BASENAME)
    trajectory = load_trajectory(trajectory_path)
    benches = trajectory.setdefault("benches", {})
    for doc in _bench_documents(results_dir):
        metrics = {k: v for k, v in (doc.get("metrics") or {}).items()
                   if isinstance(v, (int, float))}
        if not metrics:
            continue
        point = {"git_sha": doc.get("git_sha", "unknown"), "metrics": metrics}
        points = benches.setdefault(doc["bench"], {}).setdefault("points", [])
        if points and points[-1].get("git_sha") == point["git_sha"]:
            points[-1] = point
        else:
            points.append(point)
        del points[:-max_points]
    with open(trajectory_path, "w", encoding="utf-8") as fh:
        json.dump(trajectory, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return trajectory


def check(results_dir: str = RESULTS_DIR,
          trajectory_path: Optional[str] = None,
          threshold: float = DEFAULT_THRESHOLD) -> List[str]:
    """Compare current BENCH_*.json metrics against the committed baseline.

    The baseline for each bench is its most recent trajectory point (the
    numbers the last landed PR committed).  Returns the list of regression
    messages; metrics without a committed baseline, with an ambiguous
    direction, or with a near-zero baseline are skipped.
    """
    trajectory_path = trajectory_path or os.path.join(results_dir,
                                                      TRAJECTORY_BASENAME)
    trajectory = load_trajectory(trajectory_path)
    benches = trajectory.get("benches", {})
    regressions: List[str] = []
    for doc in _bench_documents(results_dir):
        points = benches.get(doc["bench"], {}).get("points", [])
        if not points:
            continue
        baseline: Dict[str, float] = points[-1].get("metrics", {})
        for name, current in sorted((doc.get("metrics") or {}).items()):
            base = baseline.get(name)
            if (not isinstance(current, (int, float))
                    or not isinstance(base, (int, float))
                    or abs(base) < 1e-12):
                continue
            direction = metric_direction(name)
            if direction is None:
                continue
            change = (current - base) / abs(base)
            regressed = (change < -threshold if direction == "higher"
                         else change > threshold)
            if regressed:
                regressions.append(
                    f"{doc['bench']}: {name} regressed {abs(change):.1%} "
                    f"({base:.4g} -> {current:.4g}, "
                    f"{direction}-is-better, baseline "
                    f"{points[-1].get('git_sha', 'unknown')[:12]})"
                )
    return regressions


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Aggregate and regression-check BENCH_*.json metrics")
    parser.add_argument("command", choices=("update", "check"))
    parser.add_argument("--results", default=OUT_DIR,
                        help="directory of the run's BENCH_*.json "
                             "(default: %(default)s)")
    parser.add_argument("--trajectory", default=None,
                        help="trajectory file (default: <results>/"
                             f"{TRAJECTORY_BASENAME}, the committed one "
                             "when --results is not given)")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD,
                        help="relative regression threshold "
                             "(default: %(default)s)")
    parser.add_argument("--max-points", type=int, default=DEFAULT_MAX_POINTS,
                        help="history length per bench (default: %(default)s)")
    parser.add_argument("--strict", action="store_true",
                        help="exit 1 when check finds regressions")
    args = parser.parse_args(argv)
    if args.trajectory is None and args.results == OUT_DIR:
        args.trajectory = os.path.join(RESULTS_DIR, TRAJECTORY_BASENAME)

    if args.command == "update":
        trajectory = update(args.results, args.trajectory, args.max_points)
        total = sum(len(b.get("points", []))
                    for b in trajectory.get("benches", {}).values())
        print(f"trajectory updated: {len(trajectory.get('benches', {}))} "
              f"benches, {total} points")
        return 0

    regressions = check(args.results, args.trajectory, args.threshold)
    for message in regressions:
        print(f"::warning title=benchmark regression::{message}")
    if not regressions:
        print("no benchmark regressions above "
              f"{args.threshold:.0%} vs committed baseline")
    return 1 if (regressions and args.strict) else 0


if __name__ == "__main__":
    raise SystemExit(main())
