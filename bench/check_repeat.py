"""Do two sets of runs of the same code agree within the benchmark's bounds?

    python3 -m bench.check_repeat A.jsonl B.jsonl
    python3 -m bench.check_repeat --runs 3 --out A.jsonl   # produce a set

A set is a JSON-lines file of result documents (``bench.run --out``).  Per
(workload, end-to-end metric) this prints each set's median, quartiles and
quartile spread (Q3-Q1 over the median, the driver's steadiness measure)
and how far B's median is *worse* than A's, and exits non-zero when a
spread or a worsening exceeds the metric's ``bound`` in ``BENCHMARK.json``
(``setup_s`` is held to the worsening only, as the driver holds it).  The
driver's rule is stated for ten runs: with fewer than ``MIN_RUNS_FOR_SPREAD``
the quartiles are the extremes, so the spread is printed but not held.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from collections import defaultdict
from typing import Dict, List

from bench.stats import quartile_spread

MIN_RUNS_FOR_SPREAD = 8

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_benchmark() -> Dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def load_set(path: str) -> Dict[str, Dict[str, List[float]]]:
    """workload -> metric -> values, untraced runs only."""
    values: Dict[str, Dict[str, List[float]]] = defaultdict(
        lambda: defaultdict(list))
    with open(path) as handle:
        for line in handle:
            doc = json.loads(line)
            if doc["trace"]:
                continue
            for name, metric in doc["result"]["metrics"].items():
                values[doc["workload"]][name].append(metric["value"])
    return values


def worsening(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of ``first``."""
    change = (second - first) / abs(first)
    return change if better == "lower" else -change


def compare(set_a, set_b, benchmark: Dict) -> int:
    breaches = 0
    print(f"{'workload':22s} {'metric':12s} {'set':3s} {'n':>2s} "
          f"{'median':>10s} {'q1':>10s} {'q3':>10s} {'spread':>7s} "
          f"{'worse':>7s} {'bound':>6s}")
    for workload in (w["name"] for w in benchmark["workloads"]):
        if min(len(values[workload]["setup_s"])
               for values in (set_a, set_b)) < 2:
            print(f"{workload:22s} fewer than two runs in a set: skipped")
            continue
        for spec in benchmark["end_to_end"]:
            name, bound = spec["name"], spec["bound"]
            medians = []
            for label, values in (("A", set_a), ("B", set_b)):
                sample = values[workload][name]
                q1, median, q3 = statistics.quantiles(sample, n=4)
                spread = quartile_spread(sample)
                medians.append(median)
                worse = (worsening(medians[0], median, spec["better"])
                         if label == "B" else 0.0)
                flags = ""
                if (name != "setup_s" and spread > bound
                        and len(sample) >= MIN_RUNS_FOR_SPREAD):
                    flags += " SPREAD"
                if worse > bound:
                    flags += " WORSE"
                breaches += bool(flags)
                print(f"{workload:22s} {name:12s} {label:3s} "
                      f"{len(sample):2d} {median:10.4f} {q1:10.4f} "
                      f"{q3:10.4f} {spread:7.3f} {worse:7.3f} "
                      f"{bound:6.2f}{flags}")
    print(f"{breaches} breach(es)")
    return breaches


def produce(runs: int, seed: int, seconds: float, out: str) -> None:
    from bench.run import WORKLOADS, run_workload
    for index in range(runs):
        for workload in WORKLOADS:
            doc = run_workload(workload, seed + index, seconds, False)
            with open(out, "a") as handle:
                handle.write(json.dumps(doc) + "\n")


def main(argv=None) -> int:
    # Imported first: scrubs the environment before numpy is loaded.
    from bench.run import DEFAULT_SEED

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("sets", nargs="*", help="two JSON-lines result sets")
    parser.add_argument("--runs", type=int,
                        help="run every workload this many times (seeds "
                        "--seed, --seed+1, ...) and append to --out")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    benchmark = load_benchmark()
    if args.runs:
        if not args.out:
            parser.error("--runs needs --out")
        produce(args.runs, args.seed, benchmark["run_seconds"], args.out)
        return 0
    if len(args.sets) != 2:
        parser.error("give two result sets, or --runs N --out FILE")
    return 1 if compare(load_set(args.sets[0]), load_set(args.sets[1]),
                        benchmark) else 0


if __name__ == "__main__":
    sys.exit(main())
