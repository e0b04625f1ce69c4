"""The benchmark command (see ``BENCHMARK.json`` and ``bench/README.md``).

    python3 -m bench.run --workload NAME --seed N --seconds S --trace 0|1

Runs one workload in this process (no subprocess, no worker process),
checks its outputs, prints every metric by name with its unit and sample
count, and ends with one JSON line: ``correct``, ``attempted``, ``failed``
and ``metrics`` (the end-to-end metrics, or with ``--trace 1`` the
per-layer ones).  ``--workload all`` runs the four in turn.
"""

from __future__ import annotations

import os
import sys

# Before numpy or repro is imported: no REPRO_* knob reaches the program
# under test, BLAS stays on one thread, and src/ is importable without
# PYTHONPATH (the driver's checkout has no installed package).
for _name in [name for name in os.environ if name.startswith("REPRO_")]:
    del os.environ[_name]
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "src"))

import argparse  # noqa: E402
import faulthandler  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import platform  # noqa: E402
import threading  # noqa: E402
from typing import Any, Dict  # noqa: E402

import numpy  # noqa: E402

from repro.core.executor import shutdown_worker_pools  # noqa: E402
from repro.core.shm import shutdown_process_pools  # noqa: E402

from bench.closed import run_batch_offline, run_decode_single  # noqa: E402
from bench.gateway import run_gateway_shared_prefix, run_gateway_unshared  # noqa: E402
from bench.harness import Outcome  # noqa: E402

WORKLOADS = {
    "decode_single": run_decode_single,
    "batch_offline": run_batch_offline,
    "gateway_unshared": run_gateway_unshared,
    "gateway_shared_prefix": run_gateway_shared_prefix,
}

#: BENCHMARK.json admits no key for these, so they live here.  The second
#: is held out: never used while the benchmark or a change was written.
DEFAULT_SEED = 20250
HELD_OUT_SEED = 977
DEFAULT_SECONDS = 14  # BENCHMARK.json's run_seconds

#: Hard stop for one workload, whatever it is stuck in (the driver allows
#: 180 s): dumps every thread's stack and exits non-zero.
WATCHDOG_S = 150

RESULTS_DIR = os.path.join(_ROOT, "bench", "results")


def host_fingerprint() -> Dict[str, Any]:
    """Stamped on every result: points from different hosts never compare raw."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "usable_cores": len(os.sched_getaffinity(0)),
    }


def assert_nothing_left_running() -> None:
    children = multiprocessing.active_children()
    threads = [t.name for t in threading.enumerate()
               if t is not threading.main_thread()]
    if children or threads:
        raise SystemExit(
            f"left running: children={children} threads={threads}")


def run_workload(name: str, seed: int, seconds: float,
                 trace: bool) -> Dict[str, Any]:
    """Run one workload to completion; returns its result document."""
    faulthandler.dump_traceback_later(WATCHDOG_S, exit=True)
    try:
        outcome: Outcome = WORKLOADS[name](seed, seconds, trace)
    finally:
        shutdown_worker_pools()
        shutdown_process_pools()
        faulthandler.cancel_dump_traceback_later()
    assert_nothing_left_running()
    host = host_fingerprint()
    shown = outcome.per_layer if trace else outcome.end_to_end
    if outcome.tracer is not None:
        os.makedirs(RESULTS_DIR, exist_ok=True)
        outcome.tracer.dump(os.path.join(RESULTS_DIR, f"trace_{name}.json"), {
            "workload": name, "seed": seed, "seconds": seconds, "host": host,
            "per_layer": {key: {"value": value, "unit": unit, "samples": n}
                          for key, (value, unit, n) in shown.items()}})
    return {
        "workload": name, "seed": seed, "seconds": seconds,
        "trace": int(trace), "host": host, "info": outcome.info,
        "failures": outcome.failures,
        "samples": {key: n for key, (_, _, n) in shown.items()},
        "result": {
            "correct": outcome.failed == 0,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": {key: {"value": value, "unit": unit}
                        for key, (value, unit, _) in shown.items()},
        },
    }


def print_report(doc: Dict[str, Any]) -> None:
    print(f"# workload {doc['workload']} seed {doc['seed']} "
          f"seconds {doc['seconds']:g} trace {doc['trace']}")
    print(f"# host {json.dumps(doc['host'])}")
    for key, value in doc["info"].items():
        print(f"# {key} {value}")
    for failure in doc["failures"]:
        print(f"# FAILED: {failure}")
    for key, metric in doc["result"]["metrics"].items():
        print(f"{key:36s} {metric['value']:>16.6g} {metric['unit']:6s} "
              f"n={doc['samples'][key]}")
    print(json.dumps(doc["result"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="append each result document to this "
                        "JSON-lines file (input of bench.check_repeat)")
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    correct = True
    for name in names:
        doc = run_workload(name, args.seed, args.seconds, bool(args.trace))
        print_report(doc)
        correct = correct and doc["result"]["correct"]
        if args.out:
            with open(args.out, "a") as handle:
                handle.write(json.dumps(doc) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
