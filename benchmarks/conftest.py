"""Shared helpers for the benchmark harness.

Every benchmark module regenerates one table or figure of the paper's
evaluation section.  Results are written twice:

* plain-text tables to ``<name>.txt`` (human-readable, survive pytest's
  output capturing), and
* machine-readable ``BENCH_<name>.json`` documents (bench name, series,
  params, metrics, host info, git sha) so the performance trajectory is
  trackable across commits — CI uploads them as a workflow artifact.

Both go to the git-ignored ``benchmarks/out/``, so a test run leaves the
checkout clean; ``pytest --bench-commit`` writes them to the committed
``benchmarks/results/`` instead, to refresh the published numbers.

The ``benchmark`` fixture wraps a representative piece of the computation
so the suite integrates with ``pytest-benchmark`` (``--benchmark-only``).
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
from typing import Iterable, List, Optional, Sequence

import pytest

from repro.core.config import usable_cpus

RESULTS_DIR = os.path.join(os.path.dirname(__file__), "results")
OUT_DIR = os.path.join(os.path.dirname(__file__), "out")
#: Where the writers go: ``OUT_DIR`` unless pytest runs with --bench-commit.
_output_dir = OUT_DIR

#: Version of the BENCH_*.json document layout; bump on breaking changes so
#: trajectory tooling can dispatch on it.
BENCH_SCHEMA_VERSION = 1


def pytest_addoption(parser):
    parser.addoption(
        "--bench-commit", action="store_true", default=False,
        help="write benchmark tables and BENCH_*.json to the committed "
             "benchmarks/results/ instead of the git-ignored benchmarks/out/")


def pytest_configure(config):
    global _output_dir
    _output_dir = (RESULTS_DIR if config.getoption("--bench-commit")
                   else OUT_DIR)


def format_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a list of rows as a fixed-width text table."""
    rows = [[str(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    lines.append(" | ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("-+-".join("-" * w for w in widths))
    for row in rows:
        lines.append(" | ".join(cell.ljust(widths[i])
                                for i, cell in enumerate(row)))
    return "\n".join(lines)


def write_result(name: str, title: str, content: str) -> str:
    """Write a reproduction artifact ``<name>.txt`` (module docstring)."""
    os.makedirs(_output_dir, exist_ok=True)
    path = os.path.join(_output_dir, f"{name}.txt")
    with open(path, "w") as handle:
        handle.write(f"{title}\n{'=' * len(title)}\n\n{content}\n")
    return path


def host_info() -> dict:
    """Hardware/software facts that contextualize a measured number."""
    import numpy

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "cpu_count": os.cpu_count() or 1,
        "usable_cores": usable_cpus(),
    }


def git_sha() -> str:
    """The commit the numbers were produced at (``unknown`` outside git)."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=os.path.dirname(os.path.abspath(__file__)),
            capture_output=True, text=True, timeout=10,
        )
        if proc.returncode == 0:
            return proc.stdout.strip()
    except (OSError, subprocess.SubprocessError):  # pragma: no cover
        pass
    return "unknown"


def write_bench_json(name: str, series, params: Optional[dict] = None,
                     metrics: Optional[dict] = None) -> str:
    """Write ``BENCH_<name>.json`` (module docstring).

    Parameters
    ----------
    name:
        Benchmark name; also the file stem.
    series:
        The measured/modeled data, as a list of series dicts (each with a
        ``name`` and a list of ``points``) or any JSON-serializable shape
        the benchmark finds natural.
    params:
        The knobs the run was executed with (shapes, counts, env).
    metrics:
        Headline scalar metrics (speedups, tok/s, hit rates) for quick
        cross-PR comparison without parsing the series.
    """
    os.makedirs(_output_dir, exist_ok=True)
    payload = {
        "bench": name,
        "schema_version": BENCH_SCHEMA_VERSION,
        "git_sha": git_sha(),
        "host": host_info(),
        "params": params or {},
        "series": series,
        "metrics": metrics or {},
    }
    path = os.path.join(_output_dir, f"BENCH_{name}.json")
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True, default=str)
        handle.write("\n")
    return path


@pytest.fixture(scope="session")
def record_table():
    """Fixture returning a helper that formats and persists a result table.

    Session-scoped (the helper is stateless) so module-scoped fixtures that
    accumulate rows across parametrized tests can depend on it too.
    """

    def _record(name: str, title: str, headers: Sequence[str],
                rows: List[Sequence]) -> str:
        content = format_table(headers, rows)
        path = write_result(name, title, content)
        return path

    return _record


@pytest.fixture(scope="session")
def record_bench():
    """Fixture returning the machine-readable BENCH_*.json writer."""
    return write_bench_json
