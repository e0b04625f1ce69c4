"""Shared fixtures for the test suite."""

from __future__ import annotations

# The sanitizer must patch threading.Lock before any repro module creates
# one (module-level registry locks are born at import time), so this
# block runs before every other import that pulls in repro code.
from repro.analysis import sanitizer

sanitizer.install()

import hashlib
import os
import subprocess

import numpy as np
import pytest

from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights


@pytest.fixture(scope="session", autouse=True)
def sanitizer_gate():
    """Fail the session on any lock-order inversion or canary trip.

    Inert unless ``REPRO_SANITIZE=1``.  Runs after the last test so the
    whole suite's lock traffic is in the graph; also writes the graph
    snapshot when ``REPRO_SANITIZE_GRAPH_OUT`` is set (in addition to the
    atexit hook, so the snapshot exists even if pytest hard-exits).
    """
    yield
    if not sanitizer.enabled():
        return
    import os

    out = os.environ.get("REPRO_SANITIZE_GRAPH_OUT", "").strip()
    if out:
        sanitizer.write_graph_snapshot(out)
    report = sanitizer.stats()
    assert report["lock_order_inversions"] == [], (
        "lock-order inversions recorded during the session: "
        f"{report['lock_order_inversions']}"
    )
    assert report["canary_trips"] == 0, (
        f"plan-mutation canary tripped {report['canary_trips']} time(s) "
        "during the session"
    )


def _tree_state(root):
    """``git status --porcelain`` of ``root`` with a digest of every file it
    lists (so a rewrite of an already-modified file also shows), or
    ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "status", "--porcelain", "--untracked-files=all"],
            cwd=root, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.SubprocessError):
        return None
    if proc.returncode != 0:
        return None
    state = {}
    for line in proc.stdout.splitlines():
        path = os.path.join(root, line[3:])
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                state[line] = hashlib.sha1(fh.read()).hexdigest()
        else:
            state[line] = None
    return state


@pytest.fixture(scope="session", autouse=True)
def clean_tree_gate(request):
    """Fail the session if the run added or changed any path git sees.

    Test and benchmark output belongs in git-ignored places (e.g.
    ``benchmarks/out/``); only ``--bench-commit`` may rewrite the
    committed ``benchmarks/results/``, so the check is off under it.
    Skipped outside a git checkout.
    """
    root = str(request.config.rootpath)
    before = None
    if not request.config.getoption("--bench-commit", default=False):
        before = _tree_state(root)
    yield
    if before is None:
        return
    after = _tree_state(root)
    changed = sorted(line for line in set(before) | set(after or {})
                     if before.get(line) != (after or {}).get(line))
    assert not changed, (
        "the test session added or changed tracked or untracked paths "
        f"(git status --porcelain): {changed}")


@pytest.fixture
def rng():
    """Deterministic random generator."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_weights():
    """A small fp weight matrix [48, 256] for kernel tests."""
    return gaussian_weights(48, 256, seed=7)


@pytest.fixture
def small_activation():
    """A small activation matrix [3, 256] matching ``small_weights``."""
    return gaussian_activation(3, 256, seed=8)


@pytest.fixture
def small_qweight(small_weights):
    """4-bit quantized version of ``small_weights`` (group size 64)."""
    return quantize_weights(small_weights, bits=4, group_size=64)
