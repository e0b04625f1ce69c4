"""Smoke test of the hand-run phase table (``kernel_phases.py``): a tiny
shape, one repeat, nothing written.  The replica inside ``measure_phases``
raises if it stops matching the kernel bit for bit."""

import pytest

import kernel_phases
from repro.core import native


def test_phase_table_on_a_tiny_shape():
    status = native.status()
    if status.path == "numpy":
        pytest.skip(f"native kernel unavailable: {status.reason}")
    probes = kernel_phases.host_probes(repeats=1)
    assert all(seconds > 0 for seconds in probes.values())
    phases = kernel_phases.measure_phases(8, 64, 2, probes, group_size=32,
                                          repeats=1)
    assert [p.name for p in phases] == [
        "lut_build", "block_sums", "widen_scale", "bit_sum", "recombine"]
    assert all(p.measured_s > 0 and p.bound_s > 0 for p in phases)
    counts = {p.name: p.elements for p in phases}
    # From the shapes alone: M=8, K=64, N=2, 4 bits, g=4, group 32 ->
    # QG=2, one 32-row block, 16 index columns, 2 * 8 * 4 * 2 block sums.
    assert counts["lut_build"] == 2 * 16 * 8
    assert counts["block_sums"] == 2 * 1 * 16 * 4
    assert counts["widen_scale"] == 3 * (2 * 8 * 4 * 2)
    assert counts["recombine"] == 4 * (2 * 8 * 2)
    assert len(kernel_phases.format_phases(phases)) == len(phases) + 2
