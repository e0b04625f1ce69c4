"""Smoke test of the hand-run phase table (``kernel_phases.py``): a tiny
shape, one repeat, nothing written.  The replica inside ``measure_phases``
raises if it stops matching the kernel bit for bit."""

import kernel_phases


def test_phase_table_on_a_tiny_shape():
    probes = kernel_phases.host_probes(rows=(2,), repeats=1)
    assert all(seconds > 0 for seconds in probes.values())
    phases = kernel_phases.measure_phases(8, 64, 2, probes, group_size=32,
                                          repeats=1)
    assert [p.name for p in phases] == [
        "lut_build", "fused_expand", "take", "integer_add", "widen_scale",
        "bit_sum", "recombine"]
    assert all(p.measured_s > 0 and p.bound_s > 0 for p in phases)
    counts = {p.name: p.elements for p in phases}
    # From the shapes alone: M=8, K=64, N=2, 4 bits, g=4, group 32 ->
    # QG=2, gpq=8, 4 byte-wide steps of 2 * 256 table entries each.
    assert counts["fused_expand"] == 2 * 4 * 2 * 256
    assert counts["take"] == 4 * 8 * 4 * 2
    assert counts["integer_add"] == 3 * (2 * 8 * 4 * 2)
    assert len(kernel_phases.format_phases(phases)) == len(phases) + 2
