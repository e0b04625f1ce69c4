"""Per-phase accounting of the integer LUT kernel against host bounds.

Run by hand (it is not collected by pytest and writes nothing itself)::

    PYTHONPATH=src python benchmarks/kernel_phases.py \
        > benchmarks/results/kernel_phases.txt

For every linear shape of the benchmark's ``bench-medium`` and
``bench-small`` models (fused q|k|v and gate|up operators and the single
projections they replaced) at 1 and 8 activation rows it prints one row per
phase of an mpGEMM call — LUT build, fused-table expansion, ``take``,
integer add, widen/scale, bit-sum, recombine — with

* the elements processed and bytes moved, from the shapes alone,
* the measured time of that phase (minimum of ``repeats`` runs of a
  replica of the kernel's statements; the replica's result is asserted
  ``np.array_equal`` to the kernel's),
* the achieved bytes per second, to hold against the contiguous-copy
  probe (a phase moving data at the copy rate is memory-bound whatever
  its element count),
* the host bound: the same element count at the rate an independent
  micro-probe of that access pattern reaches (``take`` per index, int16
  add, float64 multiply-add, all cache-resident), and
* ``achieved`` = bound / measured, the fraction of achievable.

A phase near 1.0 is as fast as numpy can run it on this host — only
doing less work, or leaving numpy, helps; a phase far below 1.0 loses
its time to constants, strides or temporaries that a rewrite inside
numpy can recover.
"""

from __future__ import annotations

import sys
from typing import Dict, List, NamedTuple

import numpy as np

from repro.backends.base import pick_group_size
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.core.lut import fusion_width
from repro.core.specialize import reduce_major_planes
from repro.hardware.calibrate import _best_seconds as best_seconds
from repro.quant.uniform import quantize_weights

BITS = 4
#: ``(model, M, K)`` — the linear shapes of ``bench/models.py``'s MEDIUM
#: (hidden 512, intermediate 1376, vocab 1024) and SMALL (256, 688, 512)
#: specs, both quantized with a requested group size of 64: the fused
#: q|k|v (3h x h) and gate|up (2i x h) operators the model calls, beside
#: the single projections (h x h is also o_proj, i x h no longer a call).
SHAPES = (
    ("bench-medium", 512, 512), ("bench-medium", 1536, 512),
    ("bench-medium", 1376, 512), ("bench-medium", 2752, 512),
    ("bench-medium", 512, 1376), ("bench-medium", 1024, 512),
    ("bench-small", 256, 256), ("bench-small", 768, 256),
    ("bench-small", 688, 256), ("bench-small", 1376, 256),
    ("bench-small", 256, 688), ("bench-small", 512, 256),
)
#: ``model -> (hidden, intermediate)`` for the per-layer summary.
MODELS = {"bench-medium": (512, 1376), "bench-small": (256, 688)}
ROWS = (1, 8)
GROUP_SIZE = 64


class Phase(NamedTuple):
    name: str
    elements: int
    bytes_moved: int
    measured_s: float
    bound_s: float


def raise_malloc_thresholds() -> None:
    """Free one 16 MB array so glibc stops returning freed temporaries to
    the OS — the state of any process that has built a model.  Without it
    every table-sized temporary is page-faulted in again and the small
    shapes measure the VM's fault cost, not the kernel."""
    np.ones(1 << 24, dtype=np.uint8)


def host_probes(rows=ROWS, repeats: int = 9) -> Dict[str, float]:
    """Seconds per element of the access patterns the kernel is made of."""
    rng = np.random.default_rng(0)
    count = 1 << 16
    index = rng.integers(0, 4096, count).astype(np.uint16)
    probes: Dict[str, float] = {}
    for n in rows:
        slab = rng.integers(-127, 127, (4096, n)).astype(np.int16)
        out = np.empty((count, n), dtype=np.int16)
        probes[f"take_index_n{n}"] = best_seconds(
            lambda: slab.take(index, axis=0, out=out, mode="clip"),
            repeats) / count
    acc = np.zeros(count, dtype=np.int16)
    inc = np.ones(count, dtype=np.int16)
    probes["int16_add"] = best_seconds(
        lambda: np.add(acc, inc, out=acc), repeats) / count
    x = np.ones(count)
    y = np.full(count, 1.0000001)
    probes["float64_multiply_add"] = best_seconds(
        lambda: (np.multiply(x, y, out=x), np.add(x, y, out=x)),
        repeats) / (2 * count)
    src = np.ones(1 << 20, dtype=np.uint8)
    dst = np.empty_like(src)
    probes["copy_byte"] = best_seconds(
        lambda: np.copyto(dst, src), repeats) / src.size
    return probes


def measure_phases(m: int, k: int, n: int, probes: Dict[str, float],
                   group_size: int = GROUP_SIZE, bits: int = BITS,
                   repeats: int = 9) -> List[Phase]:
    """Phase rows of one ``[n, k] x [m, k]`` call on the default config."""
    rng = np.random.default_rng(m * 7919 + k)
    config = TMACConfig(bits=bits)
    weights = quantize_weights(
        rng.standard_normal((m, k)).astype(np.float32), bits=bits,
        group_size=pick_group_size(k, group_size))
    kernel = TMACKernel(weights, config)
    a = rng.standard_normal((n, k)).astype(np.float32)
    expected = kernel.matmul(a)
    table = kernel.precompute(a)
    spec = kernel.plan.specialized()
    g, f = config.g, fusion_width(config.g)
    steps, qgroups = spec.steps, spec.qgroups
    entries = table.fused_entries  # per activation row
    acc_size = spec.acc_dtype.itemsize
    take_s = probes[f"take_index_n{n}"]
    add_s = probes["int16_add"]
    fma_s = probes["float64_multiply_add"]

    def expand():
        table._row_minor = None
        return table.row_minor()

    # A replica of IntegerLutKernel._codes_dot / recombine_span, statement
    # by statement, over the whole output span, on the numpy path's planes.
    lut = expand()
    planes = reduce_major_planes(
        [kernel.plan.weights.indices(bit) for bit in range(bits)], g,
        kernel.plan.groups_per_qgroup)
    index = planes.reshape(steps, -1)
    acc = np.empty((index.shape[1], n), dtype=spec.acc_dtype)
    looked_up = np.empty_like(acc)
    tscale = table.scales.T[:, :, None]
    sums = a.reshape(n, qgroups, -1).sum(axis=2).T[:, :, None]
    state: Dict[str, np.ndarray] = {}

    def take():
        for s in range(steps):
            lut[s].take(index[s], axis=0, out=looked_up, mode="clip")

    def integer_add():
        for _ in range(1, steps):
            np.add(acc, looked_up, out=acc)

    def gather():  # the kernel's interleaving of the two, for the check
        lut[0].take(index[0], axis=0, out=acc, mode="clip")
        for s in range(1, steps):
            lut[s].take(index[s], axis=0, out=looked_up, mode="clip")
            np.add(acc, looked_up, out=acc)

    def widen_scale():
        partial = acc.reshape(m, bits, qgroups, n).transpose(
            1, 2, 3, 0).astype(np.float64, order="C")
        if spec.fold_alpha:
            partial *= tscale * (spec.bit_weights * spec.alpha)
        else:
            partial *= tscale * spec.bit_weights
            partial *= spec.alpha
        partial += (spec.beta * sums) * spec.bit_weights
        state["partial"] = partial

    def bit_sum():
        partial = state["partial"]
        chunk = partial[0]
        for bit in range(1, bits):
            chunk += partial[bit]
        state["codes"] = chunk

    def recombine():
        codes = state["codes"]
        out = np.zeros((n, m), dtype=np.float64)
        codes *= spec.scales_t[:, None, :]
        zero_terms = spec.sz_t[:, None, :] * sums
        for qg in range(qgroups):
            out += codes[qg]
            out -= zero_terms[qg]
        state["out"] = out

    # One clean pass for the result check; the timed repeats then re-run
    # the in-place phases on already-processed values (same work).
    for phase in (gather, widen_scale, bit_sum, recombine):
        phase()
    if not np.array_equal(state["out"].astype(np.float32), expected):
        raise AssertionError(
            f"phase replica diverged from the kernel at M={m} K={k} N={n}")

    stored = n * (k // g) * table.stored_length  # int8 entries kept
    fused = n * entries
    lookups = steps * m * bits * qgroups
    block = n * m * bits * qgroups  # integer block sums of the call
    chunk = block // bits

    def phase(name, elements, bytes_moved, fn, bound_s):
        return Phase(name, elements, bytes_moved, best_seconds(fn, repeats),
                     bound_s)

    return [
        # g multiply-adds plus three quantization passes (amax, scale,
        # round) per stored entry.
        phase("lut_build", stored, n * k * 4 + stored * 9,
              lambda: kernel.precompute(a), stored * (g + 3) * fma_s),
        # f takes over constant index vectors, f - 1 table-sized adds.
        phase("fused_expand", fused,
              f * (entries * 8 + fused * acc_size)
              + (f - 1) * fused * acc_size * 3,
              expand, f * entries * take_s + (f - 1) * fused * add_s),
        phase("take", lookups,
              lookups * (planes.itemsize + 2 * n * acc_size),
              take, lookups * take_s),
        phase("integer_add", (steps - 1) * block,
              (steps - 1) * block * acc_size * 3,
              integer_add, (steps - 1) * block * add_s),
        # Transposing widen, multiply by the table scales, add beta * sums.
        phase("widen_scale", 3 * block, block * (acc_size + 40),
              widen_scale, 3 * block * fma_s),
        phase("bit_sum", (bits - 1) * chunk, (bits - 1) * chunk * 24,
              bit_sum, (bits - 1) * chunk * fma_s),
        # Weight scales, zero terms, and the add/subtract per group.
        phase("recombine", 4 * chunk, chunk * 72,
              recombine, 4 * chunk * fma_s),
    ]


def format_phases(phases: List[Phase]) -> List[str]:
    total = sum(p.measured_s for p in phases)
    lines = [f"  {'phase':<14}{'elements':>10}{'bytes':>10}{'measured us':>13}"
             f"{'share':>7}{'GB/s':>7}{'bound us':>10}{'achieved':>10}"]
    for p in phases:
        lines.append(
            f"  {p.name:<14}{p.elements:>10}{p.bytes_moved:>10}"
            f"{p.measured_s * 1e6:>13.1f}{p.measured_s / total:>7.2f}"
            f"{p.bytes_moved / p.measured_s / 1e9:>7.1f}"
            f"{p.bound_s * 1e6:>10.1f}{p.bound_s / p.measured_s:>10.2f}")
    bound = sum(p.bound_s for p in phases)
    lines.append(f"  {'sum':<14}{'':>20}{total * 1e6:>13.1f}{1.0:>7.2f}{'':>7}"
                 f"{bound * 1e6:>10.1f}{bound / total:>10.2f}")
    return lines


def format_layer_summary(measured) -> List[str]:
    """One transformer layer as seven separate projections and as the four
    operators the model binds: calls, summed phase time and the share of
    it spent on the per-activation phases (``lut_build`` + ``fused_expand``)."""
    lines = ["", "per layer: 7 separate projections vs 4 fused operators",
             f"  {'model':<14}{'N':>3}{'calls':>7}{'total us':>10}"
             f"{'per-activation us':>19}{'share':>7}"]
    for model, (h, i) in MODELS.items():
        layouts = {
            7: [(h, h)] * 4 + [(i, h)] * 2 + [(h, i)],
            4: [(3 * h, h), (h, h), (2 * i, h), (h, i)],
        }
        for n in ROWS:
            for calls, shapes in layouts.items():
                phases = [p for m, k in shapes
                          for p in measured[model, m, k, n]]
                total = sum(p.measured_s for p in phases)
                shared = sum(p.measured_s for p in phases
                             if p.name in ("lut_build", "fused_expand"))
                lines.append(
                    f"  {model:<14}{n:>3}{calls:>7}{total * 1e6:>10.1f}"
                    f"{shared * 1e6:>19.1f}{shared / total:>7.2f}")
    return lines


def main() -> int:
    raise_malloc_thresholds()
    probes = host_probes()
    print("# kernel phases vs host bounds (benchmarks/kernel_phases.py); "
          f"numpy {np.__version__}, bits={BITS}, g={TMACConfig().g}")
    print("# host micro-probes, ns per element:")
    for name, seconds in probes.items():
        print(f"#   {name:<22}{seconds * 1e9:8.3f}")
    print(f"#   (contiguous copy: {2e-9 / probes['copy_byte']:.1f} GB/s "
          "read + written)")
    measured = {}
    for model, m, k in SHAPES:
        for n in ROWS:
            print(f"\n{model}  M={m} K={k} N={n} "
                  f"group_size={pick_group_size(k, GROUP_SIZE)}")
            phases = measured[model, m, k, n] = measure_phases(m, k, n,
                                                              probes)
            print("\n".join(format_phases(phases)))
    print("\n".join(format_layer_summary(measured)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
