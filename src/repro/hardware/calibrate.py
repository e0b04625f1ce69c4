"""Host calibration: measured per-term overheads for the cost model.

The roofline model (:mod:`repro.hardware.cost_model`) predicts latencies
for the *paper's* devices from first principles.  This module grounds the
repo on the machine it actually runs on: it executes a handful of small
mpGEMV/mpGEMM probes with the real kernels, times the pipeline phases, and
fits one linear coefficient per cost term —

* **LUT build** — ``precompute`` seconds vs. table elements built,
* **gather** — codes-dot seconds vs. table indices fetched:
  ``M * QG * steps * bits`` lookups with ``steps = ceil(gpq / f)`` (one
  index looks up ``f = fusion_width(g)`` groups) plus the
  ``f * QG * steps * 2**(g*f)`` fetches that expand the byte-wide table
  once per activation — *not* times ``N``: the row-minor table returns
  all ``N`` activation rows per index, so the lookup cost is amortised
  over rows.  On the native path (``g = 4``, :mod:`repro.core.native`)
  the term counts shuffles instead, ``N * ceil(M / 32) * K/g * bits``:
  one per 32 lookups of one row, with no table expansion,
* **aggregate** — vs. per-quantization-group block sums carried through
  the float epilogue (``N * M * QG * bits``),
* **recombine** — vs. scale/zero recombination iterations
  (``N * M * QG``),

plus a constant per phase (the per-call dispatch overhead the
specialization work attacks).

The fitted :class:`CalibrationProfile` round-trips through JSON
(:meth:`CalibrationProfile.save` / :meth:`CalibrationProfile.load`).

Command line::

    python -m repro.hardware.calibrate --out calibration.json [--quick]
"""

from __future__ import annotations

import argparse
import json
import time
from dataclasses import asdict, dataclass, field, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "ProbeShape",
    "ProbeResult",
    "CalibrationProfile",
    "calibrate",
    "PROBE_SHAPES",
    "QUICK_PROBE_SHAPES",
]

#: Default probe set: ``(n, m, k, bits, group_size)``.  Shapes vary every
#: feature axis independently — N (decode vs. small prefill), M/K (work
#: volume), bits (gather/aggregate vs. recombine ratio) and group size
#: (aggregate vs. gather ratio) — so the least-squares fit can tell the
#: four cost terms apart.
PROBE_SHAPES: Tuple[Tuple[int, int, int, int, int], ...] = (
    (1, 256, 1024, 4, 128),
    (1, 512, 2048, 4, 128),
    (1, 1024, 4096, 4, 128),
    (1, 1024, 4096, 2, 128),
    (1, 512, 2048, 2, 64),
    (1, 1024, 2048, 4, 64),
    (4, 512, 2048, 4, 128),
    (8, 256, 1024, 4, 128),
    (2, 1024, 2048, 3, 128),
)

#: Reduced probe set of ``calibrate --quick`` (and the live accuracy gate).
QUICK_PROBE_SHAPES: Tuple[Tuple[int, int, int, int, int], ...] = (
    (1, 256, 1024, 4, 128),
    (1, 512, 2048, 4, 128),
    (1, 512, 2048, 2, 128),
    (1, 512, 1024, 4, 64),
    (4, 256, 1024, 4, 128),
)

@dataclass(frozen=True)
class ProbeShape:
    """One calibration probe: a concrete mpGEMV/mpGEMM problem."""

    n: int
    m: int
    k: int
    bits: int
    group_size: int


@dataclass
class ProbeResult:
    """Measured and (post-fit) predicted timings for one probe."""

    shape: ProbeShape
    lut_elems: int
    gather_elems: int
    aggregate_elems: int
    recombine_iters: int
    lut_build_s: float
    span_s: float  # codes-dot + recombine (matmul given a prebuilt table)
    total_s: float  # lut_build_s + span_s
    predicted_s: float = 0.0

    @property
    def relative_error(self) -> float:
        """``|predicted - measured| / measured`` of the total latency."""
        if self.total_s <= 0:
            return 0.0
        return abs(self.predicted_s - self.total_s) / self.total_s


#: Keys of profiles written while calibration raced two gather drivers or
#: swept chunk budgets; :meth:`CalibrationProfile.from_dict` ignores them.
_RETIRED_KEYS = frozenset({"gather_variant", "gather_timings_s",
                           "chunk_elements", "chunk_timings_s"})


@dataclass
class CalibrationProfile:
    """Fitted per-term overheads of this host, with the evidence attached.

    ``coefficients`` maps term names to seconds-per-unit:

    ``lut_base_s`` / ``lut_per_elem_s``
        LUT-build phase: constant + per-table-element cost.
    ``span_base_s`` / ``gather_per_elem_s`` / ``aggregate_per_elem_s`` /
    ``recombine_per_iter_s``
        Codes-dot + recombination phase: constant, per table index
        fetched, per aggregated block sum, per recombination iteration.

    The probes used for the fit are kept (measured *and* predicted), so
    the profile is self-validating: :meth:`max_relative_error` reports the
    in-sample fit quality the acceptance gate checks.
    """

    host: str
    cores: int
    numpy_version: str
    repeats: int
    coefficients: Dict[str, float]
    probes: List[ProbeResult] = field(default_factory=list)
    version: int = 1

    # -- prediction ----------------------------------------------------- #

    def predict_lut_seconds(self, lut_elems: int) -> float:
        """Predicted LUT-build (precompute) latency."""
        c = self.coefficients
        return c["lut_base_s"] + c["lut_per_elem_s"] * lut_elems

    def predict_span_seconds(self, gather_elems: int, aggregate_elems: int,
                             recombine_iters: int) -> float:
        """Predicted codes-dot + recombination latency."""
        c = self.coefficients
        return (c["span_base_s"]
                + c["gather_per_elem_s"] * gather_elems
                + c["aggregate_per_elem_s"] * aggregate_elems
                + c["recombine_per_iter_s"] * recombine_iters)

    def predict_gemm_seconds(self, n: int, m: int, k: int, config,
                             group_size: int = 128) -> float:
        """Predicted end-to-end mpGEMM latency (LUT build + matmul)."""
        feats = _features(ProbeShape(n, m, k, config.bits, group_size), config)
        lut_elems, gather_elems, aggregate_elems, recombine_iters = feats
        return (self.predict_lut_seconds(lut_elems)
                + self.predict_span_seconds(gather_elems, aggregate_elems,
                                            recombine_iters))

    def predict_gemv_seconds(self, m: int, k: int, config,
                             group_size: int = 128) -> float:
        """Predicted mpGEMV latency (N=1)."""
        return self.predict_gemm_seconds(1, m, k, config, group_size)

    def max_relative_error(self, gemv_only: bool = False) -> float:
        """Worst in-sample prediction error across the fitted probes.

        ``gemv_only`` restricts to the N=1 probes — the decode-regime
        latencies the acceptance gate depends on.
        """
        probes = [p for p in self.probes if p.shape.n == 1 or not gemv_only]
        if not probes:
            return 0.0
        return max(p.relative_error for p in probes)

    # -- persistence ---------------------------------------------------- #

    def to_dict(self) -> dict:
        """JSON-serializable representation."""
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "CalibrationProfile":
        """Inverse of :meth:`to_dict`."""
        probes = [
            ProbeResult(shape=ProbeShape(**p.pop("shape")), **p)
            for p in [dict(p) for p in payload.get("probes", ())]
        ]
        fields = {k: v for k, v in payload.items()
                  if k != "probes" and k not in _RETIRED_KEYS}
        return cls(probes=probes, **fields)

    def save(self, path: str) -> None:
        """Write the profile as pretty-printed JSON."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "CalibrationProfile":
        """Read a profile previously written by :meth:`save`."""
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))


# --------------------------------------------------------------------- #
# Probe execution
# --------------------------------------------------------------------- #


def _features(shape: ProbeShape, config) -> Tuple[int, int, int, int]:
    """(lut_elems, gather_elems, aggregate_elems, recombine_iters)."""
    from repro.core.lut import fusion_width
    from repro.core.specialize import runs_native

    groups = shape.k // config.g
    qgroups = shape.k // shape.group_size
    f = fusion_width(config.g)
    fused = qgroups * -(-(shape.group_size // config.g) // f)  # QG * steps
    lut_elems = shape.n * groups * config.table_length
    if runs_native(config, shape.group_size):
        # The native phase: one shuffle per row answers 32 lookups, and
        # no table is expanded.
        gather_elems = shape.n * -(-shape.m // 32) * groups * shape.bits
    else:
        # One fetch serves N rows, in the lookups and in the expansion.
        gather_elems = (shape.m * fused * shape.bits
                        + f * (fused << (config.g * f)))
    aggregate_elems = shape.n * shape.m * qgroups * shape.bits
    recombine_iters = shape.n * shape.m * qgroups
    return lut_elems, gather_elems, aggregate_elems, recombine_iters


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    """Minimum of ``repeats`` timed calls, after one untimed warmup.

    The warmup absorbs one-time costs (specialization compile, numpy
    buffer allocation); the minimum estimates the noise-free cost — every
    perturbation (scheduler preemption, frequency transitions) only ever
    adds time, so the fastest observation is the cleanest one.
    """
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _probe_kernel(shape: ProbeShape, config):
    """Deterministic kernel + activation for one probe shape."""
    from repro.core.kernel import TMACKernel
    from repro.quant.uniform import quantize_weights

    seed = hash((shape.n, shape.m, shape.k, shape.bits,
                 shape.group_size)) & 0x7FFFFFFF
    rng = np.random.default_rng(seed)
    w = rng.standard_normal((shape.m, shape.k)).astype(np.float32)
    qw = quantize_weights(w, bits=shape.bits, group_size=shape.group_size)
    kernel = TMACKernel(qw, config)
    a = rng.standard_normal((shape.n, shape.k)).astype(np.float32)
    return kernel, a


def _probe_config(bits: int):
    """The probe kernel configuration: the serial integer-kernel hot path."""
    from repro.core.config import TMACConfig

    return TMACConfig(bits=bits, executor="vectorized")


#: Timing rounds of the probe set per requested repeat.
_ROUNDS_PER_REPEAT = 4


def _run_probes(shapes: Sequence[ProbeShape],
                repeats: int) -> List[ProbeResult]:
    """Time the LUT-build and matmul phases of every probe shape.

    A round times each phase of each probe once, and a phase keeps its
    minimum over ``repeats * _ROUNDS_PER_REPEAT`` rounds (the first one,
    which pays one-time costs such as the kernel compile, included).
    Interleaving the probes spreads a slow spell of a shared host over
    all of them instead of skewing the one being timed, which the fit
    would otherwise read as a cost term.
    """
    phases = []
    for shape in shapes:
        kernel, a = _probe_kernel(shape, _probe_config(shape.bits))
        table = kernel.precompute(a)
        phases.append((
            lambda kernel=kernel, a=a: kernel.precompute(a),
            # A fresh memo per call: the span pays the table expansion,
            # as the first kernel consuming an activation's table does.
            lambda kernel=kernel, a=a, table=table: kernel.matmul_with_table(
                a, replace(table, _row_minor=None))))
    best = [[float("inf")] * 2 for _ in shapes]
    for _ in range(repeats * _ROUNDS_PER_REPEAT):
        for timings, probe in zip(best, phases):
            for i, fn in enumerate(probe):
                t0 = time.perf_counter()
                fn()
                timings[i] = min(timings[i], time.perf_counter() - t0)
    results = []
    for shape, (lut_s, span_s) in zip(shapes, best):
        feats = _features(shape, _probe_config(shape.bits))
        results.append(ProbeResult(
            shape=shape,
            lut_elems=feats[0],
            gather_elems=feats[1],
            aggregate_elems=feats[2],
            recombine_iters=feats[3],
            lut_build_s=lut_s,
            span_s=span_s,
            total_s=lut_s + span_s,
        ))
    return results


# --------------------------------------------------------------------- #
# Fitting
# --------------------------------------------------------------------- #


def _nonnegative_lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Least squares with coefficients clamped to ``>= 0``.

    Cost coefficients are physical (seconds per unit of work); a plain
    ``lstsq`` can go slightly negative on noisy, nearly-collinear columns
    (gather vs. aggregate differ only by the ``group_size/g`` ratio).
    Iteratively zeroing the most negative coefficient and refitting the
    rest keeps predictions monotone in every feature.
    """
    active = list(range(design.shape[1]))
    coef = np.zeros(design.shape[1])
    while active:
        sub, *_ = np.linalg.lstsq(design[:, active], target, rcond=None)
        if (sub >= 0).all():
            coef[active] = sub
            break
        worst = active[int(np.argmin(sub))]
        active.remove(worst)
    return coef


def _relative_lstsq(design: np.ndarray, target: np.ndarray) -> np.ndarray:
    """Non-negative least squares on *relative* residuals.

    Each equation is scaled by ``1 / measured`` before solving, so the fit
    minimizes ``sum(((pred - meas) / meas)^2)`` instead of absolute error.
    Without this the multi-millisecond probes dominate and the fit happily
    mispredicts sub-millisecond decode shapes by 30%+ — the decode shapes
    the accuracy gate checks.
    """
    weights = 1.0 / np.maximum(target, 1e-9)
    return _nonnegative_lstsq(design * weights[:, None], target * weights)


def _fit(probes: Sequence[ProbeResult]) -> Dict[str, float]:
    """Fit the per-term coefficients from the probe timings."""
    lut_design = np.array([[1.0, p.lut_elems] for p in probes])
    lut_target = np.array([p.lut_build_s for p in probes])
    lut_coef = _relative_lstsq(lut_design, lut_target)

    span_design = np.array([
        [1.0, p.gather_elems, p.aggregate_elems, p.recombine_iters]
        for p in probes
    ])
    span_target = np.array([p.span_s for p in probes])
    span_coef = _relative_lstsq(span_design, span_target)

    return {
        "lut_base_s": float(lut_coef[0]),
        "lut_per_elem_s": float(lut_coef[1]),
        "span_base_s": float(span_coef[0]),
        "gather_per_elem_s": float(span_coef[1]),
        "aggregate_per_elem_s": float(span_coef[2]),
        "recombine_per_iter_s": float(span_coef[3]),
    }


# --------------------------------------------------------------------- #
# Entry points
# --------------------------------------------------------------------- #


def calibrate(
    shapes: Optional[Sequence[Tuple[int, int, int, int, int]]] = None,
    repeats: int = 5,
    quick: bool = False,
) -> CalibrationProfile:
    """Run the probes, fit the cost terms, return the host profile.

    ``quick=True`` uses the reduced probe set and fewer repeats.
    """
    import platform

    from repro.core.config import usable_cpus

    if quick:
        shapes = shapes or QUICK_PROBE_SHAPES
        repeats = min(repeats, 3)
    else:
        shapes = shapes or PROBE_SHAPES

    probes = _run_probes([ProbeShape(*spec) for spec in shapes], repeats)
    coefficients = _fit(probes)

    profile = CalibrationProfile(
        host=platform.node() or "unknown",
        cores=usable_cpus(),
        numpy_version=np.__version__,
        repeats=repeats,
        coefficients=coefficients,
        probes=probes,
    )
    for probe in profile.probes:
        probe.predicted_s = profile.predict_gemm_seconds(
            probe.shape.n, probe.shape.m, probe.shape.k,
            _probe_config(probe.shape.bits), probe.shape.group_size)
    return profile


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: calibrate this host and write the profile JSON."""
    parser = argparse.ArgumentParser(
        description="Measure per-term kernel overheads on this host")
    parser.add_argument("--out", default="calibration.json",
                        help="output profile path (default: %(default)s)")
    parser.add_argument("--repeats", type=int, default=5,
                        help="timed repetitions per probe (minimum taken)")
    parser.add_argument("--quick", action="store_true",
                        help="reduced probe set (faster, less precise)")
    args = parser.parse_args(argv)

    profile = calibrate(repeats=args.repeats, quick=args.quick)
    profile.save(args.out)
    worst = profile.max_relative_error()
    print(f"calibrated {profile.host}: worst fit error {worst:.1%}")
    for name, value in sorted(profile.coefficients.items()):
        print(f"  {name:>22s} = {value:.3e}")
    print(f"profile written to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
