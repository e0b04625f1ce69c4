"""Sample statistics shared by the harness, ``check_repeat`` and the tests."""

from __future__ import annotations

import math
import statistics
from typing import Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it (choosing-metrics guide, section 1).
MIN_SAMPLES_BEYOND = 10


class TooFewSamples(ValueError):
    """The sample cannot support the requested percentile."""


def median(samples: Sequence[float]) -> float:
    if not samples:
        raise TooFewSamples("median of no samples")
    return float(statistics.median(samples))


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank ``q``-th percentile (``50 < q < 100``) of ``samples``.

    Refuses (``TooFewSamples``) unless at least ``MIN_SAMPLES_BEYOND``
    samples lie beyond the percentile: with 10 requests a "p95" is the
    maximum, which is what the old ``benchmarks/`` gateway table printed.
    """
    if not 50 < q < 100:
        raise ValueError(f"tail percentile must be in (50, 100), got {q}")
    n = len(samples)
    beyond = math.floor(n * (100 - q) / 100 + 1e-9)
    if beyond < MIN_SAMPLES_BEYOND:
        raise TooFewSamples(
            f"p{q:g} of {n} samples leaves {beyond} beyond it "
            f"(need {MIN_SAMPLES_BEYOND})")
    return float(sorted(samples)[n - beyond - 1])


def quartile_spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the repeat gate)."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(statistics.median(values))
