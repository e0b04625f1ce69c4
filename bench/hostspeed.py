"""Host-speed probes: the unit most end-to-end metrics are expressed in.

On the 2-core reference host the same code runs up to 25 % slower or
faster for tens of seconds at a time, which is wider than any regression
bound worth having and is not cured by a longer run.  A small fixed piece
of work that uses nothing from ``src/`` is therefore timed *inside* the
measured window, and end-to-end values are scaled to what they would be if
that probe took its reference time::

    rate_at_reference = raw_rate * probe_ms / REFERENCE_MS
    time_at_reference = raw_time * REFERENCE_MS / probe_ms

A change to the program moves the scaled value by exactly the share it
moves the raw one; the host's mood largely cancels.  Different code follows
that mood by different factors, so each workload uses the probe that was
measured to track it, and ``decode_single``'s token timings use none
(``bench/README.md``, "Host-speed scaling", has the numbers).
"""

from __future__ import annotations

import json
import statistics
import time
from typing import Callable, List, Tuple

import numpy as np

#: Quiet-host probe times: they only fix the scale, so that on a quiet
#: reference host scaled and raw values coincide.
NUMERIC_REFERENCE_MS = 2.2
INTERPRETER_REFERENCE_MS = 0.27


def _numeric_probe() -> Callable[[], None]:
    """An int8 table gather + widen + row sum, shaped like one LUT mpGEMV."""
    rng = np.random.default_rng(0)
    table = rng.integers(-127, 127, size=128 * 16, dtype=np.int8)
    codes = rng.integers(0, 16, size=(5504, 128), dtype=np.uint8)
    offsets = (np.arange(128) * 16)[None, :]

    def probe() -> None:
        table[codes + offsets].astype(np.int32).sum(axis=1)
    return probe


def _interpreter_probe() -> Callable[[], None]:
    """Pure-Python work of the kind a request costs: JSON round trips."""
    payload = {"choices": [{"token": 5, "index": 0, "finish_reason": None}],
               "id": "x" * 20}

    def probe() -> None:
        for _ in range(50):
            json.loads(json.dumps(payload))
    return probe


class HostSpeed:
    """Timestamped probe samples and the scale factors drawn from them.

    A factor is ``probe time / reference time``: above 1 on a slow host.
    """

    def __init__(self, kind: str) -> None:
        self.kind = kind
        if kind == "numeric":
            self._probe, self.reference_ms = (_numeric_probe(),
                                              NUMERIC_REFERENCE_MS)
        else:
            self._probe, self.reference_ms = (_interpreter_probe(),
                                              INTERPRETER_REFERENCE_MS)
        self.samples: List[Tuple[float, float]] = []  # (when, probe ms)
        self._probe()

    def sample(self, repeats: int = 5) -> float:
        """Time the probe ``repeats`` times after one untimed run (the
        program under test has just evicted the probe's data from cache;
        how cold it left them must not leak into the factor).  Records the
        median and returns its factor."""
        self._probe()
        times = []
        for _ in range(repeats):
            start = time.perf_counter()
            self._probe()
            times.append(time.perf_counter() - start)
        ms = statistics.median(times) * 1e3
        self.samples.append((time.perf_counter(), ms))
        return ms / self.reference_ms

    def factor_between(self, start: float, end: float) -> float:
        """Factor of the median sample taken in ``[start, end]``."""
        window = [ms for when, ms in self.samples if start <= when <= end]
        return statistics.median(window) / self.reference_ms

    def median_ms(self) -> float:
        return statistics.median(ms for _, ms in self.samples)


class ProbedClock:
    """A ``perf_counter`` that stands still while the probe runs.

    The closed-loop workloads probe between tokens and between engine
    steps, on the measuring thread; reading time through this clock keeps
    the probe's own cost out of every duration.
    """

    def __init__(self, speed: HostSpeed) -> None:
        self.speed = speed
        self._probing_s = 0.0
        self._factors: List[float] = []

    def now(self) -> float:
        return time.perf_counter() - self._probing_s

    def probe(self) -> None:
        start = time.perf_counter()
        self._factors.append(self.speed.sample(repeats=1))
        self._probing_s += time.perf_counter() - start

    def take_factor(self) -> float:
        """Median factor of the probes since the last call."""
        factor = statistics.median(self._factors)
        self._factors.clear()
        return factor
