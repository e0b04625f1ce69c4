"""Prometheus-style metrics for the serving gateway (stdlib only).

A deliberately small subset of the Prometheus client model — counters,
gauges and fixed-bucket histograms rendered in the text exposition format
(``text/plain; version=0.0.4``) — so the gateway's ``GET /metrics`` can be
scraped by a real Prometheus without adding a dependency.  All mutation is
lock-protected: samples arrive from the engine-runner thread while scrapes
render on the event-loop thread.

:class:`GatewayMetrics` wires the generic primitives to the serving
stack: request/streaming counters fed by the HTTP frontend, TTFT and
per-token-latency histograms fed from the engine's drained timing samples
(:meth:`repro.serving.engine.ServingEngine.drain_timing_samples` — no
monkey-patching), and scheduler/cache gauges mirrored from
``ServingEngine.serving_stats()`` at scrape time.
"""

from __future__ import annotations

import threading
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "GatewayMetrics",
    "TTFT_BUCKETS",
    "TOKEN_LATENCY_BUCKETS",
]

#: Default TTFT histogram buckets (seconds): sub-millisecond tiny-model
#: tests through multi-second edge-device prefills.
TTFT_BUCKETS = (0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25,
                0.5, 1.0, 2.5, 5.0, 10.0)

#: Default per-token (decode-step wall time) buckets, in seconds.
TOKEN_LATENCY_BUCKETS = (0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
                         0.05, 0.1, 0.25, 0.5, 1.0)


def _format_value(value: float) -> str:
    """Render a sample value the way Prometheus expects (ints bare)."""
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


def _format_labels(label_names: Sequence[str],
                   label_values: Sequence[str]) -> str:
    if not label_names:
        return ""
    pairs = ",".join(f'{name}="{value}"'
                     for name, value in zip(label_names, label_values))
    return "{" + pairs + "}"


class _Metric:
    """Base: name, help text, a lock, and the exposition-format header."""

    metric_type = "untyped"

    def __init__(self, name: str, help_text: str):
        self.name = name
        self.help_text = help_text
        self._lock = threading.Lock()

    def _header(self) -> List[str]:
        return [
            f"# HELP {self.name} {self.help_text}",
            f"# TYPE {self.name} {self.metric_type}",
        ]

    def render(self) -> List[str]:  # pragma: no cover - overridden
        raise NotImplementedError


class Counter(_Metric):
    """Monotonic counter, optionally labelled.

    ``inc()`` adds locally-observed events; ``set_total()`` mirrors a
    cumulative counter owned elsewhere (the engine's preemption count,
    for instance) without double-counting across scrapes.
    """

    metric_type = "counter"

    def __init__(self, name: str, help_text: str,
                 label_names: Sequence[str] = ()):
        super().__init__(name, help_text)
        self.label_names = tuple(label_names)
        self._values: Dict[Tuple[str, ...], float] = {}

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        key = self._key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + amount

    def set_total(self, value: float, **labels: str) -> None:
        """Overwrite the cumulative value (mirroring an external counter)."""
        with self._lock:
            self._values[self._key(labels)] = float(value)

    def value(self, **labels: str) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def _key(self, labels: Dict[str, str]) -> Tuple[str, ...]:
        if set(labels) != set(self.label_names):
            raise ValueError(
                f"{self.name} expects labels {self.label_names}, "
                f"got {tuple(labels)}"
            )
        return tuple(str(labels[name]) for name in self.label_names)

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            items = sorted(self._values.items())
        if not items and not self.label_names:
            items = [((), 0.0)]
        for key, value in items:
            lines.append(
                f"{self.name}{_format_labels(self.label_names, key)} "
                f"{_format_value(value)}"
            )
        return lines


class Gauge(_Metric):
    """A value that goes up and down (queue depth, free pages, ...)."""

    metric_type = "gauge"

    def __init__(self, name: str, help_text: str):
        super().__init__(name, help_text)
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def value(self) -> float:
        with self._lock:
            return self._value

    def render(self) -> List[str]:
        return self._header() + [
            f"{self.name} {_format_value(self.value())}"
        ]


class Histogram(_Metric):
    """Fixed-bucket cumulative histogram (Prometheus semantics).

    ``observe(v)`` increments every bucket whose upper bound is >= v plus
    the implicit ``+Inf`` bucket, and accumulates ``_sum``/``_count``.
    """

    metric_type = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float]):
        super().__init__(name, help_text)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._bucket_counts = [0] * len(bounds)
        self._count = 0
        self._sum = 0.0

    def observe(self, value: float) -> None:
        value = float(value)
        with self._lock:
            for i, bound in enumerate(self.bounds):
                if value <= bound:
                    self._bucket_counts[i] += 1
            self._count += 1
            self._sum += value

    def observe_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.observe(value)

    @property
    def count(self) -> int:
        with self._lock:
            return self._count

    def quantile(self, q: float) -> float:
        """Bucket-resolution quantile estimate (upper bound of the bucket).

        Good enough for test assertions and dashboards; the raw samples
        are not retained (Prometheus-style histograms never do).
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            if self._count == 0:
                return 0.0
            rank = q * self._count
            for bound, cumulative in zip(self.bounds, self._bucket_counts):
                if cumulative >= rank:
                    return bound
            return self.bounds[-1]

    def render(self) -> List[str]:
        lines = self._header()
        with self._lock:
            for bound, cumulative in zip(self.bounds, self._bucket_counts):
                lines.append(
                    f'{self.name}_bucket{{le="{_format_value(bound)}"}} '
                    f"{cumulative}"
                )
            lines.append(f'{self.name}_bucket{{le="+Inf"}} {self._count}')
            lines.append(f"{self.name}_sum {_format_value(self._sum)}")
            lines.append(f"{self.name}_count {self._count}")
        return lines


class MetricsRegistry:
    """Ordered collection of metrics with one-shot text rendering."""

    def __init__(self):
        self._metrics: List[_Metric] = []
        self._names: set = set()

    def register(self, metric: _Metric) -> _Metric:
        if metric.name in self._names:
            raise ValueError(f"duplicate metric name {metric.name!r}")
        self._names.add(metric.name)
        self._metrics.append(metric)
        return metric

    def counter(self, name: str, help_text: str,
                label_names: Sequence[str] = ()) -> Counter:
        return self.register(Counter(name, help_text, label_names))

    def gauge(self, name: str, help_text: str) -> Gauge:
        return self.register(Gauge(name, help_text))

    def histogram(self, name: str, help_text: str,
                  buckets: Sequence[float]) -> Histogram:
        return self.register(Histogram(name, help_text, buckets))

    def render(self) -> str:
        lines: List[str] = []
        for metric in self._metrics:
            lines.extend(metric.render())
        return "\n".join(lines) + "\n"


class GatewayMetrics:
    """The serving gateway's metric set over one :class:`MetricsRegistry`.

    The HTTP frontend feeds the request counters, the engine runner feeds
    the latency histograms from drained engine samples, and
    :meth:`observe_engine` mirrors the scheduler/cache counters from a
    ``serving_stats()`` snapshot (called after steps and at scrape time).
    """

    def __init__(self, namespace: str = "gateway"):
        ns = namespace
        registry = MetricsRegistry()
        self.registry = registry
        self.http_requests = registry.counter(
            f"{ns}_http_requests_total",
            "HTTP requests handled, by path and status code.",
            label_names=("path", "status"))
        self.backpressure_rejections = registry.counter(
            f"{ns}_backpressure_rejections_total",
            "Completions rejected with 429 because the admission queue "
            "was full.")
        self.client_disconnects = registry.counter(
            f"{ns}_client_disconnects_total",
            "Streaming requests cancelled because the client went away.")
        self.streamed_tokens = registry.counter(
            f"{ns}_streamed_tokens_total",
            "Tokens delivered over streaming responses.")
        self.completed_requests = registry.counter(
            f"{ns}_completed_requests_total",
            "Completions finished, by finish_reason.",
            label_names=("reason",))
        self.ttft = registry.histogram(
            f"{ns}_ttft_seconds",
            "Time from request submission to its first generated token.",
            buckets=TTFT_BUCKETS)
        self.token_latency = registry.histogram(
            f"{ns}_token_latency_seconds",
            "Wall time of one batched decode step (per-token latency).",
            buckets=TOKEN_LATENCY_BUCKETS)
        self.queue_depth = registry.gauge(
            f"{ns}_queue_depth",
            "Requests waiting for engine admission.")
        self.active_sessions = registry.gauge(
            f"{ns}_active_sessions",
            "Sessions currently decoding.")
        self.prefilling_sessions = registry.gauge(
            f"{ns}_prefilling_sessions",
            "Admitted sessions still working through their prompt.")
        self.kv_free_pages = registry.gauge(
            f"{ns}_kv_free_pages",
            "Free pages in the KV pool (-1 when the engine is unpaged).")
        self.preemptions = registry.counter(
            f"{ns}_preemptions_total",
            "Sessions preempted and requeued for recompute (engine "
            "counter).")
        self.capacity_failures = registry.counter(
            f"{ns}_capacity_failures_total",
            "Sessions failed because the KV pool can never hold their "
            "next step (engine counter).")
        self.deadline_expirations = registry.counter(
            f"{ns}_deadline_expirations_total",
            "Requests expired past their deadline (engine counter).")
        self.plan_cache_hit_rate = registry.gauge(
            f"{ns}_plan_cache_hit_rate",
            "Process-wide kernel-plan cache hit rate.")
        self.prefix_cache_hit_rate = registry.gauge(
            f"{ns}_prefix_cache_hit_rate",
            "Fraction of prompt tokens served from shared prefix pages "
            "(-1 when prefix caching is off).")
        self.specialize_builds = registry.counter(
            f"{ns}_specialized_kernel_builds_total",
            "Integer LUT kernels compiled (one per plan; process-wide "
            "counter).")
        self.specialize_calls = registry.counter(
            f"{ns}_specialized_span_calls_total",
            "Span executions routed through a compiled integer LUT "
            "kernel.")

    def observe_timing(self, samples: Dict[str, List[float]]) -> None:
        """Feed drained engine timing samples into the histograms."""
        self.ttft.observe_many(samples.get("ttft_s", ()))
        self.token_latency.observe_many(samples.get("decode_step_s", ()))

    def observe_engine(self, stats: Dict[str, float],
                       queue_depth: Optional[int] = None) -> None:
        """Mirror one ``ServingEngine.serving_stats()`` snapshot."""
        self.queue_depth.set(queue_depth if queue_depth is not None
                             else stats.get("queue_depth", 0))
        self.preemptions.set_total(stats.get("preemptions", 0))
        self.capacity_failures.set_total(stats.get("capacity_failures", 0))
        self.deadline_expirations.set_total(
            stats.get("deadline_expirations", 0))
        hits = stats.get("global_plan_cache_hits", 0)
        misses = stats.get("global_plan_cache_misses", 0)
        total = hits + misses
        self.plan_cache_hit_rate.set(hits / total if total else 0.0)
        self.prefix_cache_hit_rate.set(stats.get("prefix_hit_rate", -1.0))
        self.kv_free_pages.set(stats.get("kv_free_blocks", -1.0))
        self.specialize_builds.set_total(stats.get("specialize_builds", 0))
        self.specialize_calls.set_total(stats.get("specialize_calls", 0))

    def observe_counts(self, active: int, prefilling: int) -> None:
        self.active_sessions.set(active)
        self.prefilling_sessions.set(prefilling)

    def render(self) -> str:
        """The full ``GET /metrics`` payload (Prometheus text format)."""
        return self.registry.render()
