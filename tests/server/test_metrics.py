"""Prometheus-text metrics primitives and the gateway metric set."""

import threading

import pytest

from repro.server.metrics import (
    Counter,
    Gauge,
    GatewayMetrics,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_inc_and_render(self):
        counter = Counter("requests_total", "Requests.")
        counter.inc()
        counter.inc(2)
        lines = counter.render()
        assert "# HELP requests_total Requests." in lines
        assert "# TYPE requests_total counter" in lines
        assert "requests_total 3" in lines

    def test_labels(self):
        counter = Counter("http_total", "By path/status.",
                          label_names=("path", "status"))
        counter.inc(path="/healthz", status="200")
        counter.inc(path="/healthz", status="200")
        counter.inc(path="/metrics", status="200")
        assert counter.value(path="/healthz", status="200") == 2
        rendered = "\n".join(counter.render())
        assert 'http_total{path="/healthz",status="200"} 2' in rendered
        assert 'http_total{path="/metrics",status="200"} 1' in rendered

    def test_wrong_labels_rejected(self):
        counter = Counter("x_total", "X.", label_names=("path",))
        with pytest.raises(ValueError):
            counter.inc(status="200")

    def test_set_total_mirrors_external_counter(self):
        counter = Counter("preemptions_total", "Engine counter.")
        counter.set_total(7)
        counter.set_total(9)  # scrape-time mirror, no accumulation
        assert counter.value() == 9

    def test_unlabelled_counter_renders_zero(self):
        assert "empty_total 0" in Counter("empty_total", "E.").render()


class TestGauge:
    def test_set_and_render(self):
        gauge = Gauge("queue_depth", "Waiting.")
        gauge.set(5)
        assert "queue_depth 5" in gauge.render()
        gauge.set(2.5)
        assert "queue_depth 2.5" in gauge.render()


class TestHistogram:
    def test_cumulative_buckets(self):
        hist = Histogram("lat_seconds", "Latency.", buckets=(0.01, 0.1, 1))
        for value in (0.005, 0.05, 0.5, 5.0):
            hist.observe(value)
        rendered = "\n".join(hist.render())
        assert 'lat_seconds_bucket{le="0.01"} 1' in rendered
        assert 'lat_seconds_bucket{le="0.1"} 2' in rendered
        assert 'lat_seconds_bucket{le="1"} 3' in rendered
        assert 'lat_seconds_bucket{le="+Inf"} 4' in rendered
        assert "lat_seconds_count 4" in rendered
        assert hist.count == 4

    def test_quantile_estimate(self):
        hist = Histogram("q_seconds", "Q.", buckets=(0.01, 0.1, 1))
        for _ in range(99):
            hist.observe(0.005)
        hist.observe(0.5)
        assert hist.quantile(0.5) == 0.01
        assert hist.quantile(1.0) == 1
        assert hist.quantile(0.0) == 0.01
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_empty_quantile_is_zero(self):
        assert Histogram("e_s", "E.", buckets=(1,)).quantile(0.5) == 0.0

    def test_needs_buckets(self):
        with pytest.raises(ValueError):
            Histogram("b_s", "B.", buckets=())

    def test_thread_safety_smoke(self):
        hist = Histogram("t_s", "T.", buckets=(0.5,))

        def observe():
            for _ in range(1000):
                hist.observe(0.1)

        threads = [threading.Thread(target=observe) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert hist.count == 4000


class TestRegistry:
    def test_duplicate_names_rejected(self):
        registry = MetricsRegistry()
        registry.gauge("a", "A.")
        with pytest.raises(ValueError):
            registry.counter("a", "Again.")

    def test_render_concatenates_in_order(self):
        registry = MetricsRegistry()
        registry.gauge("first", "1.").set(1)
        registry.counter("second_total", "2.").inc()
        text = registry.render()
        assert text.index("first") < text.index("second_total")
        assert text.endswith("\n")


class TestGatewayMetrics:
    def test_engine_snapshot_mirroring(self):
        metrics = GatewayMetrics("gw")
        stats = {
            "preemptions": 3,
            "capacity_failures": 1,
            "deadline_expirations": 2,
            "global_plan_cache_hits": 30,
            "global_plan_cache_misses": 10,
            "prefix_hit_rate": 0.5,
            "kv_free_blocks": 12,
        }
        metrics.observe_engine(stats, queue_depth=4)
        text = metrics.render()
        assert "gw_queue_depth 4" in text
        assert "gw_preemptions_total 3" in text
        assert "gw_capacity_failures_total 1" in text
        assert "gw_deadline_expirations_total 2" in text
        assert "gw_plan_cache_hit_rate 0.75" in text
        assert "gw_prefix_cache_hit_rate 0.5" in text
        assert "gw_kv_free_pages 12" in text

    def test_kernel_counters_mirrored(self):
        """The compiled-kernel counters reach ``/metrics``; no executor
        family other than the thread pool's is rendered."""
        metrics = GatewayMetrics("gw")
        metrics.observe_engine({"specialize_builds": 2,
                                "specialize_calls": 40,
                                "process_dispatches": 5}, queue_depth=0)
        text = metrics.render()
        assert "gw_specialized_kernel_builds_total 2" in text
        assert "gw_specialized_span_calls_total 40" in text
        assert "_process_" not in text

    def test_timing_samples_feed_histograms(self):
        metrics = GatewayMetrics()
        metrics.observe_timing({"ttft_s": [0.004, 0.02],
                                "decode_step_s": [0.002]})
        assert metrics.ttft.count == 2
        assert metrics.token_latency.count == 1
        text = metrics.render()
        assert "gateway_ttft_seconds_count 2" in text
        assert "gateway_token_latency_seconds_count 1" in text

    def test_unpaged_engine_renders_sentinels(self):
        metrics = GatewayMetrics()
        metrics.observe_engine({"preemptions": 0}, queue_depth=0)
        text = metrics.render()
        assert "gateway_kv_free_pages -1" in text
        assert "gateway_prefix_cache_hit_rate -1" in text
