"""Tests of the benchmark's own machinery (not part of tier-1).

    PYTHONPATH=src python -m pytest bench/tests -q
"""

import json
import multiprocessing
import os
import threading

import numpy as np
import pytest

from bench import run as bench_run  # first: puts src/ on the path
from bench import stats
from bench.check_repeat import worsening
from bench.hostspeed import HostSpeed
from bench.inputs import (arrival_schedule, shared_prefix_prompts,
                          unique_prompts)
from bench.tracer import Tracer, aggregate

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(10)), 95)  # the old "p95 of 10" = max
    with pytest.raises(stats.TooFewSamples):
        stats.percentile(list(range(199)), 95)
    assert stats.percentile(list(range(1, 201)), 95) == 190
    assert stats.percentile(list(range(1, 101)), 90) == 90
    with pytest.raises(ValueError):
        stats.percentile(list(range(1000)), 50)
    assert stats.median([3.0, 1.0, 2.0]) == 2.0


def test_quartile_spread_is_iqr_over_median():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert stats.quartile_spread(values) == pytest.approx(
        (17.25 - 11.75) / 14.5)


def test_inputs_are_a_pure_function_of_the_seed():
    def draw(seed):
        rng = np.random.default_rng(seed)
        taken = set()
        prompts = unique_prompts(rng, 50, 97, 4, 12, taken)
        prefixes = unique_prompts(rng, 16, 97, 96, 96, set())
        shared = shared_prefix_prompts(rng, 50, 97, prefixes, 4, 0.8, 4,
                                       taken)
        return prompts, shared, arrival_schedule(rng, 8.0, 200)

    first, second, other = draw(7), draw(7), draw(8)
    assert first[0] == second[0] and first[1] == second[1]
    assert np.array_equal(first[2], second[2])
    assert first[0] != other[0]
    assert not np.array_equal(first[2], other[2])

    prompts, shared, due = first
    assert len({tuple(p) for p in prompts + shared}) == 100
    assert all(4 <= len(p) <= 12 for p in prompts)
    assert all(len(p) == 100 for p in shared)
    assert np.all(np.diff(due) > 0) and len(due) == 200
    # 200 arrivals at 8/s take about 25 s.
    assert 18 < due[-1] < 33


def test_span_self_time_nested_and_siblings():
    tracer = Tracer()
    outer = tracer.record("outer", 0.0, 10.0)
    first = tracer.record("child", 1.0, 4.0, parent=outer)
    tracer.record("child", 5.0, 7.0, parent=outer)
    tracer.record("leaf", 2.0, 3.0, parent=first)
    rows = aggregate(tracer.closed())
    assert rows["outer"] == {"count": 1, "total": 10.0, "self": 5.0}
    assert rows["child"] == {"count": 2, "total": 5.0, "self": 4.0}
    assert rows["leaf"] == {"count": 1, "total": 1.0, "self": 1.0}
    assert sum(row["self"] for row in rows.values()) == 10.0


def test_wrap_nests_on_one_thread_and_unwrap_restores():
    class Kernel:
        def precompute(self, x):
            return x + 1

        def matmul(self, x):
            return self.precompute(x) * 2

    kernel, tracer = Kernel(), Tracer()
    kernel.matmul = kernel.matmul  # an instance attribute that must survive
    kept = vars(kernel)["matmul"]
    tracer.wrap(kernel, "precompute", "core.precompute")
    tracer.wrap(kernel, "matmul", "core.matmul",
                count=lambda x: {"calls": 1})
    assert kernel.matmul(1) == 4

    def other_thread():
        kernel.matmul(2)
    thread = threading.Thread(target=other_thread)
    thread.start()
    thread.join(5)
    assert not thread.is_alive()

    spans = tracer.closed()
    assert [s[0] for s in spans] == ["core.matmul", "core.precompute"] * 2
    assert spans[1][3] is spans[0] and spans[3][3] is spans[2]
    assert spans[0][3] is None and spans[2][3] is None
    assert tracer.counts["calls"] == 2
    tracer.unwrap_all()
    assert "precompute" not in vars(kernel)
    assert vars(kernel)["matmul"] is kept


@pytest.mark.parametrize("kind", ["numeric", "interpreter"])
def test_host_speed_factor_is_window_median_over_reference(kind):
    speed = HostSpeed(kind)
    factor = speed.sample()
    assert factor == pytest.approx(speed.samples[0][1] / speed.reference_ms)
    assert 0.2 < factor < 5  # the reference is this class of host's
    speed.samples = [(1.0, 2.0), (2.0, 4.0), (3.0, 9.0), (9.0, 100.0)]
    assert speed.factor_between(0.5, 3.5) == pytest.approx(
        4.0 / speed.reference_ms)
    assert speed.median_ms() == pytest.approx(6.5)


def test_worsening_is_signed_by_direction():
    assert worsening(10.0, 11.0, "lower") == pytest.approx(0.1)
    assert worsening(10.0, 11.0, "higher") == pytest.approx(-0.1)
    assert worsening(10.0, 9.0, "higher") == pytest.approx(0.1)


@pytest.mark.parametrize("trace", [0, 1])
def test_result_matches_benchmark_json_and_nothing_is_left_running(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        benchmark = json.load(handle)
    assert [w["name"] for w in benchmark["workloads"]] == \
        list(bench_run.WORKLOADS)
    assert benchmark["paths"] == ["bench"]

    doc = bench_run.run_workload("gateway_unshared", seed=5, seconds=1.2,
                                 trace=bool(trace))
    result = doc["result"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = benchmark["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in listed]
    for spec in listed:
        metric = result["metrics"][spec["name"]]
        assert metric["unit"] == spec["unit"]
        assert isinstance(metric["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["kvcache.prefix_hit_rate"]["value"] == 0
        assert result["metrics"]["serving.steps"]["value"] > 0
        with open(os.path.join(bench_run.RESULTS_DIR,
                               "trace_gateway_unshared.json")) as handle:
            dumped = json.load(handle)
        names = {span[0] for span in dumped["spans"]}
        assert {"serving.step", "llm.forward", "core.precompute",
                "core.matmul_with_table", "server.submit",
                "server.engine_ttft", "client.request.open",
                "client.ttft"} <= names

    assert multiprocessing.active_children() == []
    assert threading.enumerate() == [threading.main_thread()]
