"""What the four workloads share: outcome bookkeeping, timed set-up,
outside-in instrumentation of a model, and the per-layer table."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.plan import clear_plan_cache, plan_cache_stats
from repro.core.specialize import specialize_stats
from repro.llm import Generator, TransformerModel

from bench import stats
from bench.hostspeed import HostSpeed
from bench.models import (ModelSpec, build_model, executor_parity_failures,
                          kernel_probes, setup_split)
from bench.tracer import Tracer, aggregate

#: Share of ``--seconds`` a ``--trace 1`` run spends untraced first, so
#: that ``trace.overhead_share`` compares like with like in one process.
UNTRACED_SHARE = 0.3

Metric = Tuple[float, str, int]  # value, unit, samples behind it


@dataclass
class Outcome:
    attempted: int = 0
    failed: int = 0
    failures: List[str] = field(default_factory=list)
    end_to_end: Dict[str, Metric] = field(default_factory=dict)
    per_layer: Dict[str, Metric] = field(default_factory=dict)
    info: Dict[str, Any] = field(default_factory=dict)
    tracer: Optional[Tracer] = None  # set by a traced run, dumped by run.py

    def check(self, ok: bool, what: str, count: int = 1) -> None:
        """Count ``count`` operations, all failed unless ``ok``."""
        self.attempted += count
        if not ok:
            self.failed += count
            self.failures.append(what)


def window_seconds(seconds: float, trace: bool) -> Tuple[float, float]:
    """Lengths of the untraced window and of the traced one after it."""
    if not trace:
        return seconds, 0.0
    return seconds * UNTRACED_SHARE, seconds * (1 - UNTRACED_SHARE)


def check_executor_parity(outcome: Outcome, model: TransformerModel,
                          rng: np.random.Generator) -> None:
    checked, bad = executor_parity_failures(model, rng)
    outcome.check(bad == 0, f"{bad} shapes differ from the loop executor",
                  checked)


@dataclass
class SetupReport:
    seconds: List[float]
    plan_hits: int
    plan_misses: int
    specialize_compiles: int


def timed_setups(build: Callable[[], Any], repeats: int, speed: HostSpeed,
                 teardown: Callable[[Any], None] = lambda _context: None
                 ) -> Tuple[Any, SetupReport]:
    """Run ``build`` (model + quantise + plan + warm-up) ``repeats`` times
    from a cold plan cache; keep the last context, time every one (scaled
    to reference host speed by a probe sample taken right after it)."""
    seconds: List[float] = []
    context = None
    for _ in range(repeats):
        if context is not None:
            teardown(context)
        clear_plan_cache()
        plans, compiles = plan_cache_stats(), specialize_stats()
        start = time.perf_counter()
        context = build()
        elapsed = time.perf_counter() - start
        seconds.append(elapsed / speed.sample())
    after = plan_cache_stats()
    return context, SetupReport(
        seconds=seconds,
        plan_hits=after["hits"] - plans["hits"],
        plan_misses=after["misses"] - plans["misses"],
        specialize_compiles=(specialize_stats()["specialize_builds"]
                             - compiles["specialize_builds"]))


def token_match_rate(spec: ModelSpec, weights: Dict,
                     prompts: Sequence[Sequence[int]],
                     generated: Sequence[Sequence[int]]) -> float:
    """Share of ``generated`` tokens equal to the sequential ``Generator``
    on a second model built from the same weights.

    A request is compared up to and including its first differing token:
    after a greedy flip the contexts differ, so later tokens say nothing.
    """
    _, model = build_model(spec, weights)
    generator = Generator(model)
    compared = matched = 0
    for prompt, tokens in zip(prompts, generated):
        expected = generator.generate(
            list(prompt), max_new_tokens=len(tokens)).generated_tokens
        same = next((i for i, (a, b) in enumerate(zip(tokens, expected))
                     if a != b), len(tokens))
        matched += same
        compared += min(same + 1, len(tokens))
    return matched / compared


# ---------------------------------------------------------------------- #
# Outside-in instrumentation
# ---------------------------------------------------------------------- #

def _rows(activation, *_args) -> int:
    shape = np.shape(activation)
    return int(shape[0]) if len(shape) > 1 else 1


def trace_model(tracer: Tracer, model: TransformerModel) -> None:
    """Wrap ``model.forward`` and every linear's kernel entry points."""
    tracer.wrap(model, "forward", "llm.forward",
                tag=lambda tokens, **_kw: int(np.size(tokens)))
    seen = set()
    for op in model.linears():
        kernel = op.kernel
        if id(kernel) in seen:
            continue
        seen.add(id(kernel))
        work = op.out_features * op.in_features
        weight_bytes = op.weight_bytes

        def lookup_counts(activation, *_args, _work=work, _bytes=weight_bytes):
            rows = _rows(activation)
            return {"lookup_calls": 1, "lookup_rows": rows,
                    "weight_rows": _work * rows, "weight_bytes": _bytes}

        tracer.wrap(kernel, "precompute", "core.precompute", tag=_rows)
        tracer.wrap(kernel, "matmul_with_table", "core.matmul_with_table",
                    tag=_rows, count=lookup_counts)
        tracer.wrap(kernel, "matmul", "core.matmul", tag=_rows,
                    count=lookup_counts)


def trace_engine_step(tracer: Tracer, engine) -> None:
    """``serving.step`` spans tagged ``[step index, decode batch size]``."""
    def make(inner):
        def step():
            span = tracer.begin("serving.step")
            try:
                summary = inner()
                span[4] = [int(tracer.counts["steps"]),
                           summary["batch_size"]]
                tracer.counts["steps"] += 1
                return summary
            finally:
                tracer.end(span)
        return step
    tracer.replace(engine, "step", make)


# ---------------------------------------------------------------------- #
# Per-layer table
# ---------------------------------------------------------------------- #

#: name -> unit of every per-layer metric, in table order.  A layer the
#: workload bypasses reports 0 (that *is* the measurement), as does a
#: tail percentile the sample cannot support.
PER_LAYER_UNITS: Dict[str, str] = {
    "core.lookup_ms_per_call": "ms", "core.lookup_share": "share",
    "core.lut_build_ms_per_call": "ms", "core.lut_build_share": "share",
    "core.calls_per_token": "count", "core.rows_per_call_mean": "count",
    "core.ns_per_weight_row": "ns", "core.weight_bytes": "bytes",
    "core.bytes_per_token": "bytes",
    "core.mpgemv_ms.b4": "ms", "core.mpgemv_ms.b2": "ms",
    "core.bit_scaling_ratio": "ratio", "core.mpgemv_ms.threads2": "ms",
    "quant.quantize_s": "s", "core.plan_build_s": "s",
    "core.plan_cache_hits": "count", "core.plan_cache_misses": "count",
    "core.specialize_compiles": "count",
    "llm.forward_ms_per_call": "ms", "llm.nonlinear_share": "share",
    "llm.token_ms_p75": "ms",
    "serving.steps": "count", "serving.step_ms_p50": "ms",
    "serving.mean_batch_size": "count", "serving.sched_share": "share",
    "serving.engine_ttft_ms_mean": "ms", "serving.lut_reuses": "count",
    "serving.lut_precomputes": "count", "serving.prefill_chunks": "count",
    "serving.token_match_rate": "share",
    "kvcache.prefix_hit_rate": "share", "kvcache.peak_kv_bytes": "bytes",
    "kvcache.reserved_bytes": "bytes", "kvcache.peak_shared_blocks": "count",
    "kvcache.preemptions": "count", "kvcache.capacity_failures": "count",
    "server.overhead_ttft_ms_p50": "ms", "server.ttft_p90_ms": "ms",
    "server.tpot_p90_ms": "ms", "server.slo_attainment": "share",
    "server.idle_share": "share", "server.http_429": "count",
    "server.requests_sent.open": "count", "server.requests_ok.open": "count",
    "server.requests_failed.open": "count",
    "server.requests_sent.sat": "count", "server.requests_ok.sat": "count",
    "server.requests_failed.sat": "count",
    "server.generator_lateness_ms_max": "ms",
    "hardware.host_probe_ms": "ms",
    "trace.overhead_share": "share", "trace.parts_vs_whole": "ratio",
    "trace.spans": "count",
}


def tail(samples: Sequence[float], q: float) -> float:
    try:
        return stats.percentile(samples, q)
    except stats.TooFewSamples:
        return 0.0


def layer_table(outcome: Outcome, tracer: Tracer, *, wall_s: float,
                tokens: int, token_gaps_ms: Sequence[float],
                setup: SetupReport, spec: ModelSpec, weights: Dict,
                model: TransformerModel, speed: HostSpeed,
                traced_tok_s: float, untraced_tok_s: float,
                serving: Optional[Dict[str, float]] = None,
                serving_before: Optional[Dict[str, float]] = None,
                extra: Optional[Dict[str, Tuple[float, int]]] = None
                ) -> None:
    """Fill ``outcome.per_layer`` from the spans and the stats surfaces.

    ``wall_s`` is the traced window, ``tokens`` what was generated in it.
    Values here are raw (not scaled to reference host speed); the probe
    behind the end-to-end scaling is reported as ``hardware.host_probe_ms``.
    ``serving`` / ``serving_before`` are ``serving_stats()`` snapshots
    around the window (absent when the engine is bypassed); ``extra`` holds
    rows the workload measured itself, as ``name -> (value, samples)``.
    """
    spans = tracer.closed()
    agg = aggregate(spans)
    zero = {"count": 0, "total": 0.0, "self": 0.0}
    matmul, with_table, precompute, forward, step = (
        agg.get(name, zero) for name in (
            "core.matmul", "core.matmul_with_table", "core.precompute",
            "llm.forward", "serving.step"))
    lookup_s = matmul["self"] + with_table["total"]
    lut_s = precompute["total"]
    counts = tracer.counts
    lookups = counts["lookup_calls"]

    def delta(key: str) -> float:
        return serving[key] - serving_before[key] if serving else 0.0

    # The engine times its own batched decode (there is no instance method
    # around batched_decode_step to wrap); every kernel call sits inside
    # either a model.forward span or that decode wall.
    decode_wall_s = 0.0
    if serving:
        decode_wall_s = (
            serving["decode_step_wall_mean_s"] * serving["decode_steps"]
            - serving_before["decode_step_wall_mean_s"]
            * serving_before["decode_steps"])
    llm_s = forward["total"] + decode_wall_s
    nonlinear_s = llm_s - lookup_s - lut_s
    sched_s = step["total"] - llm_s if step["count"] else 0.0
    step_ms = [(s[2] - s[1]) * 1e3 for s in spans if s[0] == "serving.step"]

    rows: Dict[str, Tuple[float, int]] = {
        "core.lookup_ms_per_call": (lookup_s * 1e3 / max(lookups, 1),
                                    int(lookups)),
        "core.lookup_share": (lookup_s / wall_s, int(lookups)),
        "core.lut_build_ms_per_call": (
            lut_s * 1e3 / max(precompute["count"], 1), precompute["count"]),
        "core.lut_build_share": (lut_s / wall_s, precompute["count"]),
        "core.calls_per_token": (lookups / tokens, tokens),
        "core.rows_per_call_mean": (counts["lookup_rows"] / max(lookups, 1),
                                    int(lookups)),
        "core.ns_per_weight_row": (
            lookup_s * 1e9 / max(counts["weight_rows"], 1), int(lookups)),
        # Computed from tensor sizes, not measured traffic: packed weight
        # bytes, and packed bytes of every kernel invoked per new token.
        "core.weight_bytes": (model.quantized_weight_bytes(), 1),
        "core.bytes_per_token": (counts["weight_bytes"] / tokens, tokens),
        "core.plan_cache_hits": (setup.plan_hits, 1),
        "core.plan_cache_misses": (setup.plan_misses, 1),
        "core.specialize_compiles": (setup.specialize_compiles, 1),
        "llm.forward_ms_per_call": (
            forward["total"] * 1e3 / max(forward["count"], 1),
            forward["count"]),
        "llm.nonlinear_share": (nonlinear_s / wall_s, 1),
        "llm.token_ms_p75": (tail(token_gaps_ms, 75), len(token_gaps_ms)),
        "serving.steps": (step["count"], 1),
        "serving.step_ms_p50": (stats.median(step_ms) if step_ms else 0.0,
                                len(step_ms)),
        "serving.mean_batch_size": (
            delta("batched_tokens") / max(delta("decode_steps"), 1),
            int(delta("decode_steps"))),
        "serving.sched_share": (sched_s / wall_s, step["count"]),
        "serving.engine_ttft_ms_mean": (
            serving["ttft_mean_s"] * 1e3 if serving else 0.0,
            int(serving["ttft_count"]) if serving else 0),
        "serving.lut_reuses": (delta("lut_reuses"), 1),
        "serving.lut_precomputes": (delta("lut_precomputes"), 1),
        "serving.prefill_chunks": (delta("prefill_chunks"), 1),
        "hardware.host_probe_ms": (speed.median_ms(), len(speed.samples)),
        "trace.overhead_share": (1.0 - traced_tok_s / untraced_tok_s, 1),
        "trace.parts_vs_whole": (max(step["total"], llm_s) / wall_s, 1),
        "trace.spans": (len(spans), 1),
    }
    pool = serving or {}
    # Over the window, not the pool's lifetime (which includes warm-up).
    rows["kvcache.prefix_hit_rate"] = (
        delta("prefix_hit_tokens") / max(delta("prefix_requested_tokens"), 1),
        int(delta("prefix_lookups")))
    for name, key in (("kvcache.peak_kv_bytes", "peak_kv_bytes"),
                      ("kvcache.peak_shared_blocks", "peak_shared_blocks"),
                      ("kvcache.preemptions", "preemptions"),
                      ("kvcache.capacity_failures", "capacity_failures")):
        rows[name] = (pool.get(key, 0.0), 1)
    rows["kvcache.reserved_bytes"] = (
        pool.get("kv_num_blocks", 0) * pool.get("kv_block_bytes", 0), 1)
    for name, value in {**kernel_probes(),
                        **setup_split(spec, weights)}.items():
        rows[name] = (value, 7 if "mpgemv" in name else 1)
    rows.update(extra or {})
    for name, unit in PER_LAYER_UNITS.items():
        value, n = rows.get(name, (0.0, 0))
        outcome.per_layer[name] = (float(value), unit, int(n))
