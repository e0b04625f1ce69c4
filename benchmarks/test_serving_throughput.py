"""Serving microbenchmark: continuous batching vs sequential decode.

Runs N concurrent generation requests through the :class:`ServingEngine`
(one batched mpGEMM per layer per decode step) and through the sequential
:class:`~repro.llm.inference.Generator` (one session at a time), comparing
decode throughput (generated tokens per second) and recording the plan-cache
hit rate and the projections served by a fused table (`lut_reuses`).

The batched path must (a) produce exactly the tokens the sequential path
produces for every session and (b) sustain >= 8 concurrent sessions.  The
throughput edge comes from amortizing per-layer Python/kernel overheads
over the batch — the numpy stand-in for the paper's weight-traversal
amortization on real hardware.
"""

from __future__ import annotations

import time

import pytest

from repro.backends import get_backend
from repro.core.executor import reset_parallel_executor_stats
from repro.core.plan import clear_plan_cache, plan_cache_stats
from repro.llm import Generator, TransformerModel, tiny_arch
from repro.llm.model import generate_random_weights
from repro.serving import ServingEngine

NUM_SESSIONS = 8
MAX_NEW_TOKENS = 12


@pytest.fixture(scope="module")
def setup():
    clear_plan_cache()
    # The executor counters are process-wide; earlier benchmark modules
    # (e.g. thread_scaling) would otherwise bleed into the stats this
    # module records through serving_stats().
    reset_parallel_executor_stats()
    arch = tiny_arch(hidden_size=96, intermediate_size=192, num_layers=2,
                     num_heads=4, vocab_size=211, max_seq_len=96)
    weights = generate_random_weights(arch, seed=7)
    prompts = [[(3 * i + 1) % arch.vocab_size, 5, (7 * i + 2) % arch.vocab_size]
               for i in range(NUM_SESSIONS)]
    return arch, weights, prompts


def _build_model(arch, weights):
    return TransformerModel(
        arch, engine=get_backend("tmac", bits=4, group_size=32),
        weights=weights)


def test_batched_serving_throughput(setup, record_table, record_bench):
    arch, weights, prompts = setup
    reps = 2  # best-of-N so a scheduler hiccup cannot invert the comparison

    # Sequential baseline: one session at a time through the generator.
    sequential_model = _build_model(arch, weights)
    generator = Generator(sequential_model)
    sequential_seconds = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        sequential = [generator.generate(p, max_new_tokens=MAX_NEW_TOKENS)
                      for p in prompts]
        sequential_seconds = min(sequential_seconds,
                                 time.perf_counter() - start)
    sequential_tokens = sum(len(r.generated_tokens) for r in sequential)

    # Batched serving: same checkpoint, rebound (exercising the plan cache),
    # all sessions decoded through continuous batching.
    serving_model = _build_model(arch, weights)
    batched_seconds = float("inf")
    for _ in range(reps):
        engine = ServingEngine(serving_model, max_batch_size=NUM_SESSIONS)
        ids = [engine.submit(p, max_new_tokens=MAX_NEW_TOKENS)
               for p in prompts]
        start = time.perf_counter()
        results = engine.run()
        batched_seconds = min(batched_seconds, time.perf_counter() - start)
    batched_tokens = sum(len(results[sid].generated_tokens) for sid in ids)

    # Correctness: batching must not change any session's output.
    for prompt_result, sid in zip(sequential, ids):
        assert results[sid].generated_tokens == prompt_result.generated_tokens

    stats = engine.serving_stats()
    cache = plan_cache_stats()
    assert stats["mean_batch_size"] > 1.0, "decode steps were not batched"
    # Rebinding the checkpoint for the serving model hits the plan cache for
    # every linear layer.
    assert cache["hits"] > 0, "plan cache recorded no hits"
    assert stats["lut_reuses"] > 0, "no fused q|k|v / gate|up call occurred"

    seq_tps = sequential_tokens / sequential_seconds
    bat_tps = batched_tokens / batched_seconds
    hit_rate = cache["hits"] / max(1, cache["hits"] + cache["misses"])
    record_table(
        "serving_throughput",
        f"Continuous batching vs sequential decode "
        f"({NUM_SESSIONS} sessions, {MAX_NEW_TOKENS} tokens each)",
        ["mode", "tokens", "seconds", "tokens/s", "mean batch",
         "plan-cache hit rate", "projections sharing a table"],
        [
            ["sequential", sequential_tokens, f"{sequential_seconds:.2f}",
             f"{seq_tps:.1f}", "1.0", "-", "-"],
            ["batched", batched_tokens, f"{batched_seconds:.2f}",
             f"{bat_tps:.1f}", f"{stats['mean_batch_size']:.1f}",
             f"{hit_rate:.0%}", stats["lut_reuses"]],
        ],
    )
    record_bench(
        "serving_throughput",
        [
            {"series": "sequential", "tokens": sequential_tokens,
             "seconds": sequential_seconds, "tokens_per_s": seq_tps},
            {"series": "batched", "tokens": batched_tokens,
             "seconds": batched_seconds, "tokens_per_s": bat_tps,
             "mean_batch_size": stats["mean_batch_size"],
             "lut_reuses": stats["lut_reuses"]},
        ],
        params={"num_sessions": NUM_SESSIONS,
                "max_new_tokens": MAX_NEW_TOKENS},
        metrics={"batched_over_sequential": bat_tps / seq_tps,
                 "plan_cache_hit_rate": hit_rate},
    )
    # Throughput: batching amortizes per-layer overhead; require a real win
    # (leave slack for machine noise rather than asserting the full ratio).
    assert bat_tps > seq_tps, (
        f"batched decode ({bat_tps:.1f} tok/s) not faster than sequential "
        f"({seq_tps:.1f} tok/s)"
    )


def test_benchmark_hook_batched_step(benchmark, setup):
    """pytest-benchmark integration: one batched decode step of 8 sessions."""
    arch, weights, prompts = setup
    model = _build_model(arch, weights)

    def fresh_engine():
        engine = ServingEngine(model, max_batch_size=NUM_SESSIONS)
        for prompt in prompts:
            engine.submit(prompt, max_new_tokens=50)
        engine.step()  # admit + prefill + first batched step
        return (engine,), {}

    def step(engine):
        return engine.step()

    # One measured step per fresh engine so no session exhausts its token
    # budget mid-measurement.
    summary = benchmark.pedantic(step, setup=fresh_engine, rounds=5,
                                 iterations=1)
    assert summary["batch_size"] == NUM_SESSIONS
