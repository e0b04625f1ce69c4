"""The two closed-loop workloads: ``decode_single`` and ``batch_offline``.

Both are one caller that waits for each reply, so a slower system simply
completes fewer repetitions in ``--seconds``.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro.llm import Generator
from repro.serving import ServingEngine

from bench import stats
from bench.harness import (Outcome, check_executor_parity, layer_table,
                           timed_setups, token_match_rate, trace_engine_step,
                           trace_model, window_seconds)
from bench.hostspeed import HostSpeed, ProbedClock
from bench.inputs import unique_prompts
from bench.models import MEDIUM, SMALL, build_model
from bench.tracer import Tracer

SETUP_REPEATS = 3

DECODE_PROMPT_LEN = 4
DECODE_NEW_TOKENS = 16
#: Tokens of the first prompt generated again at the end and compared.
REPLAY_TOKENS = 6
#: Why ``decode_single`` reports its token rate and gaps as measured: the
#: 1-row mpGEMV path follows the host's mood by a smaller factor than either
#: probe (fitted exponent 0.4-0.7 over 40 runs), so scaling made ten-run
#: spreads worse: tok_s 0.116 raw against 0.236 scaled by the numeric probe,
#: 0.127 against 0.170 by the interpreter probe.  Its TTFT is a 4-row
#: prefill, which the numeric probe does follow (0.143 -> 0.082 over 20
#: runs), so that is scaled, by a sample taken after each repetition.
DECODE_TOKENS_RAW = True

BATCH_SIZE = 8
BATCH_PROMPT_LEN = 8
BATCH_NEW_TOKENS = 6
BATCH_KV_BYTES = 64 << 20  # ample: never the constraint here
#: Sessions of the first batch replayed on the sequential Generator.
BATCH_REFERENCE_SESSIONS = 8


class ForwardClock:
    """Token boundaries as a caller of ``Generator`` can observe them:
    the time each ``model.forward`` returns (``generate`` has no callback)."""

    def __init__(self, model) -> None:
        self.ends: List[float] = []
        inner = model.forward

        def forward(*args, **kwargs):
            out = inner(*args, **kwargs)
            self.ends.append(time.perf_counter())
            return out

        model.forward = forward


def _new_samples() -> Dict[str, list]:
    """Per-repetition samples, scaled to reference host speed unless raw."""
    return {"tok_s": [], "ttft_ms": [], "gap_ms": [], "raw_tok_s": [],
            "raw_gap_ms": [], "tokens": [], "factor": [], "wall_s": 0.0}


def _record(samples: Dict[str, list], factor: float, tok_s: float,
            ttft_ms: float, gaps_ms, scale_tokens: bool = True) -> None:
    """Add one repetition.  ``factor`` always scales TTFT (a multi-row
    prefill); it scales the token rate and gaps unless told not to."""
    token_factor = factor if scale_tokens else 1.0
    samples["factor"].append(factor)
    samples["tok_s"].append(tok_s * token_factor)
    samples["ttft_ms"].append(ttft_ms / factor)
    samples["gap_ms"].extend(np.asarray(gaps_ms) / token_factor)
    samples["raw_tok_s"].append(tok_s)
    samples["raw_gap_ms"].extend(gaps_ms)


def _finish(outcome: Outcome, setup, samples: Dict[str, list],
            speed: HostSpeed) -> None:
    outcome.info["host_probe"] = (
        f"{speed.kind} {speed.median_ms():.4f} ms, reference "
        f"{speed.reference_ms} ms, factor in window "
        f"{stats.median(samples['factor']):.4f}")
    outcome.info["raw_tok_s"] = round(stats.median(samples["raw_tok_s"]), 4)
    outcome.end_to_end = {
        "setup_s": (stats.median(setup.seconds), "s", len(setup.seconds)),
        "tok_s": (stats.median(samples["tok_s"]), "1/s",
                  len(samples["tok_s"])),
        "ttft_p50_ms": (stats.median(samples["ttft_ms"]), "ms",
                        len(samples["ttft_ms"])),
        "tpot_p50_ms": (stats.median(samples["gap_ms"]), "ms",
                        len(samples["gap_ms"])),
    }


# ---------------------------------------------------------------------- #
# decode_single
# ---------------------------------------------------------------------- #

def _measure_decode(generator: Generator, forwards: ForwardClock,
                    prompts: List[List[int]], seconds: float,
                    outcome: Outcome, speed: HostSpeed) -> Dict[str, list]:
    samples = _new_samples()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not samples["tok_s"]:
        prompt = prompts.pop(0)
        forwards.ends.clear()
        start = time.perf_counter()
        result = generator.generate(prompt, max_new_tokens=DECODE_NEW_TOKENS)
        end = time.perf_counter()
        samples["wall_s"] += end - start
        ends = forwards.ends
        outcome.check(len(result.generated_tokens) == DECODE_NEW_TOKENS,
                      f"generate returned {len(result.generated_tokens)} "
                      f"tokens")
        samples["tokens"].append((prompt, result.generated_tokens))
        _record(samples, speed.sample(),
                result.decode_steps / (end - ends[0]),
                (ends[0] - start) * 1e3, np.diff(ends) * 1e3,
                scale_tokens=not DECODE_TOKENS_RAW)
    return samples


def run_decode_single(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    # More prompts than any host can consume in --seconds.
    prompts = unique_prompts(rng, 40 + int(40 * seconds), MEDIUM.vocab,
                             DECODE_PROMPT_LEN, DECODE_PROMPT_LEN, set())
    warm_prompt = prompts.pop()

    def build():
        weights, model = build_model(MEDIUM)
        Generator(model).generate(warm_prompt, max_new_tokens=3)
        return weights, model

    speed = HostSpeed("numeric")
    (weights, model), setup = timed_setups(build, SETUP_REPEATS, speed)
    check_executor_parity(outcome, model, rng)
    generator, forwards = Generator(model), ForwardClock(model)

    tracer = Tracer()
    untraced_s, traced_s = window_seconds(seconds, trace)
    try:
        untraced = _measure_decode(generator, forwards, prompts, untraced_s,
                                   outcome, speed)
        samples = untraced
        if trace:
            trace_model(tracer, model)
            samples = _measure_decode(generator, forwards, prompts, traced_s,
                                      outcome, speed)
    finally:
        tracer.unwrap_all()

    first_prompt, first_tokens = untraced["tokens"][0]
    replay = generator.generate(first_prompt, max_new_tokens=REPLAY_TOKENS)
    outcome.check(replay.generated_tokens == first_tokens[:REPLAY_TOKENS],
                  "replay of the first prompt produced different tokens")

    _finish(outcome, setup, samples, speed)
    if trace:
        layer_table(
            outcome, tracer, wall_s=samples["wall_s"],
            tokens=len(samples["tokens"]) * DECODE_NEW_TOKENS,
            token_gaps_ms=untraced["raw_gap_ms"] + samples["raw_gap_ms"],
            setup=setup, spec=MEDIUM, weights=weights, model=model,
            speed=speed, traced_tok_s=stats.median(samples["tok_s"]),
            untraced_tok_s=stats.median(untraced["tok_s"]))
        outcome.tracer = tracer
    return outcome


# ---------------------------------------------------------------------- #
# batch_offline
# ---------------------------------------------------------------------- #

def _run_batch(engine: ServingEngine, prompts: List[List[int]],
               new_tokens: int, clock: ProbedClock):
    """Submit one batch up front and step until it drains, probing host
    speed between steps.

    Returns ``(tokens by prompt, wall s, ms until every session had its
    first token, ms of each full pure-decode step)``.
    """
    first_token_at: Dict[int, float] = {}

    def hook(event) -> None:
        if event.index == 0 and event.token is not None:
            first_token_at[event.session_id] = clock.now()

    clock.probe()
    start = clock.now()
    ids = [engine.submit(prompt, max_new_tokens=new_tokens, stream_hook=hook)
           for prompt in prompts]
    step_ms = []
    steps = 0
    while engine.has_work:
        before = clock.now()
        summary = engine.step()
        # The first step also prefills; later full steps are pure decode.
        if steps and summary["batch_size"] == len(prompts):
            step_ms.append((clock.now() - before) * 1e3)
        steps += 1
        clock.probe()
    wall = clock.now() - start
    tokens = [engine.release(sid).generated_tokens for sid in ids]
    return (tokens, wall, (max(first_token_at.values()) - start) * 1e3,
            step_ms)


def _measure_batches(engine: ServingEngine, batches: List[List[List[int]]],
                     seconds: float, outcome: Outcome,
                     clock: ProbedClock) -> Dict[str, list]:
    samples = _new_samples()
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or not samples["tok_s"]:
        tokens, wall, ttft_ms, step_ms = _run_batch(
            engine, batches.pop(0), BATCH_NEW_TOKENS, clock)
        outcome.check(all(len(t) == BATCH_NEW_TOKENS for t in tokens),
                      "a session ended short of its token budget",
                      len(tokens))
        samples["wall_s"] += wall
        samples["tokens"].append(tokens)
        _record(samples, clock.take_factor(),
                sum(map(len, tokens)) / wall, ttft_ms, step_ms)
    return samples


def run_batch_offline(seed: int, seconds: float, trace: bool) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    taken = set()
    batches = [unique_prompts(rng, BATCH_SIZE, SMALL.vocab, BATCH_PROMPT_LEN,
                              BATCH_PROMPT_LEN, taken)
               for _ in range(8 + int(4 * seconds))]
    warm_batch = batches.pop()

    def build():
        weights, model = build_model(SMALL)
        engine = ServingEngine(model, max_batch_size=BATCH_SIZE,
                               kv_cache_bytes=BATCH_KV_BYTES,
                               prefill_chunk=None)
        # Two prompts take the same multi-row prefill and batched-decode
        # paths as eight, so every specialisation is compiled here.
        _run_batch(engine, warm_batch[:2], 2, ProbedClock(speed))
        return weights, model, engine

    speed = HostSpeed("numeric")
    clock = ProbedClock(speed)
    (weights, model, engine), setup = timed_setups(build, SETUP_REPEATS,
                                                   speed)
    check_executor_parity(outcome, model, rng)
    first_batch = batches[0]

    tracer = Tracer()
    before = None
    untraced_s, traced_s = window_seconds(seconds, trace)
    try:
        untraced = _measure_batches(engine, batches, untraced_s, outcome,
                                    clock)
        samples = untraced
        if trace:
            trace_model(tracer, model)
            trace_engine_step(tracer, engine)
            before = engine.serving_stats()
            samples = _measure_batches(engine, batches, traced_s, outcome,
                                       clock)
    finally:
        tracer.unwrap_all()

    match_rate = token_match_rate(
        SMALL, weights, first_batch[:BATCH_REFERENCE_SESSIONS],
        untraced["tokens"][0][:BATCH_REFERENCE_SESSIONS])
    outcome.check(match_rate == 1.0,
                  f"token match rate {match_rate:.4f} against the sequential "
                  f"Generator is below 1")
    outcome.info["token_match_rate"] = match_rate

    _finish(outcome, setup, samples, speed)
    if trace:
        layer_table(
            outcome, tracer, wall_s=samples["wall_s"],
            tokens=len(samples["tokens"]) * BATCH_SIZE * BATCH_NEW_TOKENS,
            token_gaps_ms=untraced["raw_gap_ms"] + samples["raw_gap_ms"],
            setup=setup, spec=SMALL, weights=weights, model=model,
            speed=speed,
            traced_tok_s=stats.median(samples["tok_s"]),
            untraced_tok_s=stats.median(untraced["tok_s"]),
            serving=engine.serving_stats(), serving_before=before,
            extra={"serving.token_match_rate":
                    (match_rate, BATCH_REFERENCE_SESSIONS)})
        outcome.tracer = tracer
    return outcome
