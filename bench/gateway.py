"""The two open-loop workloads, over real HTTP/SSE in this one process.

``gateway_unshared`` and ``gateway_shared_prefix`` differ only in their
prompts and KV pool.  Each runs two phases against one gateway:

* ``open``  — Poisson arrivals at a fixed rate from one asyncio client;
  every request is timed from when it was *due*, not from when the
  (possibly late) generator sent it.  TTFT and the SLO come from here.
* ``sat``   — closed loop, ``SAT_CLIENTS`` callers; gives ``tok_s`` (an
  open loop's token rate is fixed by its schedule, so it measures nothing)
  and TPOT (in the open phase a request's token gaps depend on how many
  others happen to overlap it, so its median over ~60 requests wanders by
  20 % between seeds; with eight callers the batch is always full).
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence, Set, Tuple

import numpy as np

from repro.core.config import GatewayConfig
from repro.hardware.memory import kv_block_bytes
from repro.server import serve_model
from repro.server.client import GatewayError, http_get, stream_completion

from bench import stats
from bench.harness import (Outcome, check_executor_parity, layer_table, tail,
                           timed_setups, token_match_rate, trace_engine_step,
                           trace_model, window_seconds)
from bench.hostspeed import HostSpeed
from bench.inputs import (arrival_schedule, shared_prefix_prompts,
                          unique_prompts)
from bench.models import TINY, build_model
from bench.tracer import Tracer

SETUP_REPEATS = 5
PAGE_TOKENS = 16
MAX_NEW_TOKENS = 16
MAX_BATCH = 8
PREFILL_CHUNK = 32
QUEUE_DEPTH = 256
WARM_REQUESTS = 8
SAT_CLIENTS = 8
#: Share of the measured window spent in the open phase.
OPEN_SHARE = 0.6
#: Low enough that most requests find the server idle.  TTFT under load
#: amplifies host-speed changes (measured exponent 1.9 at 6-8 req/s, so a
#: 10 % slower host reads 20 % worse and no probe can scale that away).
OPEN_RATE_RPS = 4.0
#: The interpreter probe runs on the event loop this often (about 2 % of
#: its time) for as long as a window is measured.
PROBE_EVERY_S = 0.025
SLO_TTFT_MS = 100.0
SLO_TPOT_MS = 25.0
REFERENCE_REQUESTS = 16

PromptMaker = Callable[[np.random.Generator, int, Set[Tuple[int, ...]]],
                       List[List[int]]]


@dataclass
class GatewayWorkload:
    rate_rps: float
    pool_pages: int
    make_prompts: PromptMaker
    #: The documented ~1-ulp prefix-reuse caveat can flip a greedy token.
    min_token_match: float


@dataclass
class Request:
    rid: int
    phase: str
    prompt: List[int]
    due: float
    sent: float = math.nan
    first: float = math.nan
    last: float = math.nan
    tokens: List[int] = field(default_factory=list)
    terminals: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return (not self.error and len(self.tokens) == MAX_NEW_TOKENS
                and self.terminals == 1)

    @property
    def ttft_ms(self) -> float:
        return (self.first - self.due) * 1e3

    @property
    def tpot_ms(self) -> float:
        return (self.last - self.first) / (len(self.tokens) - 1) * 1e3


class Stack:
    """One model + engine + runner thread + HTTP gateway, and its teardown."""

    def __init__(self, pool_pages: int) -> None:
        self.weights, self.model = build_model(TINY)
        arch = self.model.arch
        self.gateway = serve_model(
            self.model,
            GatewayConfig(port=0, max_queue_depth=QUEUE_DEPTH),
            max_batch_size=MAX_BATCH,
            kv_cache_bytes=pool_pages * kv_block_bytes(
                arch.num_layers, arch.num_kv_heads, arch.head_dim,
                PAGE_TOKENS),
            page_size=PAGE_TOKENS, prefill_chunk=PREFILL_CHUNK)
        self.runner = self.gateway.runner
        self.address: Tuple[str, int] = ("", 0)
        #: prompt -> request id, so engine-side spans can name their request.
        self.rid_of: Dict[Tuple[int, ...], int] = {}

    async def start_and_warm(self, prompts: Sequence[List[int]]) -> None:
        """Bind, then push one concurrent burst through every code path."""
        self.runner.start()
        try:
            self.address = await self.gateway.start()
            warm = await asyncio.gather(*[
                self.request("warm", prompt, time.perf_counter())
                for prompt in prompts])
            if not all(r.ok for r in warm):
                raise RuntimeError(
                    f"warm-up failed: {[r.error for r in warm]}")
        except BaseException:
            await self.stop()
            raise

    async def stop(self) -> None:
        try:
            await self.gateway.stop()
        finally:
            self.runner.stop()

    async def on_engine(self, fn):
        return await asyncio.wrap_future(self.runner.call(fn))

    async def runner_stats(self) -> Dict:
        return await asyncio.wrap_future(self.runner.stats())

    async def request(self, phase: str, prompt: List[int],
                      due: float) -> Request:
        """Stream one completion; never raises, failures are recorded."""
        record = Request(len(self.rid_of), phase, prompt, due)
        self.rid_of[tuple(prompt)] = record.rid
        try:
            record.sent = time.perf_counter()
            stream = await stream_completion(
                *self.address,
                {"prompt": prompt, "max_tokens": MAX_NEW_TOKENS})
            async for chunk in stream:
                now = time.perf_counter()
                choice = chunk["choices"][0]
                if choice["token"] is None:
                    record.terminals += 1
                    continue
                if not record.tokens:
                    record.first = now
                record.last = now
                record.tokens.append(choice["token"])
        except GatewayError as exc:
            record.error = f"http_{exc.status}"
        except (OSError, asyncio.IncompleteReadError, ValueError) as exc:
            record.error = type(exc).__name__
        return record


async def _open_phase(stack: Stack, prompts: Sequence[List[int]],
                      due: np.ndarray) -> List[Request]:
    start = time.perf_counter()
    tasks = []
    for prompt, offset in zip(prompts, due):
        delay = start + offset - time.perf_counter()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(
            stack.request("open", prompt, start + offset)))
    return list(await asyncio.gather(*tasks))


async def _sat_phase(stack: Stack, prompts: List[List[int]],
                     seconds: float) -> Tuple[List[Request], float]:
    start = time.perf_counter()

    async def caller() -> List[Request]:
        done = []
        while time.perf_counter() - start < seconds and prompts:
            done.append(await stack.request("sat", prompts.pop(),
                                            time.perf_counter()))
        return done

    per_caller = await asyncio.gather(*[caller() for _ in range(SAT_CLIENTS)])
    wall = time.perf_counter() - start
    return [r for done in per_caller for r in done], wall


@dataclass
class Window:
    """Everything one measured window (open + sat) produced.

    The factors are the host-speed probe's, per phase; ``tok_s``,
    ``ttft_ms`` and ``tpot_ms`` are scaled by them.
    """
    open: List[Request]
    sat: List[Request]
    sat_wall_s: float
    wall_s: float
    open_factor: float
    sat_factor: float

    @property
    def raw_tok_s(self) -> float:
        return sum(len(r.tokens) for r in self.sat) / self.sat_wall_s

    @property
    def tok_s(self) -> float:
        return self.raw_tok_s * self.sat_factor

    @property
    def ttft_ms(self) -> List[float]:
        return [r.ttft_ms / self.open_factor for r in self.open if r.ok]

    @property
    def tpot_ms(self) -> List[float]:
        return [r.tpot_ms / self.sat_factor for r in self.sat if r.ok]


async def _measure(stack: Stack, workload: GatewayWorkload,
                   rng: np.random.Generator, taken: Set[Tuple[int, ...]],
                   seconds: float, speed: HostSpeed) -> Window:
    count = max(1, round(workload.rate_rps * OPEN_SHARE * seconds))
    open_prompts = workload.make_prompts(rng, count, taken)
    due = arrival_schedule(rng, workload.rate_rps, count)
    sat_seconds = (1 - OPEN_SHARE) * seconds
    # Far more than SAT_CLIENTS callers can finish in the phase.
    sat_prompts = workload.make_prompts(
        rng, 16 + int(200 * sat_seconds), taken)

    measuring = True

    async def probe_host() -> None:
        while measuring:
            speed.sample(repeats=1)
            await asyncio.sleep(PROBE_EVERY_S)

    prober = asyncio.create_task(probe_host())
    try:
        start = time.perf_counter()
        opened = await _open_phase(stack, open_prompts, due)
        middle = time.perf_counter()
        sat, sat_wall = await _sat_phase(stack, sat_prompts, sat_seconds)
        end = time.perf_counter()
    finally:
        measuring = False
        await prober
    return Window(opened, sat, sat_wall, end - start,
                  speed.factor_between(start, middle),
                  speed.factor_between(middle, end))


def _trace_submit(tracer: Tracer, runner,
                  rid_of: Dict[Tuple[int, ...], int]) -> None:
    """Engine-side view of each request, taken at ``runner.submit``: when
    the gateway handed it over, and when the engine published its first
    token and its terminal event (on the runner thread)."""
    def make(inner):
        def submit(*, stream_hook=None, **request):
            handed = time.perf_counter()
            rid = rid_of.get(tuple(request["prompt_tokens"]))
            seen_first = []

            def hook(event) -> None:
                now = time.perf_counter()
                if event.token is not None and not seen_first:
                    seen_first.append(now)
                    tracer.record("server.engine_ttft", handed, now, tag=rid)
                if event.finished:
                    tracer.record("server.engine_request", handed, now,
                                  tag=rid)
                stream_hook(event)

            span = tracer.begin("server.submit", rid)
            try:
                return inner(stream_hook=hook, **request)
            finally:
                tracer.end(span)
        return submit
    tracer.replace(runner, "submit", make)


def _client_spans(tracer: Tracer, requests: Sequence[Request]) -> None:
    for r in requests:
        if not r.ok:
            continue
        whole = tracer.record(f"client.request.{r.phase}", r.due, r.last,
                              tag=r.rid)
        tracer.record("client.wait_send", r.due, r.sent, whole, r.rid)
        tracer.record("client.ttft", r.sent, r.first, whole, r.rid)
        tracer.record("client.stream", r.first, r.last, whole, r.rid)


def _count_failures(outcome: Outcome, requests: Sequence[Request]) -> None:
    bad = [r for r in requests if not r.ok]
    outcome.attempted += len(requests)
    outcome.failed += len(bad)
    for r in bad[:5]:
        outcome.failures.append(
            f"request {r.rid} ({r.phase}): {r.error or 'short stream'}, "
            f"{len(r.tokens)} tokens, {r.terminals} terminal events")


def _slo_attainment(requests: Sequence[Request]) -> float:
    met = sum(r.ok and r.ttft_ms <= SLO_TTFT_MS and r.tpot_ms <= SLO_TPOT_MS
              for r in requests)
    return met / len(requests)


def _server_rows(tracer: Tracer, window: Window, opened: List[Request],
                 saturating: List[Request], http_429: float,
                 match_rate: float) -> Dict[str, Tuple[float, int]]:
    """The ``server.*`` rows: client records joined with engine-side spans.

    ``opened`` / ``saturating`` are the open- and sat-phase requests of the
    whole run (both windows): the client's view does not depend on the
    tracer, and one traced phase is too short for a tail percentile.  The
    tails are taken under saturation, the only phase with >= 100 requests.
    """
    engine_ttft = {span[4]: span[2] - span[1] for span in tracer.closed()
                   if span[0] == "server.engine_ttft"}
    overhead_ms = [((r.first - r.sent) - engine_ttft[r.rid]) * 1e3
                   for r in window.open if r.ok and r.rid in engine_ttft]
    steps_s = sum(span[2] - span[1] for span in tracer.closed()
                  if span[0] == "serving.step")
    ok_sat = [r for r in saturating if r.ok]
    rows = {
        "server.overhead_ttft_ms_p50": (stats.median(overhead_ms),
                                        len(overhead_ms)),
        "server.ttft_p90_ms": (tail([r.ttft_ms for r in ok_sat], 90),
                               len(ok_sat)),
        "server.tpot_p90_ms": (tail([r.tpot_ms for r in ok_sat], 90),
                               len(ok_sat)),
        "server.slo_attainment": (_slo_attainment(opened), len(opened)),
        "server.idle_share": (1.0 - steps_s / window.wall_s, 1),
        "server.http_429": (http_429, 1),
        "server.generator_lateness_ms_max": (
            max((r.sent - r.due) * 1e3 for r in opened), len(opened)),
        "serving.token_match_rate": (match_rate, REFERENCE_REQUESTS),
    }
    for phase, requests in (("open", window.open), ("sat", window.sat)):
        ok = sum(r.ok for r in requests)
        rows[f"server.requests_sent.{phase}"] = (len(requests), 1)
        rows[f"server.requests_ok.{phase}"] = (ok, 1)
        rows[f"server.requests_failed.{phase}"] = (len(requests) - ok, 1)
    return rows


async def _scrape_429(stack: Stack) -> float:
    status, _, body = await http_get(*stack.address, "/metrics")
    if status != 200:
        raise RuntimeError(f"GET /metrics answered {status}")
    for line in body.decode().splitlines():
        if line.startswith("gateway_backpressure_rejections_total"):
            return float(line.split()[-1])
    raise RuntimeError("/metrics has no backpressure counter")


def _run(workload: GatewayWorkload, seed: int, seconds: float,
         trace: bool) -> Outcome:
    outcome = Outcome()
    rng = np.random.default_rng(seed)
    taken: Set[Tuple[int, ...]] = set()
    warm_prompts = workload.make_prompts(rng, WARM_REQUESTS, taken)
    tracer = Tracer()

    with asyncio.Runner() as aio:
        def build() -> Stack:
            stack = Stack(workload.pool_pages)
            aio.run(stack.start_and_warm(warm_prompts))
            return stack

        speed = HostSpeed("interpreter")
        stack, setup = timed_setups(
            build, SETUP_REPEATS, speed,
            teardown=lambda old: aio.run(old.stop()))
        untraced_s, traced_s = window_seconds(seconds, trace)
        try:
            check_executor_parity(outcome, stack.model, rng)
            free_pages = aio.run(stack.on_engine(
                lambda engine: engine.pool.free_blocks))

            untraced = aio.run(_measure(stack, workload, rng, taken,
                                        untraced_s, speed))
            window = untraced
            if trace:
                trace_model(tracer, stack.model)
                trace_engine_step(tracer, stack.runner.engine)
                _trace_submit(tracer, stack.runner, stack.rid_of)
                before = aio.run(stack.runner_stats())
                window = aio.run(_measure(stack, workload, rng, taken,
                                          traced_s, speed))
                tracer.unwrap_all()
                serving = aio.run(stack.runner_stats())
                http_429 = aio.run(_scrape_429(stack))

            free_after = aio.run(stack.on_engine(
                lambda engine: (engine.has_work, engine.pool.free_blocks)))
            outcome.check(free_after == (False, free_pages),
                          f"KV pool did not return to baseline: free pages "
                          f"{free_pages} -> {free_after}")
        finally:
            tracer.unwrap_all()
            aio.run(stack.stop())

    requests = window.open + window.sat
    if trace:
        requests = requests + untraced.open + untraced.sat
    _count_failures(outcome, requests)

    sample = [window.open[int(i)] for i in rng.choice(
        len(window.open), size=min(REFERENCE_REQUESTS, len(window.open)),
        replace=False)]
    match_rate = token_match_rate(TINY, stack.weights,
                                  [r.prompt for r in sample],
                                  [r.tokens for r in sample])
    outcome.check(match_rate >= workload.min_token_match,
                  f"token match rate {match_rate:.4f} against the "
                  f"sequential Generator is below "
                  f"{workload.min_token_match}")

    ok_open = [r for r in window.open if r.ok]
    outcome.end_to_end = {
        "setup_s": (stats.median(setup.seconds), "s", len(setup.seconds)),
        "tok_s": (window.tok_s, "1/s", len(window.sat)),
        "ttft_p50_ms": (stats.median(window.ttft_ms), "ms", len(ok_open)),
        "tpot_p50_ms": (stats.median(window.tpot_ms), "ms",
                        len(window.tpot_ms)),
    }
    outcome.info.update({
        "host_probe": f"{speed.kind} {speed.median_ms():.4f} ms, reference "
                      f"{speed.reference_ms} ms, factor open "
                      f"{window.open_factor:.4f} sat {window.sat_factor:.4f}",
        "raw_tok_s": round(window.raw_tok_s, 4),
        "requests_open": f"{len(window.open)} sent, {len(ok_open)} ok",
        "requests_sat": f"{len(window.sat)} sent, "
                        f"{sum(r.ok for r in window.sat)} ok",
        "slo_attainment": round(_slo_attainment(window.open), 4),
        "token_match_rate": match_rate,
        "generator_lateness_ms_max": round(
            max((r.sent - r.due) * 1e3 for r in window.open), 3),
    })
    if trace:
        _client_spans(tracer, window.open + window.sat)
        gaps_ms = [r.tpot_ms for r in window.open + window.sat if r.ok]
        layer_table(
            outcome, tracer, wall_s=window.wall_s,
            tokens=sum(len(r.tokens) for r in window.open + window.sat),
            token_gaps_ms=gaps_ms, setup=setup, spec=TINY,
            weights=stack.weights, model=stack.model, speed=speed,
            traced_tok_s=window.tok_s, untraced_tok_s=untraced.tok_s,
            serving=serving["serving"], serving_before=before["serving"],
            extra=_server_rows(tracer, window, untraced.open + window.open,
                               untraced.sat + window.sat, http_429,
                               match_rate))
        outcome.tracer = tracer
    return outcome


# ---------------------------------------------------------------------- #
# The two traffic mixes
# ---------------------------------------------------------------------- #

UNSHARED_PROMPT_LEN = (4, 12)
#: 8 running sessions x 2 pages, and ample room behind them.
UNSHARED_POOL_PAGES = 128

PREFIXES = 16
HOT_PREFIXES = 4
HOT_SHARE = 0.8
PREFIX_LEN = 96
SUFFIX_LEN = 4
#: 16 prefixes x 6 pages is the whole pool, so in-flight sessions push
#: cold prefixes out and the hit rate can move in either direction.
SHARED_POOL_PAGES = 96


def run_gateway_unshared(seed: int, seconds: float, trace: bool) -> Outcome:
    def make_prompts(rng, count, taken):
        return unique_prompts(rng, count, TINY.vocab, *UNSHARED_PROMPT_LEN,
                              taken)
    return _run(GatewayWorkload(OPEN_RATE_RPS, UNSHARED_POOL_PAGES, make_prompts,
                                min_token_match=1.0),
                seed, seconds, trace)


def run_gateway_shared_prefix(seed: int, seconds: float,
                              trace: bool) -> Outcome:
    prefixes: List[List[int]] = []

    def make_prompts(rng, count, taken):
        if not prefixes:  # first draw of the run's rng: part of the seed
            prefixes.extend(unique_prompts(rng, PREFIXES, TINY.vocab,
                                           PREFIX_LEN, PREFIX_LEN, set()))
        return shared_prefix_prompts(rng, count, TINY.vocab, prefixes,
                                     HOT_PREFIXES, HOT_SHARE, SUFFIX_LEN,
                                     taken)
    return _run(GatewayWorkload(OPEN_RATE_RPS, SHARED_POOL_PAGES, make_prompts,
                                min_token_match=0.99),
                seed, seconds, trace)
