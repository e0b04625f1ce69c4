"""End-to-end HTTP tests of the serving gateway.

The acceptance bar of the gateway subsystem, exercised over real sockets
with the stdlib asyncio client:

* N concurrent streaming clients each receive tokens incrementally (the
  first chunk arrives while the engine still has work), and each
  request's concatenated stream is token-identical to a sequential
  temperature-0 :class:`repro.llm.inference.Generator` run — with a
  paged engine, chunked prefill and a shared prompt prefix in the mix.
* A mid-stream client disconnect cancels the session and returns the KV
  pool's free-page count to its baseline; a disconnect before admission
  cancels the still-queued session.
* Queue overflow answers 429 with a ``Retry-After`` header and the
  engine loop keeps serving afterwards.
"""

import asyncio
import contextlib
import threading

import pytest

from repro.backends import get_backend
from repro.core.config import GatewayConfig
from repro.hardware.memory import kv_block_bytes
from repro.llm import Generator, TransformerModel, tiny_arch
from repro.llm.model import generate_random_weights
from repro.server import serve_model
from repro.server.client import (
    GatewayError,
    http_get,
    post_completion,
    stream_completion,
)

PAGE = 16


def make_arch():
    return tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                     num_heads=4, vocab_size=97, max_seq_len=256)


@pytest.fixture(scope="module")
def arch():
    return make_arch()


@pytest.fixture(scope="module")
def shared_weights(arch):
    return generate_random_weights(arch, seed=3)


@pytest.fixture()
def model(arch, shared_weights):
    return TransformerModel(
        arch, engine=get_backend("tmac", bits=4, group_size=32),
        weights=shared_weights)


def page_budget(arch, pages):
    return pages * kv_block_bytes(arch.num_layers, arch.num_kv_heads,
                                  arch.head_dim, PAGE)


def sequential_tokens(arch, weights, prompt, **kwargs):
    model = TransformerModel(
        arch, engine=get_backend("tmac", bits=4, group_size=32),
        weights=weights)
    generator = Generator(model, seed=kwargs.pop("seed", 0))
    return generator.generate(prompt, **kwargs).generated_tokens


@contextlib.asynccontextmanager
async def gateway_stack(model, config=None, **engine_kwargs):
    gateway = serve_model(model, config or GatewayConfig(port=0),
                          **engine_kwargs)
    gateway.runner.start()
    host, port = await gateway.start()
    try:
        yield gateway, host, port
    finally:
        await gateway.stop()
        gateway.runner.stop()


def engine_probe(gateway, fn):
    """Run ``fn(engine)`` on the engine thread; return an awaitable."""
    return asyncio.wrap_future(gateway.runner.call(fn))


class TestEndpoints:
    def test_healthz_metrics_and_routing(self, model):
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                status, _, body = await http_get(host, port, "/healthz")
                assert status == 200
                assert b'"status": "ok"' in body
                status, headers, body = await http_get(host, port,
                                                       "/metrics")
                assert status == 200
                assert headers["content-type"].startswith("text/plain")
                for name in (b"gateway_ttft_seconds_bucket",
                             b"gateway_token_latency_seconds_bucket",
                             b"gateway_queue_depth",
                             b"gateway_active_sessions",
                             b"gateway_preemptions_total",
                             b"gateway_capacity_failures_total",
                             b"gateway_plan_cache_hit_rate",
                             b"gateway_prefix_cache_hit_rate"):
                    assert name in body, name
                status, _, _ = await http_get(host, port, "/nope")
                assert status == 404
                status, _, _ = await http_get(host, port,
                                              "/v1/completions")
                assert status == 405
                # Unmatched paths must not mint per-path metric series.
                assert gateway.metrics.http_requests.value(
                    path="other", status="404") == 1

        asyncio.run(scenario())

    def test_negative_content_length_is_400(self, model):
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(b"POST /v1/completions HTTP/1.1\r\n"
                             b"Content-Length: -1\r\n\r\n")
                await writer.drain()
                status_line = await reader.readline()
                writer.close()
                assert b"400" in status_line

        asyncio.run(scenario())

    def test_completed_sessions_are_reaped(self, model):
        """A long-running gateway must not accumulate finished sessions."""
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                for i in range(3):
                    await post_completion(
                        host, port, {"prompt": [1 + i, 2],
                                     "max_tokens": 2})
                stream = await stream_completion(
                    host, port, {"prompt": [9, 9], "max_tokens": 2})
                async for _ in stream:
                    pass
                # The reap is queued when the handler unwinds, which can
                # land just after the client sees [DONE]: poll briefly.
                for _ in range(100):
                    remaining = await engine_probe(
                        gateway, lambda e: len(e.sessions))
                    if remaining == 0:
                        break
                    await asyncio.sleep(0.01)
                assert remaining == 0
                assert gateway.lifecycle.in_flight == 0

        asyncio.run(scenario())

    def test_validation_errors_return_400(self, model, arch):
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                for payload in (
                    {},                                   # missing prompt
                    {"prompt": []},                       # empty prompt
                    {"prompt": [1], "temprature": 1.0},   # unknown field
                    {"prompt": [1], "temperature": -1},   # engine-side
                    {"prompt": [arch.vocab_size + 5]},    # out of vocab
                ):
                    with pytest.raises(GatewayError) as excinfo:
                        await post_completion(host, port, payload)
                    assert excinfo.value.status == 400
                # The engine survived all of it.
                response = await post_completion(
                    host, port, {"prompt": [1, 2], "max_tokens": 2})
                assert len(response["choices"][0]["tokens"]) == 2

        asyncio.run(scenario())


class TestStreaming:
    def test_first_chunk_arrives_before_generation_completes(self, model):
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                stream = await stream_completion(
                    host, port, {"prompt": [1, 5, 9], "max_tokens": 64})
                first = await stream.__anext__()
                assert first["choices"][0]["token"] is not None
                # 64 decode steps take far longer than one local
                # round-trip: the engine must still be generating.
                still_working = await engine_probe(
                    gateway, lambda e: e.has_work)
                assert still_working, \
                    "first chunk should precede generation completion"
                chunks = [first]
                async for chunk in stream:
                    chunks.append(chunk)
                tokens = [c["choices"][0]["token"] for c in chunks
                          if c["choices"][0]["token"] is not None]
                assert len(tokens) == 64
                assert chunks[-1]["choices"][0]["finish_reason"] == "length"

        asyncio.run(scenario())

    def test_concurrent_streams_token_identical_to_sequential(
            self, model, arch, shared_weights):
        """The acceptance criterion: N concurrent streaming clients over
        a paged engine with chunked prefill and a shared prompt prefix,
        each token-identical to the sequential Generator."""
        prefix = [11, 23, 35, 47] * 6  # 24 shared tokens
        prompts = [prefix + [1 + i, 5 + i] for i in range(6)]

        async def one_client(host, port, prompt):
            stream = await stream_completion(
                host, port, {"prompt": prompt, "max_tokens": 8})
            tokens, finish = [], None
            async for chunk in stream:
                choice = chunk["choices"][0]
                if choice["token"] is not None:
                    tokens.append(choice["token"])
                    assert choice["token_index"] == len(tokens) - 1
                else:
                    finish = choice["finish_reason"]
            return tokens, finish

        async def scenario():
            async with gateway_stack(
                    model, max_batch_size=3,
                    kv_cache_bytes=page_budget(make_arch(), 64),
                    prefill_chunk=16) as (gateway, host, port):
                outcomes = await asyncio.gather(*[
                    one_client(host, port, p) for p in prompts])
            return outcomes

        outcomes = asyncio.run(scenario())
        for prompt, (tokens, finish) in zip(prompts, outcomes):
            assert finish == "length"
            assert tokens == sequential_tokens(
                arch, shared_weights, prompt, max_new_tokens=8)

    def test_nonstream_matches_stream(self, model, arch, shared_weights):
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                response = await post_completion(
                    host, port, {"prompt": [2, 7, 4], "max_tokens": 6})
                return response

        response = asyncio.run(scenario())
        choice = response["choices"][0]
        assert choice["tokens"] == sequential_tokens(
            arch, shared_weights, [2, 7, 4], max_new_tokens=6)
        assert choice["finish_reason"] == "length"
        assert response["usage"]["completion_tokens"] == 6


class TestDisconnect:
    def test_mid_stream_disconnect_frees_all_pages(self, model):
        async def scenario():
            async with gateway_stack(
                    model, max_batch_size=2,
                    kv_cache_bytes=page_budget(make_arch(), 64),
                    ) as (gateway, host, port):
                baseline = await engine_probe(
                    gateway, lambda e: e.pool.free_blocks)
                stream = await stream_completion(
                    host, port, {"prompt": [3, 1, 4, 1, 5],
                                 "max_tokens": 200})
                await stream.__anext__()
                await stream.__anext__()  # two tokens in flight
                held = await engine_probe(
                    gateway, lambda e: e.pool.free_blocks)
                assert held < baseline
                await stream.close()  # client walks away mid-stream
                # The gateway notices EOF and cancels on the engine
                # thread; poll until the pool is back to baseline.
                for _ in range(100):
                    if not await engine_probe(gateway,
                                              lambda e: e.has_work):
                        break
                    await asyncio.sleep(0.02)
                free = await engine_probe(
                    gateway, lambda e: e.pool.free_blocks)
                assert free == baseline
                sessions = await engine_probe(
                    gateway, lambda e: len(e.sessions))
                assert sessions == 0
                # And the engine still serves the next request.
                response = await post_completion(
                    host, port, {"prompt": [1, 2], "max_tokens": 2})
                assert len(response["choices"][0]["tokens"]) == 2
                assert gateway.metrics.client_disconnects.value() == 1

        asyncio.run(scenario())


    def test_disconnect_before_admission_cancels_queued_session(
            self, model):
        async def scenario():
            async with gateway_stack(
                    model, max_batch_size=1) as (gateway, host, port):
                # Fill the single slot, then queue a second stream behind
                # it: its response head is sent, but no token will flow.
                running = await stream_completion(
                    host, port, {"prompt": [1, 2], "max_tokens": 250})
                await running.__anext__()
                queued = await stream_completion(
                    host, port, {"prompt": [3, 4], "max_tokens": 4})
                assert await engine_probe(
                    gateway, lambda e: e.num_waiting) == 1
                # Hold the engine thread, so only the read-side watchdog
                # can see this client leave: no token or step can.
                gate = threading.Event()
                held = gateway.runner.call(lambda e: gate.wait(5))
                try:
                    await queued.close()
                    for _ in range(100):
                        if gateway.metrics.client_disconnects.value():
                            break
                        await asyncio.sleep(0.01)
                    assert gateway.metrics.client_disconnects.value() == 1
                finally:
                    gate.set()
                    await asyncio.wrap_future(held)
                assert await engine_probe(
                    gateway, lambda e: e.num_waiting) == 0
                # The running stream keeps decoding.
                assert (await running.__anext__())["choices"][0][
                    "finish_reason"] is None
                await running.close()

        asyncio.run(scenario())


class TestBackpressure:
    def test_queue_overflow_returns_429_and_survives(self, model):
        async def scenario():
            config = GatewayConfig(port=0, max_queue_depth=1)
            async with gateway_stack(
                    model, config,
                    max_batch_size=1) as (gateway, host, port):
                # Fill the single slot with a long streaming request.
                stream = await stream_completion(
                    host, port, {"prompt": [1, 2], "max_tokens": 150})
                await stream.__anext__()  # admitted and decoding
                # Second request: queues (depth 1 = the bound).
                queued_task = asyncio.create_task(post_completion(
                    host, port, {"prompt": [3, 4], "max_tokens": 2}))
                for _ in range(100):
                    depth = gateway.runner.queue_depth
                    if depth >= 1:
                        break
                    await asyncio.sleep(0.01)
                assert depth >= 1
                # Third request: bounced with 429 + Retry-After.
                with pytest.raises(GatewayError) as excinfo:
                    await post_completion(
                        host, port, {"prompt": [5, 6], "max_tokens": 2})
                assert excinfo.value.status == 429
                assert int(excinfo.value.headers["retry-after"]) >= 1
                assert gateway.metrics.backpressure_rejections.value() == 1
                # Free the slot; the queued request completes, proving
                # the engine loop survived the overflow.
                await stream.close()
                queued = await queued_task
                assert len(queued["choices"][0]["tokens"]) == 2
                assert gateway.runner.alive

        asyncio.run(scenario())


class TestLifecycleOverHTTP:
    def test_expired_timeout_reports_deadline(self, model):
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                # A deadline that predates the first engine step: the
                # request expires before producing anything.
                response = await post_completion(
                    host, port, {"prompt": [1, 2, 3], "max_tokens": 8,
                                 "timeout": 1e-9})
                assert response["choices"][0]["finish_reason"] == "deadline"
                assert response["choices"][0]["tokens"] == []
                # A generous deadline changes nothing.
                response = await post_completion(
                    host, port, {"prompt": [1, 2, 3], "max_tokens": 4,
                                 "timeout": 60})
                assert response["choices"][0]["finish_reason"] == "length"

        asyncio.run(scenario())

    def test_priority_field_accepted_and_forwarded(self, model):
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                response = await post_completion(
                    host, port, {"prompt": [4, 2], "max_tokens": 2,
                                 "priority": 7})
                assert len(response["choices"][0]["tokens"]) == 2
                reasons = gateway.metrics.completed_requests
                assert reasons.value(reason="length") >= 1

        asyncio.run(scenario())

    def test_ttft_histogram_populated_after_requests(self, model):
        async def scenario():
            async with gateway_stack(model) as (gateway, host, port):
                for i in range(3):
                    await post_completion(
                        host, port, {"prompt": [1 + i, 2],
                                     "max_tokens": 3})
                _, _, body = await http_get(host, port, "/metrics")
                return body.decode()

        body = asyncio.run(scenario())
        for line in body.splitlines():
            if line.startswith("gateway_ttft_seconds_count"):
                assert int(line.split()[-1]) == 3
                break
        else:
            pytest.fail("ttft histogram missing from /metrics")
        for line in body.splitlines():
            if line.startswith("gateway_token_latency_seconds_count"):
                assert int(line.split()[-1]) >= 2
                break
        else:
            pytest.fail("token latency histogram missing from /metrics")
