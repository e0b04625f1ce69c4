"""The asyncio HTTP frontend of the serving gateway.

A deliberately small HTTP/1.1 server on raw ``asyncio`` streams (stdlib
only — the container rule) exposing three endpoints:

* ``POST /v1/completions`` — OpenAI-style completions over token ids
  (:mod:`repro.server.protocol`).  With ``"stream": true`` the response
  is ``text/event-stream`` over chunked transfer encoding: one SSE chunk
  per generated token *as the decode step produces it*, a terminal chunk
  carrying ``finish_reason``, then ``data: [DONE]``.  Without streaming,
  the request blocks until the generation finishes and returns one JSON
  body.
* ``GET /healthz`` — liveness: runner thread state, step count, work
  counts.
* ``GET /metrics`` — Prometheus text format
  (:mod:`repro.server.metrics`).

Lifecycle semantics, in terms of the layers below:

* **Backpressure** — admission is bounded by
  :class:`repro.server.queue.RequestLifecycle`; a full queue yields HTTP
  429 with a ``Retry-After`` hint instead of unbounded buffering, and the
  engine loop never sees the rejected request.
* **Deadlines / priorities** — ``timeout`` and ``priority`` fields ride
  the request into the engine's priority-aware admission queue; an
  expired request comes back with ``finish_reason == "deadline"``.
* **Disconnects** — a client that goes away mid-stream (EOF on its
  connection, or a failed write) gets its session cancelled on the
  engine thread, which releases every KV page the session held (shared
  pages survive via refcounts).  Disconnect-before-admission cancels the
  still-queued session the same way.

One request per connection (``Connection: close``): serving-gateway
clients hold a connection per in-flight completion anyway, and it keeps
the parser honest.

Determinism: the gateway adds no sampling of its own — tokens come out of
the same engine step loop the in-process tests drive, so streamed tokens
concatenated per request are token-identical to a sequential
:class:`repro.llm.inference.Generator` run (asserted end-to-end over HTTP
in ``tests/server/test_gateway.py``).
"""

from __future__ import annotations

import asyncio
import json
from typing import Dict, Optional, Tuple

from repro.core.config import GatewayConfig
from repro.llm.inference import StreamAssembler
from repro.llm.model import TransformerModel
from repro.serving.engine import ServingEngine

from repro.server.metrics import GatewayMetrics
from repro.server.protocol import (
    SSE_DONE,
    CompletionRequest,
    ProtocolError,
    chunk_body,
    completion_body,
    error_body,
    sse_event,
)
from repro.server.queue import QueueFull, RequestLifecycle
from repro.server.runner import EngineRunner

__all__ = ["Gateway", "serve_model"]

_REASONS = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 431: "Request Header Fields Too Large",
    500: "Internal Server Error", 504: "Gateway Timeout",
}

#: Caps on the request head, so a client streaming endless header lines
#: cannot grow per-connection memory without bound (max_body_bytes only
#: bounds the body).
MAX_HEADER_LINES = 128
MAX_HEADER_BYTES = 32 * 1024


def _chunk(data: bytes) -> bytes:
    """Frame one piece of a chunked transfer-encoded body."""
    return f"{len(data):X}\r\n".encode() + data + b"\r\n"


_LAST_CHUNK = b"0\r\n\r\n"

#: Put into a stream's event queue when its client's read side ends.
_DISCONNECTED = object()


class _BadRequest(Exception):
    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status


async def _read_request(reader: asyncio.StreamReader, max_body: int,
                        ) -> Tuple[str, str, Dict[str, str], bytes]:
    """Parse one HTTP/1.1 request: (method, path, headers, body)."""
    request_line = await reader.readline()
    if not request_line:
        raise ConnectionResetError("client closed before sending a request")
    parts = request_line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(400, "malformed request line")
    method, path = parts[0].upper(), parts[1]
    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        line = await reader.readline()
        if line in (b"\r\n", b"\n", b""):
            break
        header_bytes += len(line)
        if len(headers) >= MAX_HEADER_LINES or \
                header_bytes > MAX_HEADER_BYTES:
            raise _BadRequest(431, "too many / too large header fields")
        name, _, value = line.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    length_raw = headers.get("content-length", "0")
    try:
        length = int(length_raw)
    except ValueError:
        raise _BadRequest(400, f"bad Content-Length {length_raw!r}")
    if length < 0:
        raise _BadRequest(400, f"bad Content-Length {length_raw!r}")
    if length > max_body:
        raise _BadRequest(413, f"body exceeds {max_body} bytes")
    body = await reader.readexactly(length) if length else b""
    return method, path, headers, body


class Gateway:
    """HTTP frontend over an :class:`EngineRunner`."""

    def __init__(self, runner: EngineRunner,
                 config: Optional[GatewayConfig] = None,
                 metrics: Optional[GatewayMetrics] = None,
                 model_name: str = "repro-tmac"):
        self.runner = runner
        self.config = config or GatewayConfig()
        self.metrics = metrics if metrics is not None else (
            runner.metrics or GatewayMetrics(self.config.metrics_namespace))
        if runner.metrics is None:
            runner.metrics = self.metrics
        self.model_name = model_name
        self.lifecycle = RequestLifecycle(
            max_queue_depth=self.config.max_queue_depth,
            retry_after_s=self.config.retry_after_s,
        )
        self._server: Optional[asyncio.AbstractServer] = None

    # ------------------------------------------------------------------ #
    # Server lifecycle
    # ------------------------------------------------------------------ #

    async def start(self) -> Tuple[str, int]:
        """Bind and start serving; returns (host, port) actually bound."""
        if self._server is not None:
            raise RuntimeError("gateway already started")
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port)
        return self.address

    @property
    def address(self) -> Tuple[str, int]:
        if self._server is None:
            raise RuntimeError("gateway not started")
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        return host, port

    async def stop(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        status = 500
        path = "?"
        try:
            try:
                method, path, headers, body = await _read_request(
                    reader, self.config.max_body_bytes)
            except _BadRequest as exc:
                status = exc.status
                await self._respond_json(writer, exc.status,
                                         error_body(str(exc)))
                return
            path = path.split("?", 1)[0]
            if path == "/healthz" and method == "GET":
                status = await self._healthz(writer)
            elif path == "/metrics" and method == "GET":
                status = await self._metrics(writer)
            elif path == "/v1/completions" and method == "POST":
                status = await self._completions(reader, writer, body)
            elif path in ("/healthz", "/metrics", "/v1/completions"):
                status = 405
                await self._respond_json(
                    writer, 405, error_body(f"method {method} not allowed"))
            else:
                status = 404
                await self._respond_json(
                    writer, 404, error_body(f"no route for {path}"))
        except (ConnectionResetError, asyncio.IncompleteReadError,
                BrokenPipeError):
            status = 499  # client went away; nothing to answer
        except Exception as exc:  # never take the server down
            status = 500
            try:
                await self._respond_json(
                    writer, 500, error_body(f"internal error: {exc}",
                                            error_type="server_error"))
            except Exception:
                pass
        finally:
            # Unmatched paths collapse into one label: the path is
            # client-controlled, and per-path Prometheus series must not
            # grow with whatever a port scanner probes.
            known = ("/healthz", "/metrics", "/v1/completions")
            self.metrics.http_requests.inc(
                path=path if path in known else "other",
                status=str(status))
            writer.close()
            try:
                await writer.wait_closed()
            except Exception:
                pass

    # ------------------------------------------------------------------ #
    # Plain endpoints
    # ------------------------------------------------------------------ #

    async def _healthz(self, writer: asyncio.StreamWriter) -> int:
        snapshot = await asyncio.wrap_future(self.runner.stats())
        payload = {
            "status": "ok" if self.runner.alive else "dead",
            "steps": self.runner.steps,
            "step_failures": snapshot["step_failures"],
            "active": snapshot["active"],
            "prefilling": snapshot["prefilling"],
            "waiting": snapshot["waiting"],
        }
        status = 200 if self.runner.alive else 500
        await self._respond_json(writer, status, payload)
        return status

    async def _metrics(self, writer: asyncio.StreamWriter) -> int:
        # Refresh the engine-mirrored gauges with a consistent snapshot
        # taken on the engine thread, then render.
        snapshot = await asyncio.wrap_future(self.runner.stats())
        self.metrics.observe_engine(snapshot["serving"],
                                    queue_depth=snapshot["waiting"])
        self.metrics.observe_counts(snapshot["active"],
                                    snapshot["prefilling"])
        body = self.metrics.render().encode()
        await self._respond_raw(
            writer, 200, body,
            content_type="text/plain; version=0.0.4; charset=utf-8")
        return 200

    # ------------------------------------------------------------------ #
    # Completions
    # ------------------------------------------------------------------ #

    async def _completions(self, reader: asyncio.StreamReader,
                           writer: asyncio.StreamWriter,
                           body: bytes) -> int:
        try:
            request = CompletionRequest.from_json(json.loads(body or b"{}"))
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            await self._respond_json(writer, 400,
                                     error_body(f"invalid JSON: {exc}"))
            return 400
        except ProtocolError as exc:
            await self._respond_json(writer, 400, error_body(str(exc)))
            return 400

        timeout_s = request.timeout_s
        if timeout_s is None:
            timeout_s = self.config.default_timeout_s
        try:
            ticket = self.lifecycle.admit(self.runner.queue_depth,
                                          priority=request.priority,
                                          timeout_s=timeout_s)
        except QueueFull as exc:
            self.metrics.backpressure_rejections.inc()
            retry_after = max(1, int(exc.retry_after_s))
            await self._respond_json(
                writer, 429,
                error_body(str(exc), error_type="rate_limit_error",
                           retry_after_s=retry_after),
                extra_headers={"Retry-After": str(retry_after)})
            return 429

        loop = asyncio.get_running_loop()
        events: "asyncio.Queue" = asyncio.Queue()

        def hook(event) -> None:  # runs on the engine-runner thread
            loop.call_soon_threadsafe(events.put_nowait, event)

        try:
            try:
                session_id = await asyncio.wrap_future(self.runner.submit(
                    prompt_tokens=list(request.prompt),
                    max_new_tokens=request.max_tokens,
                    temperature=request.temperature,
                    top_k=request.top_k,
                    stop_tokens=request.stop,
                    seed=request.seed,
                    priority=request.priority,
                    timeout_s=timeout_s,
                    stream_hook=hook,
                ))
            except ValueError as exc:  # semantic validation (engine-side)
                ticket.finish_reason = "rejected"
                await self._respond_json(writer, 400, error_body(str(exc)))
                return 400
            ticket.session_id = session_id
            if request.stream:
                return await self._stream_response(
                    reader, writer, request, ticket, events)
            return await self._sync_response(writer, request, ticket,
                                             events)
        finally:
            # Always runs — submit failures of any kind included — so
            # tickets cannot leak from the in-flight table, and the
            # engine-side session is collected (release if finished,
            # cancel if a handler bailed out mid-stream) to keep the
            # session table proportional to the in-flight request set.
            self.lifecycle.close(ticket, ticket.finish_reason or "closed")
            if ticket.session_id is not None:
                self.runner.reap(ticket.session_id)

    async def _sync_response(self, writer: asyncio.StreamWriter,
                             request: CompletionRequest, ticket,
                             events: "asyncio.Queue") -> int:
        assembler = StreamAssembler(request.prompt)
        while not assembler.finished:
            event = await events.get()
            if event.finished:
                assembler.finish(event.finish_reason)
            else:
                assembler.feed_token(event.index, event.token)
                self.lifecycle.note_token(ticket)
        result = assembler.result()
        ticket.finish_reason = result.finish_reason
        self.metrics.completed_requests.inc(reason=result.finish_reason)
        await self._respond_json(writer, 200, completion_body(
            ticket.request_id, self.model_name, len(request.prompt),
            result.generated_tokens, result.finish_reason))
        return 200

    async def _stream_response(self, reader: asyncio.StreamReader,
                               writer: asyncio.StreamWriter,
                               request: CompletionRequest, ticket,
                               events: "asyncio.Queue") -> int:
        writer.write(self._head(200, {
            "Content-Type": "text/event-stream",
            "Cache-Control": "no-cache",
            "Transfer-Encoding": "chunked",
        }))
        await writer.drain()
        # Protocol decision: a streaming client keeps its read side open
        # and sends nothing more, so EOF (or any stray byte) on the read
        # side is treated as abandonment.  Watching the read side is what
        # makes a disconnect visible *before* the session produces tokens
        # (the disconnect-before-admission path) — write-error detection
        # alone only fires once chunks flow.  The cost: a client that
        # half-closes (shutdown(SHUT_WR)) is treated as gone.  The
        # watchdog reports into the event queue itself, so each token
        # costs one await; events queued before the disconnect drain first.
        watchdog = asyncio.create_task(reader.read(1))
        watchdog.add_done_callback(
            lambda _: events.put_nowait(_DISCONNECTED))
        try:
            while True:
                event = await events.get()
                if event is _DISCONNECTED:
                    await self._abort_stream(ticket)
                    return 499
                if event.finished:
                    ticket.finish_reason = event.finish_reason
                    self.metrics.completed_requests.inc(
                        reason=event.finish_reason)
                    writer.write(_chunk(sse_event(chunk_body(
                        ticket.request_id, self.model_name, event.index,
                        None, finish_reason=event.finish_reason))))
                    writer.write(_chunk(SSE_DONE))
                    writer.write(_LAST_CHUNK)
                    await writer.drain()
                    return 200
                self.lifecycle.note_token(ticket)
                self.metrics.streamed_tokens.inc()
                writer.write(_chunk(sse_event(chunk_body(
                    ticket.request_id, self.model_name, event.index,
                    event.token))))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            await self._abort_stream(ticket)
            return 499
        finally:
            watchdog.cancel()

    async def _abort_stream(self, ticket) -> None:
        """Client went away: cancel the session, reclaiming its pages."""
        self.metrics.client_disconnects.inc()
        ticket.finish_reason = "disconnect"
        if ticket.session_id is not None:
            await asyncio.wrap_future(self.runner.cancel(ticket.session_id))

    # ------------------------------------------------------------------ #
    # Response plumbing
    # ------------------------------------------------------------------ #

    def _head(self, status: int, headers: Dict[str, str]) -> bytes:
        lines = [f"HTTP/1.1 {status} {_REASONS.get(status, 'Unknown')}"]
        lines.extend(f"{name}: {value}" for name, value in headers.items())
        lines.append("Connection: close")
        return ("\r\n".join(lines) + "\r\n\r\n").encode()

    async def _respond_raw(self, writer: asyncio.StreamWriter, status: int,
                           body: bytes, content_type: str,
                           extra_headers: Optional[Dict[str, str]] = None,
                           ) -> None:
        headers = {
            "Content-Type": content_type,
            "Content-Length": str(len(body)),
        }
        if extra_headers:
            headers.update(extra_headers)
        writer.write(self._head(status, headers) + body)
        await writer.drain()

    async def _respond_json(self, writer: asyncio.StreamWriter, status: int,
                            payload: dict,
                            extra_headers: Optional[Dict[str, str]] = None,
                            ) -> None:
        await self._respond_raw(
            writer, status, json.dumps(payload).encode(),
            content_type="application/json", extra_headers=extra_headers)


def serve_model(model: TransformerModel,
                config: Optional[GatewayConfig] = None,
                model_name: str = "repro-tmac",
                **engine_kwargs) -> Gateway:
    """Build the full serving stack around one model (not yet started).

    Convenience used by the demo, benchmarks and tests::

        gateway = serve_model(model, GatewayConfig(port=0),
                              max_batch_size=4, kv_cache_bytes=1 << 20)
        gateway.runner.start()
        host, port = await gateway.start()
        ...
        await gateway.stop()
        gateway.runner.stop()
    """
    config = config or GatewayConfig()
    engine = ServingEngine(model, **engine_kwargs)
    metrics = GatewayMetrics(config.metrics_namespace)
    runner = EngineRunner(engine, metrics=metrics)
    return Gateway(runner, config=config, metrics=metrics,
                   model_name=model_name)
