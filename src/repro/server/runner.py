"""The engine runner: a dedicated thread that owns the serving engine.

:class:`repro.serving.engine.ServingEngine` is single-threaded by design
— every piece of scheduling state is mutated inside :meth:`step`.  The
gateway is an asyncio event loop.  :class:`EngineRunner` is the bridge:
it runs the engine on one background thread, and everything the frontend
wants from the engine (submit, cancel, introspection) is shipped to that
thread as a closure and returned through a
:class:`concurrent.futures.Future` — so the engine never sees a second
thread, and the event loop never blocks on a decode step.

Per-token streaming flows the other way: the ``stream_hook`` a caller
passes to :meth:`submit` is invoked *on the runner thread* the moment a
decode step produces the token (the engine publishes inside
:meth:`step`); the gateway wraps its hooks in
``loop.call_soon_threadsafe`` to hop back onto the event loop.

After every step the runner drains the engine's TTFT / decode-wall
samples into the gateway metrics histograms — the satellite contract that
keeps ``/metrics`` free of engine monkey-patching.
"""

from __future__ import annotations

import queue
import threading
from concurrent.futures import Future
from typing import Any, Callable, Dict, Optional

from repro.serving.engine import ServingEngine

from repro.server.metrics import GatewayMetrics

__all__ = ["EngineRunner"]


class EngineRunner:
    """Drive a :class:`ServingEngine` on a dedicated background thread."""

    def __init__(self, engine: ServingEngine,
                 metrics: Optional[GatewayMetrics] = None):
        self.engine = engine
        self.metrics = metrics
        self._commands: "queue.Queue" = queue.Queue()
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run,
                                        name="engine-runner", daemon=True)
        self.steps = 0
        #: Engine steps that raised (the loop cancels all live sessions
        #: and keeps serving — a scheduler bug must not hang clients).
        self.step_failures = 0
        self.last_step_error = None
        self._started = False
        #: Submits shipped but not yet executed on the engine thread —
        #: counted separately from other commands so admission control
        #: does not mistake metrics scrapes for queued requests.  Bumped
        #: on caller threads and decremented on the runner thread, so the
        #: counter has its own lock (unsynchronized "x += 1" from two
        #: threads can lose updates and skew admission forever).
        self._pending_submits = 0
        self._pending_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "EngineRunner":
        if self._started:
            raise RuntimeError("runner already started")
        self._started = True
        self._thread.start()
        return self

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the loop (pending commands are drained first, work is not)."""
        self._stop.set()
        self._commands.put(None)  # wake a blocked get()
        if self._thread.is_alive():
            self._thread.join(timeout)

    def __enter__(self) -> "EngineRunner":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    @property
    def alive(self) -> bool:
        return self._thread.is_alive()

    @property
    def queue_depth(self) -> int:
        """Requests waiting for admission plus submits not yet executed.

        Only *request* work counts: stats/cancel/reap commands are
        transient and must not trip 429 backpressure.  The two terms are
        read independently — admission control only needs a bound, not an
        atomic snapshot across engine and runner.
        """
        with self._pending_lock:
            pending = self._pending_submits
        return self.engine.num_waiting + pending

    # ------------------------------------------------------------------ #
    # Thread-shipped operations
    # ------------------------------------------------------------------ #

    def call(self, fn: Callable[[ServingEngine], Any]) -> "Future":
        """Run ``fn(engine)`` on the runner thread; resolve its result.

        The only way the frontend touches the engine: submissions,
        cancels, stats snapshots and test introspection all go through
        here, so every engine access happens on the thread that owns it.
        """
        if not self._started:
            raise RuntimeError(
                "engine runner not started; call start() first")
        future: "Future" = Future()
        self._commands.put((fn, future))
        if not self.alive and not future.done():
            # The loop already exited: fail fast instead of hanging.  The
            # guard races with the final drain, which may have resolved
            # the future between the checks — that resolution wins.
            try:
                future.set_exception(RuntimeError("engine runner is stopped"))
            except Exception:
                pass
        return future

    def submit(self, *, stream_hook=None, timeout_s: Optional[float] = None,
               **request: Any) -> "Future":
        """Submit a generation request; resolves to the session id.

        ``timeout_s`` (seconds from now) is converted to an absolute
        engine-clock deadline on the runner thread, so gateway and engine
        never compare timestamps from different clocks.
        """

        def op(engine: ServingEngine) -> int:
            with self._pending_lock:
                self._pending_submits -= 1
            deadline = (engine.clock() + timeout_s
                        if timeout_s is not None else None)
            return engine.submit(stream_hook=stream_hook,
                                 deadline=deadline, **request)

        with self._pending_lock:
            self._pending_submits += 1
        try:
            return self.call(op)
        except BaseException:
            with self._pending_lock:
                self._pending_submits -= 1
            raise

    def cancel(self, session_id: int) -> "Future":
        """Cancel a session; resolves to its partial result.

        Resolves to ``None`` when the session already finished or is
        unknown — the benign disconnect races (client drops right as the
        final token lands), which must not surface as errors.
        """

        def op(engine: ServingEngine):
            try:
                return engine.cancel(session_id)
            except (KeyError, ValueError):
                return None

        return self.call(op)

    def reap(self, session_id: int) -> "Future":
        """Drop one session's bookkeeping once its request is answered.

        Finished sessions are ``release()``d (the engine keeps them until
        someone collects the result — without this, a long-running
        gateway's session table grows with every completed request);
        still-running ones (a handler bailed out without finishing the
        stream) are cancelled.  Gone-already resolves to ``None``.
        """

        def op(engine: ServingEngine):
            session = engine.sessions.get(session_id)
            if session is None:
                return None
            try:
                if session.finished:
                    return engine.release(session_id)
                return engine.cancel(session_id)
            except (KeyError, ValueError):
                return None

        return self.call(op)

    def stats(self) -> "Future":
        """Resolve to a consistent engine stats + counts snapshot."""

        def op(engine: ServingEngine) -> Dict[str, Any]:
            return {
                "serving": engine.serving_stats(),
                "active": engine.num_active,
                "prefilling": engine.num_prefilling,
                "waiting": engine.num_waiting,
                "has_work": engine.has_work,
                "step_failures": self.step_failures,
            }

        return self.call(op)

    # ------------------------------------------------------------------ #
    # The loop
    # ------------------------------------------------------------------ #

    def _run(self) -> None:
        while not self._stop.is_set():
            executed = self._drain_commands()
            if self.engine.has_work:
                try:
                    self.engine.step()
                    self.steps += 1
                    self._after_step()
                except Exception as exc:
                    # A step that dies must not kill the loop: clients
                    # are blocked on terminal events only the engine can
                    # publish.  Cancel every live session (which emits
                    # those events and frees pages) and keep serving.
                    self.step_failures += 1
                    self.last_step_error = exc
                    self._abort_live_sessions()
            elif not executed:
                # Idle: sleep on the command queue until a submit (or
                # stop()'s sentinel) arrives.
                self._execute(self._commands.get())
        self._drain_commands()

    def _drain_commands(self) -> bool:
        executed = False
        while True:
            try:
                command = self._commands.get_nowait()
            except queue.Empty:
                return executed
            executed = self._execute(command) or executed

    def _execute(self, command) -> bool:
        if command is None:  # stop() wake-up sentinel
            return False
        fn, future = command
        if not future.set_running_or_notify_cancel():
            return False
        try:
            future.set_result(fn(self.engine))
        except BaseException as exc:  # deliver, don't kill the loop
            future.set_exception(exc)
        return True

    def _abort_live_sessions(self) -> None:
        """Best-effort cancel of every unfinished session after a step
        failure, so blocked clients receive their terminal events."""
        for session_id in list(self.engine.sessions):
            session = self.engine.sessions.get(session_id)
            if session is None or session.finished:
                continue
            try:
                self.engine.cancel(session_id)
            except Exception:
                pass

    def _after_step(self) -> None:
        if self.metrics is None:
            return
        self.metrics.observe_timing(self.engine.drain_timing_samples())
        self.metrics.observe_counts(self.engine.num_active,
                                    self.engine.num_prefilling)
        self.metrics.queue_depth.set(self.engine.num_waiting)
