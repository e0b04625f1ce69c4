"""EngineRunner: thread-shipped ops, step-failure containment, reaping."""

import time

import pytest

from repro.backends import get_backend
from repro.llm import TransformerModel, tiny_arch
from repro.llm.model import generate_random_weights
from repro.serving import ServingEngine
from repro.server.runner import EngineRunner


def make_model():
    arch = tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                     num_heads=4, vocab_size=97, max_seq_len=64)
    weights = generate_random_weights(arch, seed=3)
    return TransformerModel(
        arch, engine=get_backend("tmac", bits=4, group_size=32),
        weights=weights)


def wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.01)
    return False


class TestRunnerBasics:
    def test_submit_and_drain(self):
        with EngineRunner(ServingEngine(make_model())) as runner:
            events = []
            sid = runner.submit(prompt_tokens=[1, 2], max_new_tokens=4,
                                stream_hook=events.append).result(5)
            assert wait_until(lambda: events and events[-1].finished)
            tokens = [e.token for e in events if not e.finished]
            assert len(tokens) == 4
            result = runner.reap(sid).result(5)
            assert result.generated_tokens == tokens
            assert runner.call(lambda e: len(e.sessions)).result(5) == 0

    def test_call_after_stop_fails_fast(self):
        runner = EngineRunner(ServingEngine(make_model()))
        runner.start()
        runner.stop()
        with pytest.raises(RuntimeError):
            runner.call(lambda e: e.num_waiting).result(5)

    def test_reap_unknown_session_is_none(self):
        with EngineRunner(ServingEngine(make_model())) as runner:
            assert runner.reap(10 ** 9).result(5) is None

    def test_call_before_start_fails_fast(self):
        """A never-started runner must not hang callers forever."""
        runner = EngineRunner(ServingEngine(make_model()))
        with pytest.raises(RuntimeError):
            runner.call(lambda e: e.num_waiting)

    def test_queue_depth_ignores_non_submit_commands(self):
        """Stats/reap traffic must not trip 429 admission control."""
        with EngineRunner(ServingEngine(make_model())) as runner:
            futures = [runner.stats() for _ in range(10)]
            assert runner.queue_depth == 0
            for future in futures:
                future.result(5)


class TestIdleRunner:
    def test_idle_runner_sleeps_until_a_command(self):
        """An idle runner blocks on its command queue: no loop iteration
        (and no GIL grab) until a command arrives, which still wakes it."""
        runner = EngineRunner(ServingEngine(make_model()))
        iterations = []
        drain = runner._drain_commands

        def counting_drain():
            iterations.append(time.monotonic())
            return drain()

        runner._drain_commands = counting_drain
        with runner:
            runner.stats().result(5)
            time.sleep(0.05)  # let the loop settle into its idle wait
            before = len(iterations)
            time.sleep(0.05)
            assert len(iterations) == before
            assert runner.call(lambda e: e.num_waiting).result(5) == 0
            assert len(iterations) > before

    def test_stop_on_idle_runner_returns_promptly(self):
        runner = EngineRunner(ServingEngine(make_model())).start()
        runner.stats().result(5)
        started = time.monotonic()
        runner.stop()
        assert time.monotonic() - started < 1.0
        assert not runner.alive


class TestStepFailureContainment:
    def test_step_exception_cancels_sessions_and_loop_survives(self):
        engine = ServingEngine(make_model())

        def broken_step():
            raise RuntimeError("scheduler bug")

        engine.step = broken_step
        with EngineRunner(engine) as runner:
            events = []
            runner.submit(prompt_tokens=[1, 2], max_new_tokens=8,
                          stream_hook=events.append).result(5)
            # The failing step must not kill the thread, and the blocked
            # consumer must still get its terminal event (via cancel).
            assert wait_until(lambda: events and events[-1].finished)
            assert events[-1].finish_reason == "cancelled"
            assert runner.alive
            assert runner.step_failures >= 1
            assert isinstance(runner.last_step_error, RuntimeError)
            assert runner.stats().result(5)["step_failures"] >= 1
            # Commands keep flowing after the failure.
            assert runner.call(lambda e: len(e.sessions)).result(5) == 0


class TestPendingSubmitAccounting:
    def test_concurrent_submits_never_skew_queue_depth(self):
        """Regression (found by repro_lint): ``_pending_submits`` was
        incremented on caller threads and decremented on the runner
        thread with no lock — lost updates would skew admission control's
        queue depth forever.  Hammer submits from many threads and assert
        the counter returns exactly to zero."""
        import threading

        with EngineRunner(ServingEngine(make_model())) as runner:
            futures = []
            futures_lock = threading.Lock()

            def submit_some(seed):
                for i in range(10):
                    future = runner.submit(prompt_tokens=[1 + seed, 2 + i],
                                           max_new_tokens=1)
                    with futures_lock:
                        futures.append(future)

            threads = [threading.Thread(target=submit_some, args=(t,))
                       for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            sids = [future.result(5) for future in futures]
            assert len(sids) == 40
            # Every shipped submit has executed; the pending counter must
            # be exactly zero (queue_depth only adds engine waiters).
            assert wait_until(lambda: runner._pending_submits == 0)
            assert runner._pending_submits == 0
