"""Serving engine: batched == sequential, continuous batching, LUT reuse."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.core.config import TMACConfig
from repro.core.executor import VectorizedExecutor
from repro.core.plan import clear_plan_cache, plan_cache_stats
from repro.llm import Generator, TransformerModel, tiny_arch
from repro.llm.model import generate_random_weights
from repro.serving import (
    InferenceSession,
    SamplingParams,
    ServingEngine,
    SessionState,
)


def make_arch():
    return tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                     num_heads=4, vocab_size=97, max_seq_len=64)


@pytest.fixture(scope="module")
def arch():
    return make_arch()


@pytest.fixture(scope="module")
def shared_weights(arch):
    return generate_random_weights(arch, seed=3)


def build_model(arch, weights, kind="tmac"):
    if kind == "reference":
        backend = get_backend("reference")
    else:
        backend = get_backend(kind, bits=4, group_size=32)
    return TransformerModel(arch, engine=backend, weights=weights)


class TestSessionLifecycle:
    def test_empty_prompt_rejected(self):
        with pytest.raises(ValueError):
            InferenceSession(prompt_tokens=[])

    def test_non_positive_budget_rejected(self):
        """A request must be able to produce at least one token."""
        with pytest.raises(ValueError):
            SamplingParams(max_new_tokens=-1)
        with pytest.raises(ValueError):
            SamplingParams(max_new_tokens=0)
        SamplingParams(max_new_tokens=1)

    def test_invalid_top_k_rejected(self):
        """top_k < 0 is meaningless; 0 (disabled) and positive are fine."""
        with pytest.raises(ValueError):
            SamplingParams(top_k=-1)
        SamplingParams(top_k=0)
        SamplingParams(top_k=5)

    def test_invalid_temperature_rejected(self):
        """temperature must be finite and >= 0, like the budget check."""
        for bad in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError):
                SamplingParams(temperature=bad)
        SamplingParams(temperature=0.0)
        SamplingParams(temperature=1.5)

    def test_invalid_temperature_rejected_at_submit(self, arch,
                                                    shared_weights):
        serving = ServingEngine(build_model(arch, shared_weights))
        with pytest.raises(ValueError):
            serving.submit([1, 2], temperature=-1.0)
        with pytest.raises(ValueError):
            serving.submit([1, 2], temperature=float("nan"))
        assert serving.num_waiting == 0 and not serving.sessions

    def test_states(self):
        session = InferenceSession(prompt_tokens=[1, 2])
        assert session.state is SessionState.WAITING
        assert not session.finished
        session.finish()
        assert session.finished

    def test_exhausted_budget_advance_samples_nothing(self):
        """advance() on a spent-budget session finishes without sampling."""
        session = InferenceSession(
            prompt_tokens=[1], params=SamplingParams(max_new_tokens=1))
        session.generated_tokens = [3]  # budget already spent
        session.last_logits = np.array([0.0, 1.0], dtype=np.float32)
        session.advance(max_seq_len=64)
        assert session.finished
        assert session.generated_tokens == [3]
        assert session.finish_reason == "length"

    def test_invalid_requests_rejected_at_submit(self, arch, shared_weights):
        """Bad requests must fail at submit(), not mid-batch in step()."""
        serving = ServingEngine(build_model(arch, shared_weights))
        with pytest.raises(ValueError):
            serving.submit([])
        with pytest.raises(ValueError):  # out-of-vocabulary token
            serving.submit([arch.vocab_size + 5])
        with pytest.raises(ValueError):  # prompt longer than the context
            serving.submit([1] * (arch.max_seq_len + 1))
        assert serving.num_waiting == 0 and not serving.sessions


class TestBatchedEqualsSequential:
    """Core serving guarantee: batching does not change any request's output."""

    # T-MAC is row-independent, so token equality is guaranteed bitwise.
    # The BLAS-backed reference can differ in final logits ulps between
    # batched and single-row matmuls; with these weights the argmax gaps
    # are orders of magnitude larger, so token equality is stable.
    @pytest.mark.parametrize("kind", ["tmac", "reference"])
    def test_eight_sessions_match_sequential(self, arch, shared_weights, kind):
        model = build_model(arch, shared_weights, kind)
        prompts = [[1 + i, 5, 9 + (2 * i) % 40] for i in range(8)]
        serving = ServingEngine(model, max_batch_size=8)
        ids = [serving.submit(p, max_new_tokens=8) for p in prompts]
        results = serving.run()

        sequential_model = build_model(arch, shared_weights, kind)
        generator = Generator(sequential_model)
        for prompt, session_id in zip(prompts, ids):
            expected = generator.generate(prompt, max_new_tokens=8)
            assert results[session_id].generated_tokens == \
                expected.generated_tokens

    def test_fast_aggregation_backend(self, arch, shared_weights):
        model = build_model(arch, shared_weights, "tmac-fa")
        prompts = [[2 + i, 7] for i in range(4)]
        serving = ServingEngine(model, max_batch_size=4)
        ids = [serving.submit(p, max_new_tokens=5) for p in prompts]
        results = serving.run()
        generator = Generator(build_model(arch, shared_weights, "tmac-fa"))
        for prompt, session_id in zip(prompts, ids):
            assert results[session_id].generated_tokens == \
                generator.generate(prompt, max_new_tokens=5).generated_tokens

    def test_varying_lengths_and_stop_tokens(self, arch, shared_weights):
        model = build_model(arch, shared_weights)
        requests = [
            ([3, 1, 4, 1, 5], dict(max_new_tokens=3)),
            ([2, 7], dict(max_new_tokens=9)),
            ([9, 2, 6], dict(max_new_tokens=6)),
            ([5], dict(max_new_tokens=12)),
            ([8, 8], dict(max_new_tokens=1)),
        ]
        serving = ServingEngine(model, max_batch_size=3)
        ids = [serving.submit(p, **kw) for p, kw in requests]
        results = serving.run()
        generator = Generator(build_model(arch, shared_weights))
        for (prompt, kwargs), session_id in zip(requests, ids):
            expected = generator.generate(prompt, **kwargs)
            assert results[session_id].generated_tokens == \
                expected.generated_tokens

    def test_temperature_sampling_matches_with_same_seed(self, arch,
                                                         shared_weights):
        model = build_model(arch, shared_weights)
        prompt = [4, 9, 2]
        serving = ServingEngine(model, max_batch_size=2)
        sid = serving.submit(prompt, max_new_tokens=6, temperature=0.8,
                             seed=123)
        other = serving.submit([7, 7], max_new_tokens=6, temperature=0.8,
                               seed=99)
        results = serving.run()
        generator = Generator(build_model(arch, shared_weights), seed=123)
        expected = generator.generate(prompt, max_new_tokens=6,
                                      temperature=0.8)
        assert results[sid].generated_tokens == expected.generated_tokens
        assert other in results


class TestContinuousBatching:
    def test_waiting_sessions_admitted_as_slots_free(self, arch,
                                                     shared_weights):
        model = build_model(arch, shared_weights)
        serving = ServingEngine(model, max_batch_size=2)
        # Two long requests occupy the batch; two short ones queue behind.
        long_a = serving.submit([1, 2], max_new_tokens=10)
        long_b = serving.submit([3, 4], max_new_tokens=10)
        short_a = serving.submit([5, 6], max_new_tokens=2)
        short_b = serving.submit([7, 8], max_new_tokens=2)
        serving.step()
        assert serving.num_active == 2
        assert serving.num_waiting == 2
        results = serving.run()
        assert set(results) == {long_a, long_b, short_a, short_b}
        assert len(results[long_a].generated_tokens) == 10
        assert len(results[short_a].generated_tokens) == 2

    def test_batch_never_exceeds_limit(self, arch, shared_weights):
        model = build_model(arch, shared_weights)
        serving = ServingEngine(model, max_batch_size=3)
        for i in range(7):
            serving.submit([1 + i], max_new_tokens=4)
        while serving.has_work:
            summary = serving.step()
            assert summary["batch_size"] <= 3
        assert serving.peak_batch_size <= 3

    def test_stats_accumulate(self, arch, shared_weights):
        model = build_model(arch, shared_weights)
        serving = ServingEngine(model, max_batch_size=4)
        for i in range(4):
            serving.submit([2 + i, 3], max_new_tokens=4)
        serving.run()
        stats = serving.serving_stats()
        assert stats["prefills"] == 4
        assert stats["decode_steps"] >= 3
        assert stats["mean_batch_size"] > 1.0


    def test_stats_report_thread_pool_and_kernel_counters(
            self, arch, shared_weights):
        model = build_model(arch, shared_weights)
        serving = ServingEngine(model, max_batch_size=2)
        serving.submit([2, 3], max_new_tokens=2)
        serving.run()
        stats = serving.serving_stats()
        for key in ("parallel_calls", "specialize_builds",
                    "specialize_calls"):
            assert key in stats
        assert not [key for key in stats if key.startswith("process_")]


class TestLUTReuse:
    @pytest.mark.parametrize("kind, tables, reuses",
                             [("tmac", 9, 6), ("reference", 0, 0)])
    def test_step_counts_one_table_per_tmac_call(self, arch, shared_weights,
                                                 kind, tables, reuses):
        """4 operators per layer + lm_head; q|k|v and gate|up tables serve
        2 + 1 projections beyond the first.  Non-T-MAC calls build none."""
        model = build_model(arch, shared_weights, kind)
        serving = ServingEngine(model, max_batch_size=2)
        serving.submit([1], max_new_tokens=2)
        serving.submit([2], max_new_tokens=2)
        serving.run()
        stats = serving.serving_stats()
        assert len(model.linears()) == 9
        assert (stats["decode_steps"], stats["batched_tokens"]) == (1, 2)
        assert (stats["lut_precomputes"], stats["lut_reuses"]) == (tables,
                                                                   reuses)

    def test_kernel_calls_per_forward(self, arch, shared_weights,
                                      monkeypatch):
        """Sequential forward and batched decode both make 4 * L + 1 kernel
        calls: no projection sharing an activation is a call of its own.
        Counted at the executor, which every call reaches whether the
        native kernel or the loop oracle runs it."""
        model = TransformerModel(
            arch, weights=shared_weights,
            engine=get_backend("tmac", group_size=32, config=TMACConfig(
                executor="vectorized")))
        expected = 4 * arch.num_layers + 1
        dispatched = []
        dispatch = VectorizedExecutor.matmul_with_table

        def counted(self, *args):
            dispatched.append(args[0])
            return dispatch(self, *args)

        monkeypatch.setattr(VectorizedExecutor, "matmul_with_table", counted)

        def calls(run):
            before = len(dispatched)
            run()
            return len(dispatched) - before

        assert calls(lambda: model.forward(np.array([1, 2, 3]))) == expected
        assert calls(lambda: model.decode(
            [1, 2], [0, 0], [model.new_cache(), model.new_cache()])) == expected

    def test_prefill_calls_forward_and_decode_calls_decode(
            self, arch, shared_weights, monkeypatch):
        """A profiler wrapping ``model.forward`` sees prefill only: the
        engine's decode steps go through ``model.decode``."""
        model = build_model(arch, shared_weights)
        calls = {"forward": 0, "decode": 0}
        for name in calls:
            def counted(*args, _inner=getattr(model, name), _name=name,
                        **kwargs):
                calls[_name] += 1
                return _inner(*args, **kwargs)
            monkeypatch.setattr(model, name, counted)
        serving = ServingEngine(model, max_batch_size=2)
        serving.submit([1, 2], max_new_tokens=3)
        serving.submit([3], max_new_tokens=4)
        serving.run()
        stats = serving.serving_stats()
        assert calls == {"forward": stats["prefill_chunks"],
                         "decode": stats["decode_steps"]}
        assert stats["decode_steps"] == 3

    def test_serving_reports_lut_and_plan_cache_stats(self, arch):
        clear_plan_cache()
        weights = generate_random_weights(make_arch(), seed=11)
        model = build_model(arch, weights)
        serving = ServingEngine(model, max_batch_size=4)
        for i in range(4):
            serving.submit([1 + i, 2], max_new_tokens=4)
        serving.run()
        stats = serving.serving_stats()
        assert stats["lut_reuses"] > 0
        # Rebinding the same checkpoint (e.g. for the sequential comparison
        # path) hits the plan cache instead of re-preprocessing.
        build_model(arch, weights)
        assert plan_cache_stats()["hits"] >= 9

    def test_finished_sessions_release_memory(self, arch, shared_weights):
        """KV caches are dropped at finish; release() evicts the session."""
        model = build_model(arch, shared_weights)
        serving = ServingEngine(model, max_batch_size=2)
        sid = serving.submit([1, 2], max_new_tokens=3)
        active = serving.submit([3, 4], max_new_tokens=50)
        serving.step()
        with pytest.raises(ValueError):  # still decoding
            serving.release(active)
        with pytest.raises(KeyError):
            serving.release(10 ** 9)
        while not serving.sessions[sid].finished:
            serving.step()
        assert serving.sessions[sid].caches is None
        result = serving.release(sid)
        assert len(result.generated_tokens) == 3
        assert sid not in serving.sessions
        # The other session keeps decoding unaffected.
        serving.step()
        assert serving.num_active == 1

    def test_session_decode_counts(self, arch, shared_weights):
        model = build_model(arch, shared_weights)
        serving = ServingEngine(model, max_batch_size=2)
        sid = serving.submit([1, 2, 3], max_new_tokens=5)
        results = serving.run()
        result = results[sid]
        assert result.prefill_length == 3
        assert len(result.generated_tokens) == 5
        # One batched forward per generated token except the last.
        assert result.decode_steps == 4


class TestBatchedDecodeValidation:
    def test_rejects_mismatched_inputs(self, arch, shared_weights):
        model = build_model(arch, shared_weights)
        caches = [model.new_cache()]
        with pytest.raises(ValueError):
            model.decode([], [], [])
        with pytest.raises(ValueError):
            model.decode([1, 2], [0], [caches[0], caches[0]])
        with pytest.raises(ValueError):
            model.decode([1], [0], [])
        with pytest.raises(ValueError):
            model.decode([10 ** 6], [0], caches)
