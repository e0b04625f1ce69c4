"""Unit tests for the model-quality evaluation (Table 4)."""

import numpy as np
import pytest

from repro.backends import get_backend
from repro.eval.perplexity import (
    binary_choice_accuracy,
    evaluate_engines,
    sequence_log_likelihood,
    task_perplexity,
)
from repro.eval.tasks import make_binary_choice_task, make_lm_task
from repro.llm.architecture import tiny_arch
from repro.llm.model import TransformerModel, generate_random_weights


@pytest.fixture(scope="module")
def setup():
    arch = tiny_arch(hidden_size=64, intermediate_size=128, num_layers=2,
                     num_heads=4, vocab_size=67, max_seq_len=64)
    weights = generate_random_weights(arch, seed=31)
    teacher = TransformerModel(arch, weights=weights)
    lm_task = make_lm_task(teacher, num_sequences=4, seq_len=14, seed=1)
    choice_task = make_binary_choice_task(teacher, num_items=6, seed=1)
    return arch, weights, teacher, lm_task, choice_task


class TestMetrics:
    def test_log_likelihood_is_negative(self, setup):
        _, _, teacher, lm_task, _ = setup
        ll = sequence_log_likelihood(teacher, lm_task.sequences[0])
        assert ll < 0

    def test_short_sequence_rejected(self, setup):
        _, _, teacher, _, _ = setup
        with pytest.raises(ValueError):
            sequence_log_likelihood(teacher, np.array([1]), context_len=1)

    def test_perplexity_bounded_by_vocab(self, setup):
        arch, _, teacher, lm_task, _ = setup
        ppl = task_perplexity(teacher, lm_task)
        assert 1.0 < ppl < arch.vocab_size * 1.5

    def test_teacher_prefers_its_own_generations(self, setup):
        """Perplexity on teacher-generated text is far below uniform."""
        arch, _, teacher, lm_task, _ = setup
        assert task_perplexity(teacher, lm_task) < 0.8 * arch.vocab_size

    def test_choice_accuracy_high_for_teacher(self, setup):
        _, _, teacher, _, choice_task = setup
        assert binary_choice_accuracy(teacher, choice_task) >= 0.9


class TestTable4Reproduction:
    def test_engine_comparison_structure(self, setup):
        arch, weights, _, lm_task, choice_task = setup
        engines = [
            get_backend("reference"),
            get_backend("dequant", bits=4, group_size=32),
            get_backend("tmac", bits=4, group_size=32),
            get_backend("tmac", bits=4, group_size=32,
                          fast_aggregation=True),
        ]
        results = evaluate_engines(arch, engines, lm_task, choice_task,
                                   weights=weights)
        assert [r.engine for r in results] == [
            "reference", "llama.cpp", "T-MAC", "T-MAC (+FA)"]

        by_name = {r.engine: r for r in results}
        # T-MAC and llama.cpp must be near-identical in quality; fast
        # aggregation is allowed to deviate more (the paper's +0.4 PPL).
        tq_gap = abs(by_name["T-MAC"].perplexity
                     - by_name["llama.cpp"].perplexity)
        fa_gap = abs(by_name["T-MAC (+FA)"].perplexity
                     - by_name["T-MAC"].perplexity)
        ref_ppl = by_name["reference"].perplexity
        assert tq_gap < 0.05 * ref_ppl
        # All engines stay in the same ballpark as the reference.
        for result in results:
            assert abs(result.perplexity - ref_ppl) < 0.25 * ref_ppl
            assert 0.0 <= result.accuracy <= 1.0
        assert fa_gap >= 0.0  # recorded; magnitude checked at kernel level

    def test_extra_lm_tasks_reported(self, setup):
        arch, weights, teacher, lm_task, _ = setup
        second = make_lm_task(teacher, num_sequences=2, seq_len=10, seed=9,
                              temperature=0.5)
        second.name = "synthetic-lambada"
        results = evaluate_engines(arch, [get_backend("reference")],
                                   lm_task, weights=weights,
                                   extra_lm_tasks=[second])
        assert "synthetic-lambada" in results[0].extra_perplexities
