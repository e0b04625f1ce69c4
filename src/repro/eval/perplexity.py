"""Model-level quality evaluation across mpGEMM engines (paper Table 4).

The evaluation runs the *same* model weights through different engines
(full-precision reference, llama.cpp-style dequantization, T-MAC, T-MAC with
fast aggregation) and measures

* perplexity on a language-modelling task, and
* accuracy on a binary-choice task,

so that any quality difference is attributable to the kernels — the paper's
finding being that T-MAC matches llama.cpp exactly and that only fast
aggregation degrades quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends import Backend
from repro.eval.tasks import SyntheticBinaryChoiceTask, SyntheticLMTask
from repro.llm.architecture import TransformerArch
from repro.llm.layers import softmax
from repro.llm.model import TransformerModel

__all__ = [
    "sequence_log_likelihood",
    "task_perplexity",
    "binary_choice_accuracy",
    "QualityResult",
    "evaluate_engines",
]


def sequence_log_likelihood(model: TransformerModel, tokens: np.ndarray,
                            context_len: int = 1) -> float:
    """Sum of log-probabilities of ``tokens[context_len:]`` given their prefix."""
    tokens = np.asarray(tokens, dtype=np.int64)
    if tokens.size < context_len + 1:
        raise ValueError("sequence too short for the requested context length")
    logits = model.forward(tokens[:-1])
    log_probs = np.log(softmax(logits, axis=-1) + 1e-12)
    targets = tokens[1:]
    picked = log_probs[np.arange(targets.size), targets]
    return float(picked[context_len - 1:].sum())


def task_perplexity(model: TransformerModel, task: SyntheticLMTask) -> float:
    """Perplexity of the model over all sequences of an LM task."""
    total_log_prob = 0.0
    total_tokens = 0
    for sequence in task.sequences:
        total_log_prob += sequence_log_likelihood(model, sequence)
        total_tokens += sequence.size - 1
    return float(np.exp(-total_log_prob / max(total_tokens, 1)))


def binary_choice_accuracy(model: TransformerModel,
                           task: SyntheticBinaryChoiceTask) -> float:
    """Fraction of items where the correct continuation scores higher."""
    correct = 0
    for context, good, bad in zip(task.contexts, task.correct, task.distractor):
        good_ll = sequence_log_likelihood(
            model, np.concatenate([context, good]), context_len=context.size)
        bad_ll = sequence_log_likelihood(
            model, np.concatenate([context, bad]), context_len=context.size)
        if good_ll >= bad_ll:
            correct += 1
    return correct / max(len(task), 1)


@dataclass(frozen=True)
class QualityResult:
    """Quality metrics for one engine (one row of the Table 4 reproduction)."""

    engine: str
    perplexity: float
    accuracy: float
    extra_perplexities: Dict[str, float] = None

    def perplexity_delta(self, baseline: "QualityResult") -> float:
        """Perplexity increase relative to a baseline engine."""
        return self.perplexity - baseline.perplexity


def evaluate_engines(
    arch: TransformerArch,
    engines: Sequence[Backend],
    lm_task: SyntheticLMTask,
    choice_task: Optional[SyntheticBinaryChoiceTask] = None,
    weights: Optional[dict] = None,
    seed: int = 0,
    extra_lm_tasks: Optional[Sequence[SyntheticLMTask]] = None,
) -> List[QualityResult]:
    """Evaluate several engines on identical weights and tasks.

    Parameters
    ----------
    arch / weights / seed:
        Model architecture and (optionally) explicit weights shared across
        all engines; random weights are generated from ``seed`` otherwise.
    engines:
        The engines to compare (order preserved in the result).
    lm_task / choice_task / extra_lm_tasks:
        Tasks built with :mod:`repro.eval.tasks` (typically from the
        reference-engine teacher model).
    """
    from repro.llm.model import generate_random_weights

    shared_weights = weights or generate_random_weights(arch, seed=seed)
    results: List[QualityResult] = []
    for engine in engines:
        model = TransformerModel(arch, engine=engine, weights=shared_weights)
        ppl = task_perplexity(model, lm_task)
        acc = binary_choice_accuracy(model, choice_task) if choice_task else 0.0
        extras = {}
        for task in (extra_lm_tasks or []):
            extras[task.name] = task_perplexity(model, task)
        results.append(QualityResult(
            engine=engine.name,
            perplexity=ppl,
            accuracy=acc,
            extra_perplexities=extras,
        ))
    return results
