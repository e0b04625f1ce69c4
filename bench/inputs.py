"""Seeded workload inputs.  Every function is a pure function of its rng.

The program under test receives only what these return (token lists and
due times); one ``numpy.random.default_rng(seed)`` per run drives them in
a fixed order, so a seed names one exact set of inputs.
"""

from __future__ import annotations

from typing import List, Sequence, Set, Tuple

import numpy as np


def unique_prompts(rng: np.random.Generator, count: int, vocab: int,
                   min_len: int, max_len: int,
                   taken: Set[Tuple[int, ...]]) -> List[List[int]]:
    """``count`` random prompts, pairwise distinct and not in ``taken``.

    Distinct so that no request can hit another's KV pages by accident and
    so a prompt identifies its request in the trace.
    """
    prompts: List[List[int]] = []
    while len(prompts) < count:
        length = int(rng.integers(min_len, max_len + 1))
        prompt = tuple(int(t) for t in rng.integers(0, vocab, size=length))
        if prompt not in taken:
            taken.add(prompt)
            prompts.append(list(prompt))
    return prompts


def shared_prefix_prompts(rng: np.random.Generator, count: int, vocab: int,
                          prefixes: Sequence[Sequence[int]], hot: int,
                          hot_share: float, suffix_len: int,
                          taken: Set[Tuple[int, ...]]) -> List[List[int]]:
    """Prompts of one shared prefix plus a unique suffix.

    The first ``hot`` prefixes receive ``hot_share`` of the requests, the
    rest share the remainder evenly.
    """
    cold = len(prefixes) - hot
    weights = np.array([hot_share / hot] * hot
                       + [(1.0 - hot_share) / cold] * cold)
    choice = rng.choice(len(prefixes), size=count, p=weights)
    suffixes = unique_prompts(rng, count, vocab, suffix_len, suffix_len, taken)
    return [list(prefixes[int(c)]) + suffix
            for c, suffix in zip(choice, suffixes)]


def arrival_schedule(rng: np.random.Generator, rate_rps: float,
                     count: int) -> np.ndarray:
    """Due times (s from phase start) of ``count`` Poisson arrivals."""
    return np.cumsum(rng.exponential(1.0 / rate_rps, size=count))
