"""The benchmark's models, built through the public API with no knobs set.

Weights are fixed per model (a model is part of the benchmark's
definition); ``--seed`` drives prompts and arrivals only.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.backends import get_backend
from repro.backends.base import pick_group_size
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.core.plan import clear_plan_cache, get_plan
from repro.llm import TransformerModel, tiny_arch
from repro.llm.model import generate_random_weights
from repro.quant.uniform import quantize_weights

BITS = 4


@dataclass(frozen=True)
class ModelSpec:
    name: str
    hidden: int
    intermediate: int
    layers: int
    heads: int
    vocab: int
    max_seq_len: int
    group_size: int
    weights_seed: int = 3

    def arch(self):
        return tiny_arch(hidden_size=self.hidden,
                         intermediate_size=self.intermediate,
                         num_layers=self.layers, num_heads=self.heads,
                         vocab_size=self.vocab, max_seq_len=self.max_seq_len)


MEDIUM = ModelSpec("bench-medium", 512, 1376, 4, 8, 1024, 256, 64)
SMALL = ModelSpec("bench-small", 256, 688, 4, 8, 512, 256, 64)
TINY = ModelSpec("bench-tiny", 64, 128, 2, 4, 97, 192, 32)


def build_model(spec: ModelSpec, weights: Dict = None):
    """``(weights, model)`` exactly as a user with default settings builds it."""
    arch = spec.arch()
    if weights is None:
        weights = generate_random_weights(arch, seed=spec.weights_seed)
    model = TransformerModel(
        arch, engine=get_backend("tmac", bits=BITS,
                                 group_size=spec.group_size),
        weights=weights)
    return weights, model


def distinct_kernels(model: TransformerModel) -> List[TMACKernel]:
    """One kernel per distinct (out, in) linear shape of the model."""
    seen: Dict[Tuple[int, int], TMACKernel] = {}
    for op in model.linears():
        seen.setdefault((op.out_features, op.in_features), op.kernel)
    return list(seen.values())


def executor_parity_failures(model: TransformerModel,
                             rng: np.random.Generator) -> Tuple[int, int]:
    """``(checked, failed)``: default executor vs the loop oracle, 1 row."""
    failed = 0
    kernels = distinct_kernels(model)
    for kernel in kernels:
        x = rng.standard_normal((1, kernel.in_features)).astype(np.float32)
        oracle = TMACKernel.from_plan(
            kernel.plan, kernel.config.with_options(executor="loop"))
        failed += not np.array_equal(kernel.matmul(x), oracle.matmul(x))
    return len(kernels), failed


def min_time_ms(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best * 1e3


def kernel_probes() -> Dict[str, float]:
    """mpGEMV on bench-medium's 1376x512 projection, 1 row, min of 7.

    4 vs 2 bits is the paper's linear-in-bits claim; ``threads2`` is the
    thread-pool executor.  The process-pool executor is not exercised
    (2 usable cores here; a >=4-core comparison is a later issue).
    """
    rng = np.random.default_rng(MEDIUM.weights_seed)
    weight = rng.standard_normal(
        (MEDIUM.intermediate, MEDIUM.hidden)).astype(np.float32)
    x = rng.standard_normal((1, MEDIUM.hidden)).astype(np.float32)
    group = pick_group_size(MEDIUM.hidden, MEDIUM.group_size)
    out: Dict[str, float] = {}
    for bits in (4, 2):
        config = TMACConfig(bits=bits)
        plan = get_plan(quantize_weights(weight, bits=bits, group_size=group),
                        config)
        kernel = TMACKernel.from_plan(plan, config)
        kernel.matmul(x)
        out[f"core.mpgemv_ms.b{bits}"] = min_time_ms(
            lambda: kernel.matmul(x), 7)
        if bits == 4:
            threaded = TMACKernel.from_plan(plan, TMACConfig(
                bits=4, executor="parallel", num_threads=2,
                parallel_threshold=0))
            threaded.matmul(x)
            out["core.mpgemv_ms.threads2"] = min_time_ms(
                lambda: threaded.matmul(x), 7)
    out["core.bit_scaling_ratio"] = (out["core.mpgemv_ms.b4"]
                                     / out["core.mpgemv_ms.b2"])
    return out


def setup_split(spec: ModelSpec, weights: Dict) -> Dict[str, float]:
    """Quantize and plan every linear of ``spec`` through the public API.

    The same calls ``TMACBackend.make_linear`` makes, timed one by one from
    outside, so the two largest parts of ``setup_s`` are visible.
    """
    matrices = [weights["lm_head"]]
    for layer in weights["layers"]:
        matrices.extend(layer["attention"].values())
        matrices.extend(layer["mlp"].values())
    clear_plan_cache()
    config = TMACConfig(bits=BITS)
    quantize_s = plan_s = 0.0
    for matrix in matrices:
        w = np.asarray(matrix, dtype=np.float32)
        start = time.perf_counter()
        qw = quantize_weights(
            w, bits=BITS,
            group_size=pick_group_size(w.shape[1], spec.group_size))
        middle = time.perf_counter()
        get_plan(qw, config)
        plan_s += time.perf_counter() - middle
        quantize_s += middle - start
    return {"quant.quantize_s": quantize_s, "core.plan_build_s": plan_s}
