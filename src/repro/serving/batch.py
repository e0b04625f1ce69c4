"""Batched decode: one forward pass over many sessions' current tokens.

The decode phase of LLM inference is an mpGEMV per linear layer per request
— the memory-bound regime the paper targets.  With continuous batching the
scheduler coalesces the current token of ``B`` sessions into a ``[B,
hidden]`` activation matrix, so every linear layer executes **one** batched
mpGEMM instead of ``B`` independent mpGEMVs, amortizing each weight-matrix
traversal over the whole batch.

Attention remains per-session (each request has its own KV cache, length
and absolute position) and is computed with exactly the float-op sequence
of the sequential path: one query row per session, so its BLAS products
are the same GEMVs a sequential decode step runs (a multi-row prefill
runs GEMMs, whose blocking may differ in final ulps).  The per-layer
caches are duck-typed: the engine passes either plain
:class:`repro.llm.layers.KVCache` objects or
:class:`repro.kvcache.paged.PagedKVCache` views over the shared page pool
— both expose the same ``append`` / ``stacked`` contract, and the gathered
page contents are bit-identical to the unpaged arrays.  For row-independent kernels (T-MAC: per-row LUT
quantization, lookup and aggregation) a batched step is therefore
*bit-identical* to running the sessions one by one — the property the
serving tests assert.  The fp32 reference backend delegates to BLAS, whose
blocking may differ between GEMV and batched GEMM, so its logits can
differ in final ulps; generated tokens still match except at exact argmax
near-ties.

Two LUT-level reuses stack on top:

* **One table per shared activation** — the lookup table depends only on
  the activation, not on the weights, so the model binds the projections
  consuming the same input (q/k/v after the input norm; gate/up after the
  post-attention norm) as one row-concatenated operator
  (:class:`repro.llm.layers.Attention`): one table build and one kernel
  call serve all of them, here exactly as in the sequential path.
* **Plan caching** — the weights behind every kernel were prepared once
  through the process-wide plan cache (:mod:`repro.core.plan`).

Multi-core execution composes transparently: when the model's backend was
built with ``executor="parallel"`` (:class:`repro.core.executor.
ParallelExecutor`), each batched mpGEMM shards its output columns across
the persistent worker pool — and because batching multiplies the
activation rows per call, the batched decode path crosses the executor's
work threshold at batch sizes where a single-session decode would not.
The lookup table is read-only after precompute, so one table safely
feeds every worker of the kernel consuming it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.backends.base import LinearOperator
from repro.core.kernel import TMACKernel
from repro.llm.layers import KVCache, attend, rms_norm, swiglu
from repro.llm.model import TransformerModel

__all__ = ["BatchStats", "batched_decode_step"]


@dataclass
class BatchStats:
    """Counters accumulated across batched decode steps.

    All O(1) running aggregates — a long-running engine records millions of
    steps, so per-step history is deliberately not kept.
    """

    decode_steps: int = 0  #: batched forward passes executed
    batched_tokens: int = 0  #: sum of batch sizes over all steps
    max_batch_size: int = 0  #: largest batch coalesced into one step
    lut_precomputes: int = 0  #: lookup tables built (one per T-MAC call)
    lut_reuses: int = 0  #: projections beyond the first served by one table

    def record_step(self, batch_size: int) -> None:
        self.decode_steps += 1
        self.batched_tokens += batch_size
        self.max_batch_size = max(self.max_batch_size, batch_size)

    @property
    def mean_batch_size(self) -> float:
        """Average number of sessions coalesced per decode step."""
        if self.decode_steps == 0:
            return 0.0
        return self.batched_tokens / self.decode_steps


def _linear(op: LinearOperator, x: np.ndarray,
            stats: Optional[BatchStats], parts: int = 1) -> np.ndarray:
    """Apply ``op``, building a T-MAC operator's lookup table here.

    The step builds each table where it counts it: one per T-MAC call; for
    an operator fusing ``parts`` projections of the same input that table
    serves ``parts - 1`` of them beyond the first.  ``precompute`` +
    ``matmul_with_table`` is exactly what ``kernel.matmul`` does.
    """
    kernel = op.kernel
    if not isinstance(kernel, TMACKernel):
        return op(x)
    table = kernel.precompute(x)
    if stats is not None:
        stats.lut_precomputes += 1
        stats.lut_reuses += parts - 1
    return kernel.matmul_with_table(x, table)


def _batched_attention(
    block, q: np.ndarray, k: np.ndarray, v: np.ndarray,
    positions: np.ndarray, caches: Sequence[KVCache],
) -> np.ndarray:
    """Per-session attention over each session's own KV history.

    ``q``/``k``/``v`` are ``[B, heads, head_dim]`` — one decode token per
    session.  Each session runs the same shared
    :func:`repro.llm.layers.attend` core the sequential path uses, so
    batched and sequential execution produce bit-identical contexts.
    """
    arch = block.arch
    contexts = []
    for i, cache in enumerate(caches):
        cache.append(k[i:i + 1], v[i:i + 1])
        k_all, v_all = cache.stacked()
        contexts.append(
            attend(q[i:i + 1], k_all, v_all, positions[i:i + 1], arch)
        )
    return np.concatenate(contexts, axis=0)


def _batched_block_forward(
    block, x: np.ndarray, positions: np.ndarray,
    caches: Sequence[KVCache], stats: Optional[BatchStats],
) -> np.ndarray:
    """One transformer block over a ``[B, hidden]`` batch of decode tokens."""
    attention = block.attention
    mlp = block.mlp

    h = rms_norm(x, block.input_norm_weight)
    q, k, v = attention.split_qkv(
        _linear(attention.qkv_proj, h, stats, parts=3), positions)
    context = _batched_attention(block, q, k, v, positions, caches)
    x = x + _linear(attention.o_proj, context, stats)

    h = rms_norm(x, block.post_attn_norm_weight)
    gate_up = _linear(mlp.gate_up_proj, h, stats, parts=2)
    return x + _linear(mlp.down_proj, swiglu(gate_up), stats)


def batched_decode_step(
    model: TransformerModel,
    tokens: Sequence[int],
    positions: Sequence[int],
    caches: Sequence[List[KVCache]],
    stats: Optional[BatchStats] = None,
) -> np.ndarray:
    """One decode step for ``B`` sessions: ``[B]`` tokens -> ``[B, vocab]``.

    Parameters
    ----------
    model:
        The shared transformer (weights and kernels are request-agnostic).
    tokens / positions:
        The current token and absolute position of each session.
    caches:
        Per-session per-layer KV caches; each session's caches are appended
        to in place, exactly as a sequential forward would.
    """
    token_arr = np.asarray(tokens, dtype=np.int64)
    position_arr = np.asarray(positions, dtype=np.int64)
    if token_arr.ndim != 1 or token_arr.size == 0:
        raise ValueError("tokens must be a non-empty 1-D sequence")
    if token_arr.shape != position_arr.shape:
        raise ValueError("tokens and positions must have matching lengths")
    if len(caches) != token_arr.size:
        raise ValueError("one KV-cache list per session is required")
    if token_arr.max() >= model.arch.vocab_size or token_arr.min() < 0:
        raise ValueError("token id out of range")
    if position_arr.max() >= model.arch.max_seq_len:
        raise ValueError("position exceeds max_seq_len")

    x = model.embedding[token_arr]
    for layer_index, block in enumerate(model.blocks):
        layer_caches = [session_caches[layer_index]
                        for session_caches in caches]
        x = _batched_block_forward(block, x, position_arr, layer_caches, stats)
    x = rms_norm(x, model.final_norm_weight)
    logits = _linear(model.lm_head, x, stats)
    if stats is not None:
        stats.record_step(int(token_arr.size))
    return logits
