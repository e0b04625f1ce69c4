"""Transformer layers (numpy) with pluggable mpGEMM engines.

The layer zoo matches the Llama architecture the paper deploys: RMSNorm,
rotary position embeddings, multi-head (or grouped-query) attention with a
KV cache, and a SwiGLU MLP.  Every weight-bearing projection goes through a
:class:`~repro.backends.LinearOperator` created by the active backend, so
the same model can run un-quantized, through the dequantization baseline, or
through T-MAC — which is how the model-quality comparison of Table 4 is
produced.

A block runs over **row segments**: the ``[T, hidden]`` activation holds
the rows of one or more requests, each a :data:`Segment` ``(row0, row1,
cache)`` with its own KV cache and per-row absolute positions.  The
linear operators and the row-wise non-linear work run once over all ``T``
rows — one mpGEMM per operator, whatever the number of requests — and
only attention runs per segment, against that segment's cache.  A
prefill is one segment of many rows; a batched decode step is ``B``
segments of one row each (:meth:`repro.llm.model.TransformerModel.decode`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.backends import Backend, LinearOperator
from repro.llm.architecture import TransformerArch

__all__ = [
    "rms_norm",
    "softmax",
    "silu",
    "swiglu",
    "build_rope_cache",
    "apply_rope",
    "KVCache",
    "Segment",
    "attend",
    "Attention",
    "MLP",
    "TransformerBlock",
]


def rms_norm(x: np.ndarray, weight: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Root-mean-square layer normalization (no mean subtraction)."""
    x = np.asarray(x, dtype=np.float32)
    variance = np.mean(x * x, axis=-1, keepdims=True)
    return x / np.sqrt(variance + eps) * weight


def softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax."""
    x = np.asarray(x, dtype=np.float32)
    shifted = x - x.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=axis, keepdims=True)


def silu(x: np.ndarray) -> np.ndarray:
    """SiLU / swish activation used by the SwiGLU MLP."""
    x = np.asarray(x, dtype=np.float32)
    return x / (1.0 + np.exp(-x))


def swiglu(gate_up: np.ndarray) -> np.ndarray:
    """``silu(gate) * up`` of a fused ``[seq, 2 * inter]`` gate|up projection."""
    inter = gate_up.shape[1] // 2
    return silu(gate_up[:, :inter]) * gate_up[:, inter:]


def build_rope_cache(max_seq_len: int, head_dim: int, base: float = 10000.0):
    """Precompute rotary-embedding cos/sin tables of shape [seq, head_dim/2]."""
    if head_dim % 2 != 0:
        raise ValueError(f"head_dim must be even for RoPE, got {head_dim}")
    positions = np.arange(max_seq_len, dtype=np.float32)
    freqs = 1.0 / (base ** (np.arange(0, head_dim, 2, dtype=np.float32) / head_dim))
    angles = np.outer(positions, freqs)
    return np.cos(angles), np.sin(angles)


def apply_rope(x: np.ndarray, cos: np.ndarray, sin: np.ndarray,
               positions: np.ndarray) -> np.ndarray:
    """Apply rotary position embeddings.

    ``x`` has shape ``[seq, heads, head_dim]``; ``positions`` gives the
    absolute position of each sequence element.
    """
    seq, heads, head_dim = x.shape
    half = head_dim // 2
    x1 = x[..., :half]
    x2 = x[..., half:]
    c = cos[positions][:, None, :]
    s = sin[positions][:, None, :]
    rotated_first = x1 * c - x2 * s
    rotated_second = x2 * c + x1 * s
    return np.concatenate([rotated_first, rotated_second], axis=-1)


@dataclass
class KVCache:
    """Per-layer key/value cache for incremental decoding.

    The cache contract consumed by :meth:`Attention.forward` is duck-typed:
    ``append(k, v)`` stores new ``[seq, kv_heads, head_dim]`` rows,
    ``stacked()`` returns the full history as two contiguous
    ``[total, kv_heads, head_dim]`` arrays, and
    ``length`` / ``memory_bytes()`` report fill state.  This class is the
    simple append-only implementation;
    :class:`repro.kvcache.paged.PagedKVCache` implements the same contract
    over a shared, byte-budgeted page pool with prefix sharing.
    """

    keys: List[np.ndarray] = field(default_factory=list)
    values: List[np.ndarray] = field(default_factory=list)

    def append(self, k: np.ndarray, v: np.ndarray) -> None:
        """Append keys/values of shape ``[seq, kv_heads, head_dim]``."""
        self.keys.append(np.asarray(k, dtype=np.float32))
        self.values.append(np.asarray(v, dtype=np.float32))

    def stacked(self):
        """All cached keys and values as two arrays ``[total_seq, heads, dim]``."""
        if not self.keys:
            raise ValueError("KV cache is empty")
        return np.concatenate(self.keys, axis=0), np.concatenate(self.values, axis=0)

    @property
    def length(self) -> int:
        """Number of cached positions."""
        return int(sum(k.shape[0] for k in self.keys))

    def memory_bytes(self) -> int:
        """fp32 bytes currently held by the cache."""
        return int(sum(k.nbytes + v.nbytes
                       for k, v in zip(self.keys, self.values)))


#: One request's rows ``row0:row1`` of a ``[T, hidden]`` activation and the
#: KV cache its attention appends to and reads (``None``: the segment
#: attends over its own keys only, a stateless pass).
Segment = Tuple[int, int, Optional[KVCache]]


def attend(q: np.ndarray, k_all: np.ndarray, v_all: np.ndarray,
           positions: np.ndarray, arch: TransformerArch) -> np.ndarray:
    """Causal attention of queries over a cached key/value window.

    ``q`` is ``[seq, heads, head_dim]``; ``k_all``/``v_all`` are the full
    ``[total, kv_heads, head_dim]`` history the queries may attend to;
    ``positions`` gives each query's absolute position (cached positions
    ``0..p`` are visible to a query at position ``p``).  Returns the
    context as a C-ordered ``[seq, heads * head_dim]`` array.

    :meth:`Attention.forward` calls it once per segment.  Both products
    are BLAS calls whose blocking depends on the query count (one query
    is a GEMV, several a GEMM), so the same query attended alone or among
    others can differ in final ulps: a decode step's one-row segments run
    exactly the GEMVs a one-token forward runs.
    """
    group = arch.num_heads // arch.num_kv_heads
    if group > 1:
        k_all = np.repeat(k_all, group, axis=1)
        v_all = np.repeat(v_all, group, axis=1)

    total = k_all.shape[0]
    scale = 1.0 / np.sqrt(arch.head_dim)
    # scores[h, i, j] = q[i, h, :] . k[j, h, :]: one batched matmul over
    # heads on transposed views (the product einsum's optimized path
    # runs, without its per-call path planning).
    scores = np.matmul(q.transpose(1, 0, 2), k_all.transpose(1, 2, 0)) * scale

    # Causal mask: query at absolute position p attends to cached
    # positions 0..p.
    key_positions = np.arange(total)
    mask = key_positions[None, :] > positions[:, None]
    scores = np.where(mask[None, :, :], -1e30, scores)

    probs = softmax(scores, axis=-1)
    context = np.matmul(probs, v_all.transpose(1, 0, 2)).transpose(1, 0, 2)
    return context.reshape(q.shape[0], arch.num_heads * arch.head_dim)


class Attention:
    """Multi-head / grouped-query attention with RoPE and a KV cache."""

    def __init__(self, arch: TransformerArch, engine: Backend,
                 weights: dict, layer_index: int = 0):
        self.arch = arch
        self.layer_index = layer_index
        prefix = f"layers.{layer_index}.attn"
        # q, k and v consume the same activation, and the lookup table is a
        # function of the activation only: one operator over the
        # row-concatenated weights builds it once.  Quantization and the
        # kernel are row-independent, so its output columns are exactly
        # those of three separately bound operators.
        self.qkv_proj: LinearOperator = engine.make_linear(
            np.concatenate([weights["q_proj"], weights["k_proj"],
                            weights["v_proj"]], axis=0),
            f"{prefix}.qkv_proj")
        self.o_proj: LinearOperator = engine.make_linear(
            weights["o_proj"], f"{prefix}.o_proj")
        self._cos, self._sin = build_rope_cache(arch.max_seq_len, arch.head_dim)

    def split_qkv(self, qkv: np.ndarray, positions: np.ndarray):
        """Rotated queries, rotated keys and values of a fused projection.

        ``qkv`` is the ``[seq, hidden + 2 * kv_dim]`` output of
        ``qkv_proj``; the three results are ``[seq, heads, head_dim]``
        (``kv_heads`` for keys and values).
        """
        arch = self.arch
        seq = qkv.shape[0]
        k_end = arch.hidden_size + arch.kv_dim
        q = qkv[:, :arch.hidden_size].reshape(
            seq, arch.num_heads, arch.head_dim)
        k = qkv[:, arch.hidden_size:k_end].reshape(
            seq, arch.num_kv_heads, arch.head_dim)
        # Values enter the KV cache as they are: copied, so a cached entry
        # does not keep the whole fused result alive.
        v = qkv[:, k_end:].reshape(
            seq, arch.num_kv_heads, arch.head_dim).copy()
        return (apply_rope(q, self._cos, self._sin, positions),
                apply_rope(k, self._cos, self._sin, positions), v)

    def forward(self, x: np.ndarray, positions: np.ndarray,
                segments: Sequence[Segment]) -> np.ndarray:
        """Attention over ``x`` of shape ``[T, hidden]``.

        The projections run once over all rows; each segment's keys and
        values are appended to its cache (when it has one) and its
        queries attend over that cache's whole history (incremental
        decoding).  The contexts are concatenated in row order.
        """
        q, k, v = self.split_qkv(self.qkv_proj(x), positions)
        contexts = []
        for row0, row1, cache in segments:
            k_all, v_all = k[row0:row1], v[row0:row1]
            if cache is not None:
                cache.append(k_all, v_all)
                k_all, v_all = cache.stacked()
            contexts.append(attend(q[row0:row1], k_all, v_all,
                                   positions[row0:row1], self.arch))
        return self.o_proj(np.concatenate(contexts, axis=0))


class MLP:
    """SwiGLU feed-forward block: ``down(silu(gate(x)) * up(x))``.

    ``gate`` and ``up`` are one fused operator (see :class:`Attention`).
    """

    def __init__(self, arch: TransformerArch, engine: Backend,
                 weights: dict, layer_index: int = 0):
        prefix = f"layers.{layer_index}.mlp"
        self.gate_up_proj: LinearOperator = engine.make_linear(
            np.concatenate([weights["gate_proj"], weights["up_proj"]],
                           axis=0),
            f"{prefix}.gate_up_proj")
        self.down_proj: LinearOperator = engine.make_linear(
            weights["down_proj"], f"{prefix}.down_proj")

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Apply the SwiGLU MLP to ``[seq, hidden]`` activations."""
        return self.down_proj(swiglu(self.gate_up_proj(x)))


class TransformerBlock:
    """One decoder block: RMSNorm -> attention -> RMSNorm -> MLP, residual."""

    #: How many projections each operator of :meth:`linears` fuses (q|k|v,
    #: o, gate|up, down): one lookup table serves all of an operator's.
    PROJECTIONS = (3, 1, 2, 1)

    def __init__(self, arch: TransformerArch, engine: Backend,
                 weights: dict, layer_index: int = 0):
        self.arch = arch
        self.layer_index = layer_index
        self.input_norm_weight = np.asarray(weights["input_norm"],
                                            dtype=np.float32)
        self.post_attn_norm_weight = np.asarray(weights["post_attn_norm"],
                                                dtype=np.float32)
        self.attention = Attention(arch, engine, weights["attention"],
                                   layer_index)
        self.mlp = MLP(arch, engine, weights["mlp"], layer_index)

    def forward(self, x: np.ndarray, positions: np.ndarray,
                segments: Sequence[Segment]) -> np.ndarray:
        """Run the block over the ``[T, hidden]`` rows of ``segments``."""
        attn_out = self.attention.forward(
            rms_norm(x, self.input_norm_weight), positions, segments
        )
        x = x + attn_out
        mlp_out = self.mlp.forward(rms_norm(x, self.post_attn_norm_weight))
        return x + mlp_out

    def linears(self) -> List[LinearOperator]:
        """The linear operators this block calls, in call order."""
        return [
            self.attention.qkv_proj,
            self.attention.o_proj,
            self.mlp.gate_up_proj,
            self.mlp.down_proj,
        ]
