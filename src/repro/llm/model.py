"""A runnable decoder-only transformer backed by a selectable mpGEMM backend.

:class:`TransformerModel` is the numerical end-to-end substrate: a Llama-
style model (token embedding, N transformer blocks, final RMSNorm, LM head)
whose every linear layer is executed by the chosen backend (reference /
dequantization / T-MAC).  One forward runs them all: :meth:`~TransformerModel.
forward` is one request's rows, :meth:`~TransformerModel.decode` the current
token of many requests, both through the same row-segment blocks
(:mod:`repro.llm.layers`).  Weights can be supplied or generated; the
generated weights follow the scaled-Gaussian initialization that makes the
activations statistically similar to a trained checkpoint's, which is all
the kernel-error experiments need (the paper's accuracy claims are about
*relative* error between engines on the same weights).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.backends import Backend, LinearOperator, ReferenceBackend
from repro.llm.architecture import TransformerArch
from repro.llm.layers import KVCache, TransformerBlock, rms_norm

__all__ = ["TransformerModel", "generate_random_weights"]


def generate_random_weights(arch: TransformerArch, seed: int = 0) -> Dict:
    """Generate a full set of model weights with sane scales.

    Linear weights use a fan-in-scaled Gaussian; norm weights start at 1.
    The same dictionary layout is accepted by :class:`TransformerModel`, so
    tests and examples can also hand-craft weights.
    """
    rng = np.random.default_rng(seed)
    h = arch.hidden_size

    def linear(out_features: int, in_features: int) -> np.ndarray:
        scale = 1.0 / np.sqrt(in_features)
        return rng.standard_normal((out_features, in_features)).astype(
            np.float32) * scale

    weights: Dict = {
        "embedding": rng.standard_normal((arch.vocab_size, h)).astype(
            np.float32) * 0.02,
        "final_norm": np.ones(h, dtype=np.float32),
        "lm_head": linear(arch.vocab_size, h),
        "layers": [],
    }
    for _ in range(arch.num_layers):
        weights["layers"].append({
            "input_norm": np.ones(h, dtype=np.float32),
            "post_attn_norm": np.ones(h, dtype=np.float32),
            "attention": {
                "q_proj": linear(h, h),
                "k_proj": linear(arch.kv_dim, h),
                "v_proj": linear(arch.kv_dim, h),
                "o_proj": linear(h, h),
            },
            "mlp": {
                "gate_proj": linear(arch.intermediate_size, h),
                "up_proj": linear(arch.intermediate_size, h),
                "down_proj": linear(h, arch.intermediate_size),
            },
        })
    return weights


class TransformerModel:
    """Numerically runnable Llama-style transformer.

    Parameters
    ----------
    arch:
        The architecture (use :func:`repro.llm.architecture.tiny_arch` for
        experiments that actually execute; the 7B/13B architectures are
        intended for the analytic throughput path).
    engine:
        The mpGEMM engine used for every linear layer; defaults to the
        full-precision reference.
    weights:
        Optional weight dictionary (see :func:`generate_random_weights` for
        the layout).  Generated from ``seed`` when omitted.
    """

    def __init__(
        self,
        arch: TransformerArch,
        engine: Optional[Backend] = None,
        weights: Optional[Dict] = None,
        seed: int = 0,
    ):
        self.arch = arch
        self.engine = engine or ReferenceBackend()
        self.weights = weights or generate_random_weights(arch, seed=seed)

        self.embedding = np.asarray(self.weights["embedding"], dtype=np.float32)
        if self.embedding.shape != (arch.vocab_size, arch.hidden_size):
            raise ValueError(
                f"embedding shape {self.embedding.shape} does not match "
                f"({arch.vocab_size}, {arch.hidden_size})"
            )
        self.final_norm_weight = np.asarray(self.weights["final_norm"],
                                            dtype=np.float32)
        self.lm_head: LinearOperator = self.engine.make_linear(
            self.weights["lm_head"], "lm_head")
        self.blocks: List[TransformerBlock] = [
            TransformerBlock(arch, self.engine, layer_weights, layer_index=i)
            for i, layer_weights in enumerate(self.weights["layers"])
        ]

    # ------------------------------------------------------------------ #
    # Forward passes
    # ------------------------------------------------------------------ #

    def new_cache(self) -> List[KVCache]:
        """Fresh per-layer KV caches for incremental decoding."""
        return [KVCache() for _ in self.blocks]

    def forward(
        self,
        tokens: np.ndarray,
        caches: Optional[List[KVCache]] = None,
        start_position: int = 0,
    ) -> np.ndarray:
        """Compute logits for a token sequence.

        Parameters
        ----------
        tokens:
            1-D array of token ids.
        caches:
            Per-layer KV caches (from :meth:`new_cache`) for incremental
            decoding; omit for a stateless full-sequence pass.
        start_position:
            Absolute position of ``tokens[0]`` (non-zero during decode).

        Returns
        -------
        np.ndarray
            Logits of shape ``[len(tokens), vocab_size]``.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        positions = np.arange(start_position, start_position + tokens.size)
        return self._run(tokens, positions, [(0, tokens.size, caches)])

    def decode(
        self,
        tokens: Sequence[int],
        positions: Sequence[int],
        caches: Sequence[List[KVCache]],
    ) -> np.ndarray:
        """One decode step for ``B`` requests: ``[B]`` tokens -> ``[B, vocab]``.

        Row ``i`` is request ``i``'s current token at absolute position
        ``positions[i]``, attending over (and appended to) its own
        per-layer ``caches[i]`` — plain :class:`KVCache` lists or
        :class:`repro.kvcache.paged.PagedKVCache` views alike.  Every
        linear operator runs one ``[B, hidden]`` mpGEMM; attention runs
        per request, so for row-independent kernels (T-MAC) row ``i``'s
        logits equal those of request ``i``'s own one-token
        :meth:`forward`.
        """
        tokens = np.asarray(tokens, dtype=np.int64)
        if len(caches) != tokens.size:
            raise ValueError("one KV-cache list per request is required")
        return self._run(tokens, np.asarray(positions, dtype=np.int64),
                         [(i, i + 1, request_caches)
                          for i, request_caches in enumerate(caches)])

    def _run(self, tokens: np.ndarray, positions: np.ndarray,
             segments) -> np.ndarray:
        """Logits of ``tokens`` over row segments ``(row0, row1, caches)``,
        ``caches`` being a request's per-layer KV caches or ``None``."""
        if tokens.ndim != 1 or tokens.size == 0:
            raise ValueError(
                f"tokens must be a non-empty 1-D sequence, got shape "
                f"{tokens.shape}")
        if tokens.shape != positions.shape:
            raise ValueError("tokens and positions must have matching lengths")
        if tokens.max() >= self.arch.vocab_size or tokens.min() < 0:
            raise ValueError("token id out of range")
        if positions.max() >= self.arch.max_seq_len:
            raise ValueError(
                f"sequence position {positions.max()} exceeds max_seq_len "
                f"{self.arch.max_seq_len}")

        x = self.embedding[tokens]
        for i, block in enumerate(self.blocks):
            x = block.forward(x, positions, [
                (row0, row1, None if caches is None else caches[i])
                for row0, row1, caches in segments])
        x = rms_norm(x, self.final_norm_weight)
        return self.lm_head(x)

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def linears(self) -> List[LinearOperator]:
        """Every engine-bound linear operator in the model."""
        ops: List[LinearOperator] = []
        for block in self.blocks:
            ops.extend(block.linears())
        ops.append(self.lm_head)
        return ops

    def quantized_weight_bytes(self) -> int:
        """Total packed bytes of all engine-bound weights."""
        return int(sum(op.weight_bytes for op in self.linears()))

    def engine_name(self) -> str:
        """Name of the active mpGEMM engine."""
        return self.engine.name
