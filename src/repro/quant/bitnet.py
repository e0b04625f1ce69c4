"""BitNet b1.58 ternary weight quantization.

BitNet b1.58 [Wang et al. 2023] trains LLMs whose weights take only the
values ``{-1, 0, +1}``, scaled per tensor (or per output row).  The paper
deploys BitNet-b1.58-3B with T-MAC by *interpreting ternary weights as 2-bit
codes and decomposing them into two 1-bit matrices* (Section 5.1, "Ternary
weights in 1.58bit BitNet are interpreted as 2-bit").

This module provides that interpretation: ternary weights are quantized with
the absmean rule from the BitNet paper and emitted as a standard
:class:`~repro.quant.uniform.QuantizedWeight` with ``bits=2`` so that every
kernel in the repository (T-MAC, dequantization baseline, reference) can
consume them unchanged.
"""

from __future__ import annotations

import numpy as np

from repro.quant.uniform import QuantizedWeight, check_finite

__all__ = ["ternary_codes", "quantize_bitnet"]


def ternary_codes(weights: np.ndarray, eps: float = 1e-8) -> tuple:
    """Quantize weights to ternary values using the BitNet absmean rule.

    Each weight is scaled by the mean absolute value of its row and rounded
    to the nearest value in ``{-1, 0, +1}``.

    Returns
    -------
    (ternary, row_scales):
        ``ternary`` is an ``int8`` array of the same shape with values in
        ``{-1, 0, 1}``; ``row_scales`` is a ``float32`` vector of length M
        such that ``weights ~= row_scales[:, None] * ternary``.
    """
    w = np.asarray(weights, dtype=np.float32)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D [M, K], got shape {w.shape}")
    row_scales = np.abs(w).mean(axis=1)
    row_scales = np.maximum(row_scales, eps).astype(np.float32)
    ternary = np.rint(w / row_scales[:, None])
    ternary = np.clip(ternary, -1, 1).astype(np.int8)
    return ternary, row_scales


def quantize_bitnet(weights: np.ndarray, group_size: int = 128) -> QuantizedWeight:
    """Quantize a weight matrix as BitNet-style ternary, packaged as 2-bit codes.

    The ternary value ``t in {-1, 0, +1}`` is stored as the unsigned code
    ``t + 1 in {0, 1, 2}`` with a per-group scale equal to the row's absmean
    scale and a zero point of 1, so the generic reconstruction
    ``scale * (code - zero)`` recovers ``scale * t`` exactly.

    Parameters
    ----------
    weights:
        Real-valued ``[M, K]`` weight matrix (e.g. from a trained BitNet
        checkpoint or a synthetic stand-in).
    group_size:
        Group size used only to shape the scale/zero arrays; every group in
        a row shares the same (row-level) scale, matching BitNet's
        per-tensor/per-row scaling.

    Raises ``ValueError`` naming the first ``[row, col]`` that is NaN or
    infinite (it would corrupt its whole row's scale).
    """
    w = np.asarray(weights, dtype=np.float32)
    if w.ndim != 2:
        raise ValueError(f"weights must be 2-D [M, K], got shape {w.shape}")
    m, k = w.shape
    if k % group_size != 0:
        raise ValueError(f"K={k} must be a multiple of group_size={group_size}")
    check_finite(w)

    ternary, row_scales = ternary_codes(w)
    codes = (ternary.astype(np.int16) + 1).astype(np.uint8)

    num_groups = k // group_size
    scales = np.repeat(row_scales[:, None], num_groups, axis=1).astype(np.float32)
    zeros = np.ones((m, num_groups), dtype=np.float32)

    qw = QuantizedWeight(
        codes=codes,
        scales=scales,
        zeros=zeros,
        bits=2,
        group_size=group_size,
        symmetric=True,
        metadata={"format": "bitnet-b1.58", "ternary": True},
    )
    qw.validate()
    qw.freeze()
    return qw
