"""Dynamic int8 activation quantization.

The dequantization baseline (llama.cpp) quantizes activations on the fly to
int8 blocks (the ``Q8_0`` format) so that the weight/activation dot product
can run on int8 SIMD lanes.  T-MAC keeps activations in fp16/int8 as well,
but consumes them through the lookup table rather than a dot product.

Quantization here is *dynamic* (scales derived from the tensor being
quantized, per row and per block) and symmetric, exactly like ``Q8_0``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantizedActivation", "quantize_activation", "dequantize_activation"]

_INT8_MAX = 127.0


@dataclass
class QuantizedActivation:
    """An activation matrix quantized to int8 with per-block scales.

    Attributes
    ----------
    codes:
        ``int8`` array of shape ``[N, K]``.
    scales:
        ``float32`` array of shape ``[N, K // block_size]``.
    block_size:
        Number of consecutive K elements sharing a scale.
    """

    codes: np.ndarray
    scales: np.ndarray
    block_size: int

    @property
    def shape(self) -> tuple:
        """Shape ``(N, K)`` of the underlying activation matrix."""
        return tuple(self.codes.shape)

    def memory_bytes(self) -> int:
        """Storage footprint in bytes (int8 codes + fp16 scales)."""
        return self.codes.size + self.scales.size * 2


def quantize_activation(
    activation: np.ndarray, block_size: int = 32
) -> QuantizedActivation:
    """Quantize activations to int8 with a symmetric per-block scale.

    Parameters
    ----------
    activation:
        Real-valued ``[N, K]`` activation matrix.
    block_size:
        Block size along K; llama.cpp's ``Q8_0`` uses 32.
    """
    a = np.asarray(activation, dtype=np.float32)
    if a.ndim != 2:
        raise ValueError(f"activation must be 2-D [N, K], got shape {a.shape}")
    n, k = a.shape
    if k % block_size != 0:
        raise ValueError(f"K={k} must be a multiple of block_size={block_size}")

    num_blocks = k // block_size
    blocked = a.reshape(n, num_blocks, block_size)
    scales = np.abs(blocked).max(axis=2) / _INT8_MAX
    # Test the quotient, not amax: below about 9e-44 it underflows to 0.
    scales = np.where(scales > 0, scales, 1.0).astype(np.float32)
    codes = np.rint(blocked / scales[:, :, None])
    codes = np.clip(codes, -127, 127).astype(np.int8)
    return QuantizedActivation(
        codes=codes.reshape(n, k), scales=scales, block_size=block_size
    )


def dequantize_activation(qa: QuantizedActivation) -> np.ndarray:
    """Reconstruct the real-valued activation matrix."""
    n, k = qa.codes.shape
    num_blocks = k // qa.block_size
    codes = qa.codes.reshape(n, num_blocks, qa.block_size).astype(np.float32)
    a = codes * qa.scales[:, :, None]
    return a.reshape(n, k)
