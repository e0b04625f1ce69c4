"""Per-group uniform weight quantization.

This module implements the weight format consumed by every mpGEMM kernel in
the repository: unsigned integer codes of ``bits`` bits, with a floating
point *scale* and *zero point* per group of ``group_size`` consecutive
elements along the reduction (K) axis.

The format mirrors what GPTQ [Frantar et al. 2022], BitDistiller and OneBit
exports look like after packing, and what llama.cpp's ``Q4_0`` / ``Q2_K``
block formats store: the real-valued weight is reconstructed as::

    w = scale * (code - zero_point)

Symmetric quantization (the default) uses ``zero_point = (2**bits - 1) / 2``
so that codes are centred around zero; asymmetric quantization picks the
zero point per group from the data range.

Symmetric absmax quantization, the default, runs as one AVX2 pass in the
native library (:mod:`repro.core.native`), bit-identical to the numpy
operations below, which run without the library or AVX2 and for the
asymmetric and ``mse`` variants.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "QuantizedWeight",
    "quantize_weights",
    "dequantize_weights",
    "max_code",
    "check_finite",
]


def max_code(bits: int) -> int:
    """Largest representable unsigned code for a ``bits``-bit weight."""
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return (1 << bits) - 1


@dataclass
class QuantizedWeight:
    """A weight matrix quantized to low-bit unsigned codes.

    Attributes
    ----------
    codes:
        ``uint8`` array of shape ``[M, K]`` holding the quantized codes,
        each in ``[0, 2**bits - 1]``.  Codes are stored unpacked (one code
        per byte); the T-MAC offline pipeline re-packs them into packed
        bit-plane indices (:func:`repro.core.weights.pack_codes`).
    scales:
        ``float32`` array of shape ``[M, K // group_size]``.
    zeros:
        ``float32`` array of shape ``[M, K // group_size]`` holding the
        (possibly fractional) zero points.
    bits:
        Bit width of the codes (1..8).
    group_size:
        Number of consecutive K elements sharing a scale/zero pair.
    symmetric:
        Whether the quantization grid was symmetric around zero.
    """

    codes: np.ndarray
    scales: np.ndarray
    zeros: np.ndarray
    bits: int
    group_size: int
    symmetric: bool = True
    metadata: dict = field(default_factory=dict)

    @property
    def out_features(self) -> int:
        """Number of output features (rows of the weight matrix), M."""
        return int(self.codes.shape[0])

    @property
    def in_features(self) -> int:
        """Number of input features (reduction dimension), K."""
        return int(self.codes.shape[1])

    @property
    def shape(self) -> tuple:
        """Shape ``(M, K)`` of the underlying weight matrix."""
        return tuple(self.codes.shape)

    @property
    def num_groups(self) -> int:
        """Number of quantization groups along K."""
        return int(self.scales.shape[1])

    def memory_bytes(self) -> int:
        """Packed storage footprint in bytes (codes at ``bits`` each + fp16 scales)."""
        code_bits = self.codes.size * self.bits
        scale_bytes = self.scales.size * 2
        zero_bytes = 0 if self.symmetric else self.zeros.size * 2
        return code_bits // 8 + scale_bytes + zero_bytes

    def freeze(self) -> "QuantizedWeight":
        """Mark the underlying arrays read-only.

        Weights never change during inference, and the kernel-plan cache
        (:mod:`repro.core.plan`) memoizes preprocessing under that
        assumption — freezing turns an accidental in-place mutation (which
        would silently desynchronize the caches) into an immediate
        ``ValueError: assignment destination is read-only``.
        """
        for array in (self.codes, self.scales, self.zeros):
            array.setflags(write=False)
        return self

    def validate(self) -> None:
        """Raise ``ValueError`` if the internal arrays are inconsistent."""
        m, k = self.codes.shape
        if k % self.group_size != 0:
            raise ValueError(
                f"K={k} is not a multiple of group_size={self.group_size}"
            )
        expected_groups = k // self.group_size
        if self.scales.shape != (m, expected_groups):
            raise ValueError(
                f"scales shape {self.scales.shape} != {(m, expected_groups)}"
            )
        if self.zeros.shape != (m, expected_groups):
            raise ValueError(
                f"zeros shape {self.zeros.shape} != {(m, expected_groups)}"
            )
        if self.codes.max(initial=0) > max_code(self.bits):
            raise ValueError(
                f"codes exceed the {self.bits}-bit range [0, {max_code(self.bits)}]"
            )


def _validate_inputs(weights: np.ndarray, bits: int, group_size: int) -> None:
    if weights.ndim != 2:
        raise ValueError(f"weights must be 2-D [M, K], got shape {weights.shape}")
    if not 1 <= bits <= 8:
        raise ValueError(f"bits must be in [1, 8], got {bits}")
    if group_size < 1:
        raise ValueError(f"group_size must be >= 1, got {group_size}")
    if weights.shape[1] % group_size != 0:
        raise ValueError(
            f"K={weights.shape[1]} must be a multiple of group_size={group_size}"
        )


def check_finite(weights: np.ndarray) -> None:
    """Raise ``ValueError`` naming the first ``[row, col]`` of the 2-D
    ``weights`` that is NaN or infinite: its group's scale would be NaN, 0
    or inf and the whole group would quantize to garbage."""
    finite = np.isfinite(weights)
    if not finite.all():
        row, col = np.unravel_index(np.argmin(finite), finite.shape)
        raise ValueError(f"weights[{row}, {col}] = {weights[row, col]} is "
                         f"not finite")


def _search_mse_scales(
    grouped: np.ndarray, qmax: int, base_scales: np.ndarray,
    zeros: np.ndarray, num_candidates: int = 17,
) -> np.ndarray:
    """Per-group scale search minimizing the round-trip MSE.

    Shrinking the scale below the absmax-derived value clips outliers but
    represents the bulk of the distribution more finely — the trick that
    makes 1- and 2-bit round-to-nearest quantization usable, standing in for
    the smarter quantizers (OneBit, BitDistiller) whose checkpoints the
    paper deploys.
    """
    best_scales = base_scales.copy()
    best_error = np.full(base_scales.shape, np.inf, dtype=np.float64)
    for factor in np.linspace(0.25, 1.0, num_candidates):
        scales = base_scales * factor
        divisor = np.where(scales > 0, scales, 1.0)
        codes = np.clip(np.rint(grouped / divisor[:, :, None]
                                + zeros[:, :, None]), 0, qmax)
        recon = scales[:, :, None] * (codes - zeros[:, :, None])
        error = ((recon - grouped) ** 2).sum(axis=2)
        improved = error < best_error
        best_error = np.where(improved, error, best_error)
        best_scales = np.where(improved, scales, best_scales)
    return best_scales.astype(np.float32)


def quantize_weights(
    weights: np.ndarray,
    bits: int = 4,
    group_size: int = 128,
    symmetric: bool = True,
    method: str = "absmax",
) -> QuantizedWeight:
    """Quantize an fp weight matrix to ``bits``-bit codes with per-group scales.

    Parameters
    ----------
    weights:
        Real-valued weight matrix of shape ``[M, K]``.
    bits:
        Target bit width (1..8).  4, 3, 2 and 1 are the widths evaluated in
        the paper.
    group_size:
        Quantization group size along K.  Must divide K.
    symmetric:
        If ``True`` (default) use a symmetric grid centred at zero with zero
        point ``(2**bits - 1) / 2``; otherwise fit an asymmetric grid to the
        per-group min/max.
    method:
        ``"absmax"`` (default) sizes each group's scale from its maximum
        absolute value (no clipping, error bounded by half a step);
        ``"mse"`` additionally searches a per-group clipping scale that
        minimizes the reconstruction MSE, which is what makes 1- and 2-bit
        round-to-nearest quantization behave like the specialised low-bit
        quantizers used in the paper.

    Returns
    -------
    QuantizedWeight
        Codes, scales and zero points reconstructing ``weights`` via
        ``scale * (code - zero)``.

    Raises
    ------
    ValueError
        If a weight is NaN or infinite (the message names the first
        ``[row, col]``), or on a bad shape, bit width or method.
    """
    _validate_inputs(weights, bits, group_size)
    if method not in ("absmax", "mse"):
        raise ValueError(f"method must be 'absmax' or 'mse', got {method!r}")
    backend = None
    if symmetric and method == "absmax":
        from repro.core import native  # on first use: repro.core imports us

        backend = native.backend()
    if backend is not None:
        codes, scales = backend.quantize(weights, bits, group_size)
        zeros = np.full(scales.shape, max_code(bits) / 2.0, dtype=np.float32)
    else:
        codes, scales, zeros = _quantize_numpy(weights, bits, group_size,
                                               symmetric, method)
    qw = QuantizedWeight(
        codes=codes,
        scales=scales,
        zeros=zeros,
        bits=bits,
        group_size=group_size,
        symmetric=symmetric,
    )
    qw.validate()
    qw.freeze()
    return qw


def _quantize_numpy(weights: np.ndarray, bits: int, group_size: int,
                    symmetric: bool, method: str) -> tuple:
    """``(codes, scales, zeros)`` of :func:`quantize_weights` in numpy: the
    fallback without the native library, the only path for asymmetric
    and ``mse`` quantization, and the reference the native pass matches."""
    w = np.asarray(weights, dtype=np.float32)
    check_finite(w)
    m, k = w.shape
    num_groups = k // group_size
    grouped = w.reshape(m, num_groups, group_size)
    qmax = max_code(bits)

    if symmetric:
        # Symmetric grid: zero point fixed at mid-grid so that the
        # representable range is [-amax, +amax].
        amax = np.abs(grouped).max(axis=2)
        zeros = np.full((m, num_groups), qmax / 2.0, dtype=np.float32)
        scales = np.where(amax > 0, amax / (qmax / 2.0), 0.0).astype(np.float32)
    else:
        gmin = grouped.min(axis=2)
        gmax = grouped.max(axis=2)
        span = gmax - gmin
        scales = np.where(span > 0, span / qmax, 0.0).astype(np.float32)
        zeros = np.where(scales > 0, -gmin / np.where(scales > 0, scales, 1.0),
                         qmax / 2.0).astype(np.float32)

    if method == "mse":
        scales = _search_mse_scales(grouped, qmax, scales, zeros)

    # All-zero (constant) groups get scale 0 so they reconstruct exactly; a
    # unit divisor avoids the division by zero when computing their codes.
    divisor = np.where(scales > 0, scales, 1.0)
    codes = np.rint(grouped / divisor[:, :, None] + zeros[:, :, None])
    codes = np.clip(codes, 0, qmax).astype(np.uint8)
    return codes.reshape(m, k), scales, zeros


def dequantize_weights(qw: QuantizedWeight) -> np.ndarray:
    """Reconstruct the real-valued weight matrix from a :class:`QuantizedWeight`.

    This is the reference the dequantization-based baseline (llama.cpp-style
    kernels) uses, and the ground truth for kernel correctness tests:
    ``w = scale * (code - zero)``, applied per quantization group.
    """
    qw.validate()
    m, k = qw.codes.shape
    num_groups = k // qw.group_size
    codes = qw.codes.reshape(m, num_groups, qw.group_size).astype(np.float32)
    w = qw.scales[:, :, None] * (codes - qw.zeros[:, :, None])
    return w.reshape(m, k)
