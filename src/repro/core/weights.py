"""Offline weight preprocessing for the T-MAC kernel.

Algorithm 1's ``PreprocessWeights`` runs once, offline (weights never change
during inference) and produces, per weight bit:

1. **Bit-plane extraction** — the n-bit codes are split into n one-bit
   matrices (:mod:`repro.core.bitserial`).
2. **Grouping** — every ``g`` consecutive one-bit weights along K become a
   single ``g``-bit *index* into the lookup table.

The plan keeps these ``[M, K/g]`` index planes.  Each compiled kernel
derives the one packed layout it reads from them
(:mod:`repro.core.specialize`): the numpy path reduce-major table
addresses, the native path :func:`nibble_blocks` — two 4-bit indices per
byte (Figure 3's ``uint4``), contiguous 32-row blocks per index column
(Section 3.2, "Weight permutation for sequential memory access") with the
nibbles interleaved so one AND and one shift yield the block's indices in
row order (Figure 4, "Weight interleaving for fast unpacking").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.bitserial import decompose_bits
from repro.core.config import TMACConfig
from repro.core.tiling import TileConfig
from repro.quant.uniform import QuantizedWeight

__all__ = [
    "resolve_tile_config",
    "group_bits",
    "ungroup_bits",
    "pack_indices",
    "unpack_indices",
    "nibble_blocks",
    "PreprocessedWeights",
    "preprocess_weights",
]


def resolve_tile_config(
    config: TMACConfig, tile_config: Optional[TileConfig] = None
) -> TileConfig:
    """The tile configuration preprocessing actually uses.

    Single source of the fallback default so the plan cache's layout key and
    the preprocessing pipeline can never disagree about what a ``None`` tile
    means.
    """
    return tile_config or config.tile_config or TileConfig(m_tm=32, k_tk=32)


def group_bits(bit_plane: np.ndarray, g: int) -> np.ndarray:
    """Collapse every ``g`` one-bit weights along K into a ``g``-bit index.

    ``index[m, j] = sum_t bit_plane[m, j*g + t] << t`` — bit ``t`` of the
    index corresponds to the ``t``-th element of the group, matching the
    table layout produced by :func:`repro.core.lut.build_lut`.

    Parameters
    ----------
    bit_plane:
        ``[M, K]`` array of 0/1 values.
    g:
        Group size; must divide K.
    """
    plane = np.asarray(bit_plane)
    if plane.ndim != 2:
        raise ValueError(f"bit_plane must be 2-D [M, K], got shape {plane.shape}")
    k = plane.shape[1]
    if k % g != 0:
        raise ValueError(f"K={k} must be a multiple of g={g}")
    # Shift-or the g strided slices in the output dtype; a multiply-and-sum
    # over a length-g inner axis is ~10x slower (it dominated plan builds).
    plane = plane.astype(np.uint8 if g <= 8 else np.uint16, copy=False)
    indices = plane[:, 0::g].copy()
    for t in range(1, g):
        indices |= plane[:, t::g] << t
    return indices


def ungroup_bits(indices: np.ndarray, g: int) -> np.ndarray:
    """Inverse of :func:`group_bits`: expand indices back to a bit plane."""
    idx = np.asarray(indices, dtype=np.uint32)
    if idx.ndim != 2:
        raise ValueError(f"indices must be 2-D [M, K/g], got shape {idx.shape}")
    m, groups = idx.shape
    bits = ((idx[:, :, None] >> np.arange(g, dtype=np.uint32)) & 1).astype(np.uint8)
    return bits.reshape(m, groups * g)


def pack_indices(indices: np.ndarray, g: int = 4) -> np.ndarray:
    """Pack pairs of sub-byte indices into single bytes (``uint4[2]`` per byte).

    Only ``g <= 4`` indices are packed two-per-byte; wider indices are stored
    one per byte (they already occupy most of a byte).  Odd trailing indices
    are padded with zero.
    """
    idx = np.asarray(indices, dtype=np.uint8)
    if g > 4:
        return idx.copy()
    flat = idx.reshape(idx.shape[0], -1)
    m, n = flat.shape
    if n % 2 == 1:
        flat = np.concatenate([flat, np.zeros((m, 1), dtype=np.uint8)], axis=1)
        n += 1
    low = flat[:, 0::2]
    high = flat[:, 1::2]
    return (low | (high << 4)).astype(np.uint8)


def unpack_indices(packed: np.ndarray, num_indices: int, g: int = 4) -> np.ndarray:
    """Inverse of :func:`pack_indices`."""
    arr = np.asarray(packed, dtype=np.uint8)
    if g > 4:
        return arr[:, :num_indices].copy()
    low = arr & 0x0F
    high = (arr >> 4) & 0x0F
    m = arr.shape[0]
    interlaced = np.empty((m, arr.shape[1] * 2), dtype=np.uint8)
    interlaced[:, 0::2] = low
    interlaced[:, 1::2] = high
    return interlaced[:, :num_indices]


def nibble_blocks(index_planes: List[np.ndarray]) -> np.ndarray:
    """The native kernel's packed layout of ``g = 4`` index planes.

    Returns frozen ``uint8 [bits, K/g, ceil(M/32) * 16]``: per bit and
    index column ``j``, the ``M`` indices (zero-padded to whole 32-row
    blocks) two per byte, byte ``i`` of a block holding row ``i`` in its
    low nibble and row ``16 + i`` in its high one — Figure 4's interleave,
    so an AND and a shift unpack a block's 32 indices in row order.
    """
    bits = len(index_planes)
    m, groups = index_planes[0].shape
    blocks = -(-m // 32)
    padded = np.zeros((bits, groups, blocks * 32), dtype=np.uint8)
    for bit, plane in enumerate(index_planes):
        padded[bit, :, :m] = plane.T
    pairs = padded.reshape(bits * groups, blocks, 2, 16).swapaxes(2, 3)
    nibbles = pack_indices(pairs.reshape(bits * groups, -1)).reshape(
        bits, groups, blocks * 16)
    nibbles.setflags(write=False)
    return nibbles


@dataclass
class PreprocessedWeights:
    """Offline-prepared weight operand of the T-MAC kernel.

    Attributes
    ----------
    index_planes:
        One ``[M, K/g]`` index matrix per weight bit (LSB first), in the
        natural (un-permuted) layout.  The kernels derive the layout they
        read from these once, at kernel compile: the numpy path its
        reduce-major planes, the native path :func:`nibble_blocks`.
    scales / zeros:
        Per-quantization-group dequantization parameters, copied from the
        :class:`~repro.quant.uniform.QuantizedWeight`.
    """

    index_planes: List[np.ndarray]
    scales: np.ndarray
    zeros: np.ndarray
    bits: int
    g: int
    group_size: int
    shape: tuple
    tile_config: Optional[TileConfig] = None
    metadata: dict = field(default_factory=dict)

    @property
    def out_features(self) -> int:
        """M — the number of output features."""
        return self.shape[0]

    @property
    def in_features(self) -> int:
        """K — the reduction dimension."""
        return self.shape[1]

    def packed_bytes(self) -> int:
        """Bytes of the packed weight operand, all bit planes: two indices
        per byte when ``g <= 4``, one otherwise."""
        indices = self.out_features * (self.in_features // self.g)
        return self.bits * (-(-indices // 2) if self.g <= 4 else indices)


def preprocess_weights(
    qweight: QuantizedWeight,
    config: TMACConfig,
    tile_config: Optional[TileConfig] = None,
) -> PreprocessedWeights:
    """Run the full offline weight-preparation pipeline of Algorithm 1.

    Parameters
    ----------
    qweight:
        The quantized weight matrix (codes + scales).
    config:
        Kernel configuration; ``config.bits`` must match ``qweight.bits``.
    tile_config:
        Layout tile recorded on the weights (sharded executors align
        output spans to its ``m_tm``); defaults to ``config.tile_config``
        or a ``[32, 32]`` tile.
    """
    if qweight.bits != config.bits:
        raise ValueError(
            f"config.bits={config.bits} does not match qweight.bits={qweight.bits}"
        )
    if qweight.group_size % config.g != 0:
        raise ValueError(
            f"quantization group_size={qweight.group_size} must be a multiple "
            f"of the LUT group size g={config.g}"
        )
    tile = resolve_tile_config(config, tile_config)

    planes = decompose_bits(qweight.codes, qweight.bits)
    index_planes = [group_bits(plane, config.g) for plane in planes]

    # Freeze every array before publication: preprocessed weights are
    # shared across executor threads and checksummed into plan keys — a
    # writable buffer would let silent mutation invalidate both.
    scales = qweight.scales.astype(np.float32)
    zeros = qweight.zeros.astype(np.float32)
    for arr in (*index_planes, scales, zeros):
        arr.setflags(write=False)

    return PreprocessedWeights(
        index_planes=index_planes,
        scales=scales,
        zeros=zeros,
        bits=qweight.bits,
        g=config.g,
        group_size=qweight.group_size,
        shape=qweight.shape,
        tile_config=tile,
        metadata=dict(qweight.metadata),
    )
