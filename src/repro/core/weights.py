"""Offline weight preprocessing for the T-MAC kernel.

Algorithm 1's ``PreprocessWeights`` runs once, offline (weights never change
during inference) and produces, per weight bit:

1. **Bit-plane extraction** — the n-bit codes are split into n one-bit
   matrices (:mod:`repro.core.bitserial`).
2. **Grouping** — every ``g`` consecutive one-bit weights along K become a
   single ``g``-bit *index* into the lookup table.
3. **Packing** — two 4-bit indices are packed per byte (the ``uint4[32]``
   layout of Figure 3).
4. **Tile permutation** — indices are reordered so that each
   ``[M_tm, K_tk]`` tile is contiguous in memory, turning the tile walk into
   sequential DRAM accesses (Section 3.2, "Weight permutation for sequential
   memory access").
5. **Interleaving** — within the packed bytes, indices are interleaved so a
   little-endian SIMD unpack (AND / SHR+AND) directly yields indices in the
   order the lookup consumes them (Section 3.2, Figure 4, "Weight
   interleaving for fast unpacking").

All five steps are invertible; the unit tests round-trip each of them.  The
permutation and interleaving steps do not change the kernel's numerical
output — they only change the memory-access pattern, which the cost model
rewards.
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
    "interleave_packed",
    "deinterleave_packed",
    "permute_tiles",
    "unpermute_tiles",
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


def interleave_packed(packed: np.ndarray, span: int = 16) -> np.ndarray:
    """Interleave packed index bytes for fast little-endian unpacking.

    Following Figure 4, the nibbles of each ``span``-byte block (holding
    ``2*span`` indices) are reordered so that byte ``i`` of the block holds
    index ``i`` in its low nibble and index ``i + span`` in its high nibble.
    A vector ``AND 0x0F`` then yields the block's first ``span`` indices in
    order, and ``SHR 4`` the next ``span``, without any further shuffling —
    the reordering that un-interleaved little-endian packing would require
    is eliminated.

    The transformation is a pure nibble permutation (lossless); a partial
    block at the tail of each row is left untouched.
    """
    arr = np.asarray(packed, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"packed must be 2-D, got shape {arr.shape}")
    m, nbytes = arr.shape
    out = arr.copy()
    full = (nbytes // span) * span
    if full == 0:
        return out
    body = arr[:, :full].reshape(m, -1, span)
    low_src = body & 0x0F      # indices 0, 2, 4, ... of the block
    high_src = body >> 4       # indices 1, 3, 5, ...
    # Natural index order within the block: [idx0, idx1, ..., idx_{2*span-1}].
    indices = np.empty((m, body.shape[1], 2 * span), dtype=np.uint8)
    indices[:, :, 0::2] = low_src
    indices[:, :, 1::2] = high_src
    interleaved = indices[:, :, :span] | (indices[:, :, span:] << 4)
    out[:, :full] = interleaved.reshape(m, full)
    return out


def deinterleave_packed(interleaved: np.ndarray, span: int = 16) -> np.ndarray:
    """Inverse of :func:`interleave_packed`."""
    arr = np.asarray(interleaved, dtype=np.uint8)
    if arr.ndim != 2:
        raise ValueError(f"interleaved must be 2-D, got shape {arr.shape}")
    m, nbytes = arr.shape
    out = arr.copy()
    full = (nbytes // span) * span
    if full == 0:
        return out
    body = arr[:, :full].reshape(m, -1, span)
    indices = np.concatenate([body & 0x0F, body >> 4], axis=2)
    packed = indices[:, :, 0::2] | (indices[:, :, 1::2] << 4)
    out[:, :full] = packed.reshape(m, full)
    return out


def permute_tiles(matrix: np.ndarray, tile_m: int, tile_k: int) -> np.ndarray:
    """Flatten a matrix tile-by-tile so each tile is contiguous in memory.

    The output is a 1-D array: tiles are visited in row-major tile order and
    each tile's elements are flattened row-major.  Ragged edge tiles (when
    the dimensions are not multiples of the tile sizes) are handled by
    emitting the partial tile's elements.
    """
    mat = np.asarray(matrix)
    if mat.ndim != 2:
        raise ValueError(f"matrix must be 2-D, got shape {mat.shape}")
    m, k = mat.shape
    chunks = []
    for m0 in range(0, m, tile_m):
        for k0 in range(0, k, tile_k):
            chunks.append(mat[m0:m0 + tile_m, k0:k0 + tile_k].reshape(-1))
    return np.concatenate(chunks) if chunks else mat.reshape(-1)


def unpermute_tiles(
    flat: np.ndarray, shape: tuple, tile_m: int, tile_k: int
) -> np.ndarray:
    """Inverse of :func:`permute_tiles`."""
    m, k = shape
    out = np.empty((m, k), dtype=np.asarray(flat).dtype)
    pos = 0
    flat = np.asarray(flat)
    for m0 in range(0, m, tile_m):
        for k0 in range(0, k, tile_k):
            h = min(tile_m, m - m0)
            w = min(tile_k, k - k0)
            out[m0:m0 + h, k0:k0 + w] = flat[pos:pos + h * w].reshape(h, w)
            pos += h * w
    if pos != flat.size:
        raise ValueError(
            f"flat array has {flat.size} elements but the tiling consumes {pos}"
        )
    return out


@dataclass
class PreprocessedWeights:
    """Offline-prepared weight operand of the T-MAC kernel.

    Attributes
    ----------
    index_planes:
        One ``[M, K/g]`` index matrix per weight bit (LSB first), in the
        natural (un-permuted) layout used for numerical computation.
    packed_planes:
        The storage layout actually "shipped" to the kernel: packed,
        optionally tile-permuted and interleaved bytes per bit plane.
    scales / zeros:
        Per-quantization-group dequantization parameters, copied from the
        :class:`~repro.quant.uniform.QuantizedWeight`.
    """

    index_planes: List[np.ndarray]
    packed_planes: List[np.ndarray]
    scales: np.ndarray
    zeros: np.ndarray
    bits: int
    g: int
    group_size: int
    shape: tuple
    tile_config: Optional[TileConfig] = None
    permuted: bool = False
    interleaved: bool = False
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
        """Total bytes of the packed weight operand (all bit planes)."""
        return int(sum(plane.size for plane in self.packed_planes))


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
        Tile sizes used for the permutation step; defaults to
        ``config.tile_config`` or a ``[32, 32]`` tile.
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

    packed_planes = []
    for indices in index_planes:
        layout = indices
        if config.permute_weights:
            # Permute at index granularity: K/g columns, tile_k expressed in
            # index units.
            tile_k_indices = max(1, tile.k_tk // config.g)
            flat = permute_tiles(layout, tile.m_tm, tile_k_indices)
            layout = flat.reshape(1, -1)
        packed = pack_indices(layout, config.g)
        if config.interleave_weights:
            packed = interleave_packed(packed)
        packed_planes.append(packed)

    # Freeze every array before publication: preprocessed weights are
    # shared across executor threads and checksummed into plan keys — a
    # writable buffer would let silent mutation invalidate both.
    scales = qweight.scales.astype(np.float32)
    zeros = qweight.zeros.astype(np.float32)
    for arr in (*index_planes, *packed_planes, scales, zeros):
        arr.setflags(write=False)

    return PreprocessedWeights(
        index_planes=index_planes,
        packed_planes=packed_planes,
        scales=scales,
        zeros=zeros,
        bits=qweight.bits,
        g=config.g,
        group_size=qweight.group_size,
        shape=qweight.shape,
        tile_config=tile,
        permuted=config.permute_weights,
        interleaved=config.interleave_weights,
        metadata=dict(qweight.metadata),
    )
