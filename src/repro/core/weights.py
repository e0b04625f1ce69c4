"""Offline weight preprocessing for the T-MAC kernel.

Algorithm 1's ``PreprocessWeights`` runs once, offline (weights never change
during inference).  Conceptually it produces, per weight bit:

1. **Bit-plane extraction** — the n-bit codes are split into n one-bit
   matrices (:mod:`repro.core.bitserial`).
2. **Grouping** — every ``g`` consecutive one-bit weights along K become a
   single ``g``-bit *index* into the lookup table.

The plan stores one layout of those indices, :func:`nibble_blocks`: two
4-bit indices per byte (Figure 3's ``uint4``), contiguous 32-row blocks per
index column (Section 3.2, "Weight permutation for sequential memory
access") with the nibbles interleaved so one AND and one shift yield the
block's indices in row order (Figure 4, "Weight interleaving for fast
unpacking").  It is written straight from the codes, never materializing
the ``[M, K]`` bit planes or the ``[M, K/g]`` index planes: for ``g = 4``
by the native library's ``tlut_pack`` (:mod:`repro.core.native`), else,
and without the library or AVX2, by its numpy equivalent
:func:`pack_codes`.  The native kernel reads the layout as it is, and
the loop oracle (which runs wherever the native kernel does not) unpacks
the index-plane slices it needs on demand
(:meth:`PreprocessedWeights.indices`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from repro.core.config import TMACConfig
from repro.core.specialize import native_phase
from repro.core.tiling import TileConfig
from repro.quant.uniform import QuantizedWeight

__all__ = [
    "resolve_tile_config",
    "group_bits",
    "ungroup_bits",
    "pack_indices",
    "unpack_indices",
    "nibble_blocks",
    "pack_codes",
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


def nibble_blocks(index_planes: List[np.ndarray], g: int = 4) -> np.ndarray:
    """The packed block layout of ``[M, K/g]`` index planes.

    Returns frozen ``uint8 [bits, K/g, ceil(M/32) * 16]``: per bit and
    index column ``j``, the ``M`` indices (zero-padded to whole 32-row
    blocks) two per byte, byte ``i`` of a block holding row ``i`` in its
    low nibble and row ``16 + i`` in its high one — Figure 4's interleave,
    so an AND and a shift unpack a block's 32 indices in row order.  For
    ``g > 4`` the same order holds one index per byte (rows ``i`` and
    ``16 + i`` at bytes ``2i`` and ``2i + 1``), ``ceil(M/32) * 32`` wide.

    :func:`pack_codes` builds this layout straight from the codes; this is
    the step-by-step construction it is tested against.
    """
    bits = len(index_planes)
    m, groups = index_planes[0].shape
    blocks = -(-m // 32)
    padded = np.zeros((bits, groups, blocks * 32), dtype=np.uint8)
    for bit, plane in enumerate(index_planes):
        padded[bit, :, :m] = plane.T
    pairs = padded.reshape(bits * groups, blocks, 2, 16).swapaxes(2, 3)
    nibbles = pack_indices(pairs.reshape(bits * groups, -1), g).reshape(
        bits, groups, -1)
    nibbles.setflags(write=False)
    return nibbles


def pack_codes(codes: np.ndarray, bits: int, g: int) -> np.ndarray:
    """Pack ``[M, K]`` quantized codes into the :func:`nibble_blocks`
    layout of their ``g``-bit index planes, without building the planes.

    Returns frozen ``uint8 [bits, K/g, W]`` equal to
    ``nibble_blocks([group_bits(p, g) for p in decompose_bits(codes, bits)], g)``.
    The codes are laid out once in the packed order (rows ``i`` and
    ``16 + i`` of a block side by side, K outermost); every bit's indices
    are then a shift-and-mask per group element, OR-ed at their index bit.
    While ``bits <= 4`` and ``g <= 4`` the two rows share one byte as two
    nibbles, so the mask ``0x11`` takes bit ``b`` of both codes at once and
    the result is already the packed byte.
    """
    m, k = codes.shape
    groups = k // g
    blocks = -(-m // 32)
    padded = np.zeros((blocks * 32, k), dtype=np.uint8)
    padded[:m] = codes
    rows = padded.reshape(blocks, 2, 16, k)
    if bits <= 4 and g <= 4:
        lanes, mask = rows[:, 0] | (rows[:, 1] << 4), 0x11
    else:
        lanes, mask = rows.transpose(0, 2, 1, 3), 0x01
    # [K/g, g, W]: the t-th element of every index group as one contiguous run.
    lanes = np.ascontiguousarray(lanes.reshape(-1, k).T).reshape(groups, g, -1)
    out = np.empty((bits, groups, lanes.shape[2]), dtype=np.uint8)
    term = np.empty_like(out[0])
    for bit in range(bits):
        plane = out[bit]
        np.right_shift(lanes[:, 0], bit, out=plane)
        plane &= mask
        for t in range(1, g):
            np.right_shift(lanes[:, t], bit, out=term)
            term &= mask
            term <<= t
            plane |= term
    if mask == 0x01 and g <= 4:  # codes wider than a nibble: pair up now
        out = out[:, :, 0::2] | (out[:, :, 1::2] << 4)
    out.setflags(write=False)
    return out


@dataclass
class PreprocessedWeights:
    """Offline-prepared weight operand of the T-MAC kernel.

    The plan's one resident copy of the weights.  The native kernel and
    every recombination read these arrays as they are; index planes are
    unpacked from :attr:`packed` on demand and never cached here.

    Attributes
    ----------
    packed:
        The :func:`nibble_blocks` layout of all bit planes, built by
        :func:`pack_codes` — the native kernel's operand.  The loop
        oracle unpacks the ``[M, K/g]`` index planes it needs on demand
        (:meth:`indices`).
    scales_t / sz_t:
        ``float32 [QG, M]``: the per-quantization-group scales and the
        ``scales * zeros`` products, in the orientation the recombination
        reads (a row per quantization group).
    """

    packed: np.ndarray
    scales_t: np.ndarray
    sz_t: np.ndarray
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

    def indices(self, bit: int, j0: int = 0,
                j1: Optional[int] = None) -> np.ndarray:
        """Index columns ``[j0, j1)`` of bit plane ``bit``: a fresh
        ``uint8 [M, j1-j0]`` unpacked from :attr:`packed` (all columns by
        default)."""
        block = self.packed[bit, j0:j1]
        lanes = block
        if self.g <= 4:
            lanes = np.stack((block & 0x0F, block >> 4), axis=-1)
        columns = block.shape[0]
        rows = lanes.reshape(columns, -1, 16, 2).transpose(0, 1, 3, 2)
        return rows.reshape(columns, -1)[:, :self.out_features].T

    def packed_bytes(self) -> int:
        """Bytes of the stored weight operand, all bit planes (32-row
        block padding included)."""
        return self.packed.nbytes


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

    The codes are packed by the native ``tlut_pack`` wherever a kernel
    would run the native lookup (:func:`~repro.core.specialize.native_phase`:
    the library loads and ``config.g == 4``), else by :func:`pack_codes`;
    both write the same bytes.
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

    backend = native_phase(config.g)  # the lookup's rule: the library, g = 4
    if backend is not None:
        packed = backend.pack(qweight.codes, qweight.bits)
    else:
        packed = pack_codes(qweight.codes, qweight.bits, config.g)
    # The recombination's scale*zero product, once (float32 in, float32
    # out — the oracle's exact per-call product).
    scales = np.asarray(qweight.scales, dtype=np.float32)
    zeros = np.asarray(qweight.zeros, dtype=np.float32)
    sz_t = np.ascontiguousarray(np.multiply(scales, zeros).T)
    scales_t = np.ascontiguousarray(scales.T)
    # Freeze every array before publication: preprocessed weights are
    # shared across executor threads and checksummed by the plan canary —
    # a writable buffer would let silent mutation corrupt every call.
    scales_t.setflags(write=False)
    sz_t.setflags(write=False)

    return PreprocessedWeights(
        packed=packed,
        scales_t=scales_t,
        sz_t=sz_t,
        bits=qweight.bits,
        g=config.g,
        group_size=qweight.group_size,
        shape=qweight.shape,
        tile_config=tile,
        metadata=dict(qweight.metadata),
    )
