"""Online lookup-table precomputation (Algorithm 1, ``Precompute``).

For each activation row and each group of ``g`` consecutive activation
values, T-MAC precomputes the products of that ``[1, g]`` vector with every
possible ``[g]`` pattern of transformed one-bit weights — ``2**g`` signed
sums.  A ``g``-bit weight index then selects its partial result with a
single table lookup.

Two storage reductions from Section 3.3 are implemented:

* **Mirror consolidation** — with the symmetric bit mapping ``{-1, +1}``,
  pattern ``p`` and its bitwise complement produce values of opposite sign,
  so only half the table (patterns whose top bit is 0) is stored and the
  other half is reconstructed by negation.  Lossless.
* **Table quantization** — the fp16 table values are quantized to int8 with
  a dynamic scale (per table or per accumulation block).  This is error
  source (a) of Section 5.6 and is nearly lossless in practice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional

import numpy as np

from repro.core.bitserial import BitSerialTransform

__all__ = [
    "LookupTable",
    "accumulator_dtype",
    "fusion_width",
    "build_lut",
    "precompute_lut",
    "lookup",
    "lut_storage_bytes",
]

_INT8_MAX = 127.0


def accumulator_dtype(count: int) -> np.dtype:
    """Narrowest integer dtype that sums ``count`` int8 table entries exactly."""
    return np.dtype(np.int16 if count * 127 < 1 << 15 else np.int32)


def fusion_width(g: int) -> int:
    """How many consecutive ``g``-bit indices one byte-wide lookup fuses."""
    return max(1, 8 // g)


@lru_cache(maxsize=64)
def _fusion_selectors(g: int, blocks: int) -> np.ndarray:
    """Frozen gather vectors ``sel[t, block * 2**(g*f) + code]``: inside
    ``f`` concatenated ``[blocks * 2**g]`` slabs, the entry of slab ``t``
    for the ``t``-th ``g``-bit field of ``code`` (little-endian — ``g = 4``:
    the ``pack_indices`` byte, ``byte & 15`` then ``byte >> 4``)."""
    f = fusion_width(g)
    t = np.arange(f)[:, None, None]
    digit = (np.arange(1 << (g * f)) >> (g * t)) & ((1 << g) - 1)
    sel = (((t * blocks + np.arange(blocks)[:, None]) << g) + digit).reshape(
        f, -1)
    sel.setflags(write=False)
    return sel


@dataclass
class LookupTable:
    """Precomputed activation lookup tables for one activation matrix.

    Attributes
    ----------
    values:
        Table entries.  Shape ``[N, K/g, L]`` where ``L = 2**g`` without
        mirror consolidation or ``2**(g-1)`` with it.  ``float32`` when
        unquantized, ``int8`` when table-quantized.
    scales:
        Dequantization scales when ``quantized``; shape ``[N, num_blocks]``
        where consecutive ``scale_block`` groups along K/g share a scale.
        ``None`` when unquantized.
    g:
        Group size the table was built for.
    mirrored:
        Whether mirror consolidation is applied (half-length table).
    quantized:
        Whether entries are int8 with scales.
    scale_block:
        Number of K/g groups sharing one scale (1 = finest granularity).
    s0 / s1:
        End points of the bit-serial transform the table was built with
        (``None`` for tables built outside :func:`precompute_lut`).  Kernels
        use them to reject externally shared tables from an incompatible
        transform.
    act_dtype:
        Accumulation dtype the table values were built in, when known.
    """

    values: np.ndarray
    g: int
    mirrored: bool
    quantized: bool
    scales: Optional[np.ndarray] = None
    scale_block: int = 1
    s0: Optional[float] = None
    s1: Optional[float] = None
    act_dtype: Optional[str] = None
    #: Memo of the whole-table :meth:`row_minor` expansion.
    _row_minor: Optional[np.ndarray] = field(
        default=None, repr=False, compare=False)

    @property
    def num_rows(self) -> int:
        """N — number of activation rows covered by the tables."""
        return int(self.values.shape[0])

    @property
    def num_groups(self) -> int:
        """K/g — number of activation groups (tables per row)."""
        return int(self.values.shape[1])

    @property
    def stored_length(self) -> int:
        """Number of entries stored per table."""
        return int(self.values.shape[2])

    @property
    def full_length(self) -> int:
        """Number of addressable entries per table (2**g)."""
        return 1 << self.g

    def storage_bytes(self) -> int:
        """Bytes used to store all tables (entries + scales)."""
        entry_bytes = 1 if self.quantized else self.values.dtype.itemsize
        total = self.values.size * entry_bytes
        if self.scales is not None:
            total += self.scales.size * 2  # fp16 scales
        return int(total)

    @property
    def fused_entries(self) -> int:
        """Entries per activation row of the :meth:`row_minor` expansion."""
        f = fusion_width(self.g)
        return (-(-self.scale_block // f) * self.num_groups
                // self.scale_block) << (self.g * f)

    def row_minor(self, n0: int = 0, n1: Optional[int] = None) -> np.ndarray:
        """Rows ``[n0, n1)`` of the table re-laid for the integer LUT kernel.

        Returns frozen ``lut[s, block * 2**(g*f) + code, n]``, the sum of
        the ``f = fusion_width(g)`` entries that ``code`` — the ``g``-bit
        indices of step ``s`` of a scale block, concatenated — selects, in
        :func:`accumulator_dtype`: one byte-wide index looks up ``f`` groups
        of all rows (the minor axis).  The whole table is memoized — q/k/v
        or gate/up kernels sharing one input reuse it; row blocks, by which
        callers bound this 8-fold (``g = 4``) transient, are not.
        """
        n1 = self.num_rows if n1 is None else n1
        whole = n0 == 0 and n1 == self.num_rows
        if whole and self._row_minor is not None:
            return self._row_minor
        gpq, stored, n = self.scale_block, self.stored_length, n1 - n0
        f = fusion_width(self.g)
        blocks = self.num_groups // gpq
        # Unfused slabs [p, block, idx, n] over the full 2**g patterns (the
        # mirrored half is one negation here, not a sign multiply per
        # lookup), all-zero past gpq so a short last step fuses like any.
        slabs = np.empty((-(-gpq // f) * f, blocks, self.full_length, n),
                         dtype=accumulator_dtype(gpq))
        slabs[gpq:] = 0
        values = self.values[n0:n1].reshape(n, blocks, gpq, stored).transpose(
            2, 1, 3, 0)
        slabs[:gpq, :, :stored] = values
        if self.mirrored:
            np.negative(values[:, :, ::-1], out=slabs[:gpq, :, stored:])
        slabs = slabs.reshape(len(slabs) // f, -1, n)
        selectors = _fusion_selectors(self.g, blocks)
        lut = slabs.take(selectors[0], axis=1)
        for sel in selectors[1:]:
            lut += slabs.take(sel, axis=1)
        lut.setflags(write=False)
        if whole:
            self._row_minor = lut
        return lut


@lru_cache(maxsize=64)
def _signs_t(g: int, s0: float, s1: float) -> np.ndarray:
    """Frozen float32 ``signs[t, p]``: ``s1`` if bit ``t`` of pattern ``p``
    is set else ``s0``."""
    bits = (np.arange(1 << g, dtype=np.uint32)
            >> np.arange(g, dtype=np.uint32)[:, None]) & 1
    signs_t = s0 + (s1 - s0) * bits.astype(np.float32)
    signs_t.setflags(write=False)
    return signs_t


def build_lut(
    activation: np.ndarray,
    g: int = 4,
    transform: BitSerialTransform = BitSerialTransform(),
    dtype: str = "float32",
) -> np.ndarray:
    """Compute the full (unconsolidated, unquantized) lookup tables.

    Entry ``[n, j, p]`` holds ``sum_t f(bit_t(p)) * A[n, j*g + t]`` where
    ``f`` maps bit values to ``{s0, s1}``.  With the default ``{-1, +1}``
    transform this is the signed sum of the activation group with signs
    given by the pattern ``p``.

    Parameters
    ----------
    activation:
        ``[N, K]`` activation matrix; K must be a multiple of ``g``.
    g:
        Group size.
    transform:
        Bit-serial linear transform mapping bits to table signs.
    dtype:
        Accumulation dtype for the table values ("float32" or "float16");
        "float16" models the paper's fp16 tables.
    """
    a = np.asarray(activation, dtype=np.float32)
    if a.ndim != 2:
        raise ValueError(f"activation must be 2-D [N, K], got shape {a.shape}")
    n, k = a.shape
    if k % g != 0:
        raise ValueError(f"K={k} must be a multiple of g={g}")
    groups = a.reshape(n, k // g, g)
    # lut[n, j, p] = sum_t groups[n, j, t] * signs[p, t]
    lut = np.matmul(groups, _signs_t(g, transform.s0, transform.s1))
    if dtype == "float16":
        lut = lut.astype(np.float16).astype(np.float32)
    return lut.astype(np.float32)


def _consolidate(lut: np.ndarray, g: int) -> np.ndarray:
    """Keep only the patterns whose top bit is zero (the first half)."""
    half = 1 << (g - 1)
    return lut[:, :, :half]


def _quantize_table(
    lut: np.ndarray, scale_block: int
) -> tuple:
    """Quantize table entries to int8 with one dynamic scale per block.

    ``scale_block`` consecutive groups along the K/g axis share one scale
    (the maximum absolute entry of the block), which lets the kernel
    accumulate looked-up int8 values inside a block before rescaling.
    """
    n, groups, length = lut.shape
    if groups % scale_block != 0:
        raise ValueError(
            f"number of groups {groups} must be a multiple of scale_block "
            f"{scale_block}"
        )
    blocks = groups // scale_block
    blocked = lut.reshape(n, blocks, scale_block, length)
    amax = np.abs(blocked).max(axis=(2, 3))
    scales = np.where(amax > 0, amax / _INT8_MAX, 1.0).astype(np.float32)
    q = np.rint(blocked / scales[:, :, None, None])
    q = np.clip(q, -127, 127).astype(np.int8)
    return q.reshape(n, groups, length), scales


def precompute_lut(
    activation: np.ndarray,
    g: int = 4,
    transform: BitSerialTransform = BitSerialTransform(),
    mirror_consolidation: bool = True,
    table_quantization: bool = True,
    scale_block: int = 1,
    act_dtype: str = "float16",
) -> LookupTable:
    """Full online table-precomputation pipeline.

    Combines :func:`build_lut` with mirror consolidation and table
    quantization according to the kernel configuration.

    Notes
    -----
    Mirror consolidation requires a sign-symmetric transform
    (``s0 == -s1``); the function raises otherwise, since the negation
    reconstruction would be incorrect.
    """
    if mirror_consolidation and transform.s0 != -transform.s1:
        raise ValueError(
            "mirror consolidation requires a symmetric transform (s0 == -s1)"
        )
    lut = build_lut(activation, g=g, transform=transform, dtype=act_dtype)
    if mirror_consolidation:
        lut = _consolidate(lut, g)

    if table_quantization:
        values, scales = _quantize_table(lut, scale_block)
        return LookupTable(
            values=values,
            g=g,
            mirrored=mirror_consolidation,
            quantized=True,
            scales=scales,
            scale_block=scale_block,
            s0=transform.s0,
            s1=transform.s1,
            act_dtype=act_dtype,
        )
    return LookupTable(
        values=lut.astype(np.float32),
        g=g,
        mirrored=mirror_consolidation,
        quantized=False,
        scales=None,
        scale_block=scale_block,
        s0=transform.s0,
        s1=transform.s1,
        act_dtype=act_dtype,
    )


def lookup(table: LookupTable, indices: np.ndarray, group_slice: slice = None):
    """Gather table entries for a matrix of weight indices.

    Parameters
    ----------
    table:
        The precomputed :class:`LookupTable`.
    indices:
        ``[M, J]`` matrix of ``g``-bit weight indices, where ``J`` is the
        number of groups covered (must equal the slice length).
    group_slice:
        Optional slice over the K/g group axis, used by the kernel to walk
        the reduction dimension block by block.  Defaults to all groups.

    Returns
    -------
    np.ndarray
        Raw looked-up values of shape ``[N, M, J]``.  When the table is
        quantized the values are int-valued floats *before* scale
        application (the kernel applies scales at block granularity);
        mirrored entries are reconstructed by negation.
    """
    if group_slice is None:
        group_slice = slice(0, table.num_groups)
    values = table.values[:, group_slice, :]
    n, j_count, stored = values.shape
    idx = np.asarray(indices, dtype=np.int64)
    if idx.ndim != 2:
        raise ValueError(f"indices must be 2-D [M, J], got shape {idx.shape}")
    if idx.shape[1] != j_count:
        raise ValueError(
            f"indices cover {idx.shape[1]} groups but the slice has {j_count}"
        )

    if table.mirrored:
        half = table.full_length >> 1
        negate = idx >= half
        folded = np.where(negate, (table.full_length - 1) - idx, idx)
    else:
        negate = np.zeros_like(idx, dtype=bool)
        folded = idx

    # Gather: out[n, m, j] = values[n, j, folded[m, j]]
    flat = values.reshape(n, j_count * stored)
    gather = (np.arange(j_count, dtype=np.int64)[None, :] * stored) + folded
    out = flat[:, gather.reshape(-1)].reshape(n, idx.shape[0], j_count)
    out = out.astype(np.float64)
    sign = np.where(negate, -1.0, 1.0)
    return out * sign[None, :, :]


def lut_storage_bytes(
    n: int,
    k: int,
    g: int,
    mirror_consolidation: bool,
    table_quantization: bool,
    act_dtype: str = "float16",
) -> int:
    """Storage footprint of the tables for an ``[N, K]`` activation matrix.

    Reproduces the Section 3.3 claim that the two reductions combined shrink
    the tables to a quarter of their original size: mirror consolidation
    halves the entry count, table quantization halves the bytes per entry
    (fp16 -> int8).
    """
    entries = 1 << g
    if mirror_consolidation:
        entries //= 2
    entry_bytes = 1 if table_quantization else (2 if act_dtype == "float16" else 4)
    return n * (k // g) * entries * entry_bytes
