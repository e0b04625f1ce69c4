"""Offline kernel plans and the process-wide plan cache.

Algorithm 1 splits the T-MAC kernel into an *offline* stage (weights are
packed into grouped bit-plane indices once — they never change during
inference) and an *online* stage (per-activation table
precompute, lookup, aggregation).  :class:`KernelPlan` is the materialized
offline stage: everything derivable from ``(quantized weights, config)``
alone, built once and shared by every executor and every request that uses
the same weights.

Plans are content-addressed: :func:`weight_fingerprint` hashes the quantized
codes/scales/zeros, and :class:`PlanCache` memoizes plans process-wide under
``(fingerprint, layout-relevant config fields, tile config)``.  Only the
fields that change the offline artifacts enter the key — execution-time
knobs (table quantization, fast aggregation, LUT scale granularity,
executor choice) deliberately do not, so e.g. ``T-MAC`` and ``T-MAC (+FA)``
share one plan for the same weights.  Neither do the permutation and
interleaving flags: the plan stores one packed layout, the same for
every setting of them (the flags drive only the
SIMD cost profile, :mod:`repro.simd.profile`).

The cache is what lets :func:`repro.core.gemm.tmac_gemm` /
:func:`~repro.core.gemm.tmac_gemv` be called repeatedly against the same
weights without re-running offline preprocessing, and what the serving
engine (:mod:`repro.serving`) uses to bind many concurrent models/requests
to one set of prepared weights.
"""

from __future__ import annotations

import hashlib
import threading
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.bitserial import BitSerialTransform
from repro.core.config import TMACConfig
from repro.core.lut import LookupTable, precompute_lut
from repro.core.tiling import TileConfig
from repro.core.weights import (
    PreprocessedWeights,
    preprocess_weights,
    resolve_tile_config,
)
from repro.quant.uniform import QuantizedWeight

__all__ = [
    "KernelPlan",
    "build_plan",
    "weight_fingerprint",
    "PlanCache",
    "PLAN_CACHE",
    "get_plan",
    "clear_plan_cache",
    "plan_cache_stats",
]


#: id(codes) -> (wr_codes, wr_scales, wr_zeros, digest).  Entries evict
#: themselves when the codes array is garbage-collected, so a recycled id
#: can never alias a dead entry.  Module-level (not on the weight object)
#: so QuantizedWeight instances stay free of unpicklable weakrefs.
_FINGERPRINT_MEMO: dict = {}


def _fingerprint_evictor(key: int):
    def _evict(_ref) -> None:
        _FINGERPRINT_MEMO.pop(key, None)

    return _evict


def weight_fingerprint(qweight: QuantizedWeight) -> str:
    """Content hash of a quantized weight matrix.

    Two :class:`~repro.quant.uniform.QuantizedWeight` objects with the same
    codes, scales, zero points, bit width and group size produce the same
    fingerprint, regardless of object identity — the property the plan cache
    needs to recognise "the same weights" across model rebuilds.

    The digest is memoized (keyed by the identity of the exact arrays
    hashed, held weakly) so a decode loop calling
    :func:`repro.core.gemm.tmac_gemv` against one weight object pays the
    O(M*K) hash once, not per token, while rebuilt or
    ``dataclasses.replace``-derived weights are always re-hashed.  Like the
    plan cache itself, this assumes the arrays are not mutated in place
    once quantized (they are not during inference).
    """
    key = id(qweight.codes)
    entry = _FINGERPRINT_MEMO.get(key)
    if entry is not None:
        wr_codes, wr_scales, wr_zeros, digest = entry
        if (wr_codes() is qweight.codes and wr_scales() is qweight.scales
                and wr_zeros() is qweight.zeros):
            return digest
    h = hashlib.sha1()
    h.update(f"{qweight.bits}:{qweight.group_size}:{qweight.shape}".encode())
    h.update(np.ascontiguousarray(qweight.codes).tobytes())
    h.update(np.ascontiguousarray(qweight.scales).tobytes())
    h.update(np.ascontiguousarray(qweight.zeros).tobytes())
    digest = h.hexdigest()
    _FINGERPRINT_MEMO[key] = (
        weakref.ref(qweight.codes, _fingerprint_evictor(key)),
        weakref.ref(qweight.scales),
        weakref.ref(qweight.zeros),
        digest,
    )
    return digest


@dataclass
class KernelPlan:
    """The offline stage of the T-MAC kernel, built once per (weights, layout).

    Attributes
    ----------
    config:
        The configuration the plan was built with.  Executors may run the
        plan under a *different* config as long as the layout-relevant
        fields (``bits``, ``g``, ``s0``/``s1``, tiling) agree — see :meth:`compatible_with`.
    weights:
        The preprocessed weight operand (packed indices, scales, zeros).
    transform:
        Bit-serial transform mapping weight bits to table signs.
    fingerprint:
        Content hash of the source quantized weights.

    Online, integer-key tables run the native integer kernel the plan
    compiles on first use (:meth:`specialized`) where the library serves
    the plan's ``g``; everything else runs the loop oracle, which reads
    the packed weights and adds nothing to the plan.
    """

    config: TMACConfig
    weights: PreprocessedWeights
    transform: BitSerialTransform
    fingerprint: str
    #: The compiled native integer LUT kernel
    #: (:mod:`repro.core.specialize`); stays ``None`` where none compiles.
    #: Lazily built under ``_build_lock`` and owned by the plan: evicting
    #: the plan from the :class:`PlanCache` releases the kernel with it (it
    #: holds no reference back).
    _integer_kernel: Optional[object] = field(default=None, repr=False)
    #: Serializes the lazy integer-kernel build: the parallel executor's
    #: workers (and concurrent serving requests) may race into
    #: :meth:`specialized` for one shared plan.
    _build_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    # ------------------------------------------------------------------ #
    # Shape properties
    # ------------------------------------------------------------------ #

    @property
    def out_features(self) -> int:
        """M — rows of the weight matrix / output width."""
        return self.weights.out_features

    @property
    def in_features(self) -> int:
        """K — reduction dimension."""
        return self.weights.in_features

    @property
    def bits(self) -> int:
        """Weight bit width."""
        return self.weights.bits

    @property
    def g(self) -> int:
        """LUT group size."""
        return self.weights.g

    @property
    def group_size(self) -> int:
        """Weight-quantization group size along K."""
        return self.weights.group_size

    @property
    def groups_per_qgroup(self) -> int:
        """Number of g-wide LUT groups per weight-quantization group."""
        return self.weights.group_size // self.weights.g

    @property
    def num_qgroups(self) -> int:
        """Number of weight-quantization groups along K."""
        return self.weights.in_features // self.weights.group_size

    @property
    def num_groups(self) -> int:
        """J = K/g — total LUT groups along K."""
        return self.weights.in_features // self.weights.g

    # ------------------------------------------------------------------ #
    # Online-stage helpers
    # ------------------------------------------------------------------ #

    def scale_block(self, config: Optional[TMACConfig] = None) -> int:
        """Number of LUT groups sharing one dynamic table scale."""
        cfg = config or self.config
        return self.groups_per_qgroup if cfg.lut_scale_granularity == "group" else 1

    def precompute(
        self, activation: np.ndarray, config: Optional[TMACConfig] = None
    ) -> LookupTable:
        """Build the online lookup tables for an activation matrix.

        ``config`` overrides the plan's own configuration for the
        execution-time knobs (table quantization, scale granularity, mirror
        consolidation, activation dtype); the layout fields must match.
        """
        cfg = config or self.config
        if cfg.g != self.g:
            raise ValueError(f"config.g={cfg.g} does not match plan g={self.g}")
        if (cfg.s0, cfg.s1) != (self.transform.s0, self.transform.s1):
            raise ValueError(
                f"config transform ({cfg.s0}, {cfg.s1}) does not match the "
                f"plan's ({self.transform.s0}, {self.transform.s1})"
            )
        return precompute_lut(
            activation,
            g=cfg.g,
            transform=self.transform,
            mirror_consolidation=cfg.mirror_consolidation,
            table_quantization=cfg.table_quantization,
            scale_block=self.scale_block(cfg),
            act_dtype=cfg.act_dtype,
        )

    def specialized(self) -> Optional[object]:
        """The compiled native integer LUT kernel (lazily built), or
        ``None`` on a host without the native phase for the plan's ``g``.

        Thread-safe and single-flight: concurrent executor workers racing
        on one plan compile it exactly once and all receive the same kernel
        object.  ``None`` counts as not built; callers that must not retry
        per call check :func:`~repro.core.specialize.native_phase` first,
        as :func:`~repro.core.specialize.maybe_specialized` does.
        """
        # Benign double-checked read: the attribute is set once and never
        # changed, so a stale miss just falls through to the locked build.
        # repro-lint: disable=lock-guard -- lock-free fast path; misses fall through to the locked build
        kernel = self._integer_kernel
        if kernel is not None:
            return kernel
        with self._build_lock:
            return self._build_specialized_locked()

    def _build_specialized_locked(self) -> object:
        if self._integer_kernel is None:
            # Resolved per build: tests substitute the compiler on the
            # module.
            from repro.core.specialize import compile_specialized

            self._integer_kernel = compile_specialized(self)
        return self._integer_kernel

    def compatible_with(self, config: TMACConfig) -> bool:
        """Whether this plan can execute under ``config``.

        A config with no tile preference (``tile_config is None``) accepts
        the plan's tiling; an explicit tile request must match the tiles
        the weights were actually laid out with.
        """
        config_tile = config.tile_config or self.weights.tile_config
        return _layout_key(config, config_tile) == _layout_key(
            self.config, self.weights.tile_config
        )

    def output_tiles(self, num_tiles: int) -> List[Tuple[int, int]]:
        """Partition the output (M) axis into at most ``num_tiles`` spans.

        Shard boundaries are aligned to the layout tile ``m_tm`` the
        weights were packed with, so a shard always covers whole weight
        tiles (the layout unit recorded on the weights), and the spans are balanced to within one tile.
        Returns ``[(m0, m1), ...]`` covering ``[0, M)`` exactly, in order;
        fewer than ``num_tiles`` spans when M holds fewer layout tiles.

        This is plan-side geometry: executors must not invent their own
        boundaries, because only tile-aligned spans keep every shard's
        memory walk identical to the serial executor's walk over the same
        columns.
        """
        if num_tiles < 1:
            raise ValueError(f"num_tiles must be >= 1, got {num_tiles}")
        m = self.out_features
        align = min(self.weights.tile_config.m_tm, m)
        units = -(-m // align)  # whole layout tiles along M (ceil)
        shards = min(num_tiles, units)
        base, extra = divmod(units, shards)
        spans: List[Tuple[int, int]] = []
        unit0 = 0
        for i in range(shards):
            take = base + (1 if i < extra else 0)
            unit1 = unit0 + take
            spans.append((unit0 * align, min(unit1 * align, m)))
            unit0 = unit1
        return spans


def build_plan(
    qweight: QuantizedWeight,
    config: Optional[TMACConfig] = None,
    tile_config: Optional[TileConfig] = None,
) -> KernelPlan:
    """Run the offline stage: preprocess the weights into a reusable plan."""
    cfg = config or TMACConfig(bits=qweight.bits)
    if cfg.bits != qweight.bits:
        raise ValueError(f"config.bits={cfg.bits} != qweight.bits={qweight.bits}")
    transform = BitSerialTransform(cfg.s0, cfg.s1)
    weights = preprocess_weights(qweight, cfg, tile_config)
    return KernelPlan(
        config=cfg,
        weights=weights,
        transform=transform,
        fingerprint=weight_fingerprint(qweight),
    )


def _layout_key(
    config: TMACConfig, tile_config: Optional[TileConfig]
) -> Tuple:
    """The config fields that change the offline artifacts.

    The tile is normalized through the same
    :func:`~repro.core.weights.resolve_tile_config` preprocessing uses, so
    an implicit (``None``) and an explicit default tile produce the same
    key instead of duplicating plans.
    """
    tile = resolve_tile_config(config, tile_config)
    tile_key = (tile.m_tm, tile.k_tk)
    return (
        config.bits,
        config.g,
        config.s0,
        config.s1,
        tile_key,
    )


class PlanCache:
    """Process-wide memoization of :class:`KernelPlan` objects.

    Keys are ``(weight fingerprint, layout-relevant config fields, tile)``.
    The cache is bounded (LRU eviction) so long-running serving processes
    cannot grow without limit, and thread-safe because the serving engine
    admits requests from arbitrary callers.  Concurrent ``get`` calls for
    one key are *single-flight*: exactly one caller runs the (expensive)
    offline preprocessing while the others wait and receive the same plan
    object — the parallel executor's worker pool must never trigger
    duplicate builds of one layer's weights.
    """

    def __init__(self, max_entries: int = 256):
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._lock = threading.Lock()
        #: key -> plan, least recently used first.
        self._plans: "OrderedDict[Tuple, KernelPlan]" = OrderedDict()
        #: key -> Event set when the in-flight build for that key lands.
        self._building: "Dict[Tuple, threading.Event]" = {}
        self.hits = 0
        self.misses = 0

    def get(
        self,
        qweight: QuantizedWeight,
        config: Optional[TMACConfig] = None,
        tile_config: Optional[TileConfig] = None,
    ) -> KernelPlan:
        """Return the cached plan for these weights, building it on a miss."""
        cfg = config or TMACConfig(bits=qweight.bits)
        fingerprint = weight_fingerprint(qweight)
        key = (fingerprint, _layout_key(cfg, tile_config))
        while True:
            with self._lock:
                plan = self._plans.get(key)
                if plan is not None:
                    self.hits += 1
                    self._plans.move_to_end(key)
                    return plan
                pending = self._building.get(key)
                if pending is None:
                    pending = threading.Event()
                    self._building[key] = pending
                    self.misses += 1
                    break
            # Another thread is building this exact plan: wait for it and
            # re-check (a follower counts as a hit — it paid no build).
            pending.wait()
        # Build outside the lock: preprocessing can be expensive and plans
        # for distinct keys are independent.
        try:
            plan = build_plan(qweight, cfg, tile_config)
        except BaseException:
            with self._lock:
                self._building.pop(key, None)
            pending.set()  # wake followers; one of them retries the build
            raise
        with self._lock:
            self._plans[key] = plan
            while len(self._plans) > self.max_entries:
                self._plans.popitem(last=False)
            self._building.pop(key, None)
        pending.set()
        return plan

    def stats(self) -> Dict[str, int]:
        """Hit/miss/size counters (reported by the serving benchmark)."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "entries": len(self._plans),
            }

    def clear(self) -> None:
        """Drop every cached plan and reset the counters."""
        with self._lock:
            self._plans.clear()
            self.hits = 0
            self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)


#: The process-wide plan cache used by the functional GEMM API, the T-MAC
#: backend and the serving engine.
PLAN_CACHE = PlanCache()


def get_plan(
    qweight: QuantizedWeight,
    config: Optional[TMACConfig] = None,
    tile_config: Optional[TileConfig] = None,
) -> KernelPlan:
    """Fetch (or build and cache) the plan for a quantized weight matrix."""
    return PLAN_CACHE.get(qweight, config, tile_config)


def clear_plan_cache() -> None:
    """Reset the process-wide plan cache (used by tests and benchmarks)."""
    PLAN_CACHE.clear()


def plan_cache_stats() -> Dict[str, int]:
    """Counters of the process-wide plan cache."""
    return PLAN_CACHE.stats()
