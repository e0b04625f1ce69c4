"""Configuration of the T-MAC mpGEMM kernel.

A :class:`TMACConfig` captures every knob the paper's design section exposes:

* the LUT group size ``g`` (Section 3.1, default 4 — the value that fits a
  single NEON ``TBL`` / AVX2 ``PSHUF`` register),
* the activation data type,
* the table-storage reductions (mirror consolidation, table quantization —
  Section 3.3),
* the data-layout optimizations (tiling, weight permutation, weight
  interleaving — Section 3.2),
* fast 8-bit aggregation (Section 4), off by default because it costs
  accuracy,
* the bit-serial linear transformation end points ``s0``/``s1``
  (Section 4, "Bit-serial linear transformation"), defaulting to ``(-1, +1)``.

The ablation study (Figure 10) is reproduced by toggling these flags from
the baseline ``TM-base`` configuration up to the full ``T-MAC`` one; see
:func:`ablation_stages`.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional

from repro.core.tiling import TileConfig

__all__ = [
    "TMACConfig",
    "GatewayConfig",
    "ablation_stages",
    "ABLATION_STAGE_NAMES",
    "DEFAULT_PARALLEL_THRESHOLD",
    "usable_cpus",
]

#: Minimum gather work (``N * M * K/g`` lookup elements) before the
#: parallel executor shards a call across its worker pool; smaller calls
#: run the serial vectorized path, which is faster than paying fork/join
#: overhead on a kernel that finishes in microseconds.
DEFAULT_PARALLEL_THRESHOLD = 1 << 16


def usable_cpus() -> int:
    """Cores this process may run on — what worker pools size themselves by.

    The scheduler affinity mask (containers, ``taskset``) where the
    platform exposes it; ``os.cpu_count()`` otherwise.
    """
    try:
        return max(1, len(os.sched_getaffinity(0)))
    except AttributeError:
        return max(1, os.cpu_count() or 1)


def _env_str(name: str, default: str) -> str:
    return os.environ.get(name, default)


def _env_int(name: str, default: Optional[int]) -> Optional[int]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


def _env_float(name: str, default: Optional[float]) -> Optional[float]:
    raw = os.environ.get(name)
    if raw is None or raw == "":
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{name} must be a number, got {raw!r}") from None


@dataclass(frozen=True)
class TMACConfig:
    """Configuration for the T-MAC LUT-based mpGEMM kernel.

    Attributes
    ----------
    bits:
        Weight bit width ``b`` (1..4 evaluated in the paper).
    g:
        LUT group size: the number of one-bit weights grouped into a single
        table index.  ``2**g`` is the table length before mirror
        consolidation.
    act_dtype:
        Data type the lookup tables are built in before table quantization:
        ``"float16"`` or ``"float32"``.
    mirror_consolidation:
        Store only half the table and reconstruct the mirrored half by
        negation (lossless).
    table_quantization:
        Quantize table entries from fp16 to int8 with a dynamic scale.
    fast_aggregation:
        Aggregate int8 lookup results with averaging (``rhadd``/``avg``)
        instructions instead of widening adds.  Faster but lossy.
    lut_scale_granularity:
        ``"group"`` (one scale per weight-quantization group — what the
        integer LUT kernel and fast aggregation need) or ``"fine"``
        (one scale per g-element table, the finest dynamic granularity).
    s0 / s1:
        Values the one-bit weights {0, 1} are linearly mapped to before the
        table lookup.  The paper finds (-1, +1) optimal.
    tiling / permute_weights / interleave_weights:
        The LUT-centric data-layout optimizations of Section 3.2.  They do
        not change numerical results; they change the instruction/memory
        profile used by the cost model.
    tile_config:
        Explicit tile configuration; ``None`` lets the kernel (or the tuner)
        pick a default for the target device.
    executor:
        Online executor used by :class:`~repro.core.kernel.TMACKernel`:
        ``"vectorized"`` (default — the compiled integer LUT kernel for
        integer-key tables, else the loop oracle), ``"parallel"`` (the
        integer kernel sharded over output-column tiles on a persistent
        worker thread pool) or
        ``"loop"`` (the reference per-group/per-bit Python loops, kept as
        the numerical oracle).  All compute bit-identical results; see
        :mod:`repro.core.executor`.  The default can be overridden with the
        ``REPRO_EXECUTOR`` environment variable (the CI matrix uses this to
        run the whole suite under the parallel executor).
    num_threads:
        Worker count for the parallel executor; ``None`` (default) uses the
        cores this process may run on (:func:`usable_cpus` — the scheduler
        affinity mask, not ``os.cpu_count()``).  Ignored by the serial
        executors.  Default overridable via ``REPRO_NUM_THREADS``.
    parallel_threshold:
        Minimum gather work (``N * M * K/g`` elements) before the parallel
        executor shards a call; below it the serial vectorized path runs.
    """

    bits: int = 4
    g: int = 4
    act_dtype: str = "float16"
    mirror_consolidation: bool = True
    table_quantization: bool = True
    fast_aggregation: bool = False
    lut_scale_granularity: str = "group"
    s0: float = -1.0
    s1: float = 1.0
    tiling: bool = True
    permute_weights: bool = True
    interleave_weights: bool = True
    tuned: bool = False
    tile_config: Optional[TileConfig] = None
    executor: str = field(
        default_factory=lambda: _env_str("REPRO_EXECUTOR", "vectorized"))
    num_threads: Optional[int] = field(
        default_factory=lambda: _env_int("REPRO_NUM_THREADS", None))
    parallel_threshold: int = DEFAULT_PARALLEL_THRESHOLD
    name: str = "T-MAC"
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 8:
            raise ValueError(f"bits must be in [1, 8], got {self.bits}")
        if not 1 <= self.g <= 8:
            raise ValueError(f"g must be in [1, 8], got {self.g}")
        if self.act_dtype not in ("float16", "float32"):
            raise ValueError(
                f"act_dtype must be 'float16' or 'float32', got {self.act_dtype!r}"
            )
        if self.lut_scale_granularity not in ("group", "fine"):
            raise ValueError(
                "lut_scale_granularity must be 'group' or 'fine', "
                f"got {self.lut_scale_granularity!r}"
            )
        if self.fast_aggregation and not self.table_quantization:
            raise ValueError(
                "fast_aggregation requires table_quantization (it averages "
                "int8 table entries)"
            )
        if self.s0 == self.s1:
            raise ValueError("s0 and s1 must differ")
        if self.num_threads is not None and self.num_threads < 1:
            raise ValueError(f"num_threads must be >= 1 (or None for the "
                             f"usable cores), got {self.num_threads}")
        if self.parallel_threshold < 0:
            raise ValueError(
                f"parallel_threshold must be >= 0, got {self.parallel_threshold}"
            )
        # Imported lazily: repro.core.executor imports this module.  The
        # executor registry is the single source of valid names.
        from repro.core.executor import list_executors

        if self.executor not in list_executors():
            raise ValueError(
                f"executor must be one of {list_executors()}, "
                f"got {self.executor!r}"
            )

    @property
    def table_length(self) -> int:
        """Number of table entries stored per group (after consolidation)."""
        full = 1 << self.g
        return full // 2 if self.mirror_consolidation else full

    @property
    def table_entry_bytes(self) -> int:
        """Bytes per stored table entry."""
        if self.table_quantization:
            return 1
        return 2 if self.act_dtype == "float16" else 4

    def with_options(self, **kwargs) -> "TMACConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


@dataclass(frozen=True)
class GatewayConfig:
    """Knobs of the asyncio serving gateway (:mod:`repro.server`).

    Every default is overridable through a ``REPRO_GATEWAY_*`` environment
    variable (evaluated at construction, like ``REPRO_EXECUTOR`` /
    ``REPRO_NUM_THREADS`` for :class:`TMACConfig`), so deployments tune
    the frontend without code changes.

    Attributes
    ----------
    host / port:
        Listen address.  ``port=0`` binds an ephemeral port (tests, and
        the demo); the bound port is reported by ``Gateway.start()``.
        Env: ``REPRO_GATEWAY_HOST`` / ``REPRO_GATEWAY_PORT``.
    max_queue_depth:
        Backpressure bound on requests waiting for engine admission; once
        reached, new completions are rejected with HTTP 429 and a
        ``Retry-After`` header instead of growing the queue without
        bound.  Env: ``REPRO_GATEWAY_QUEUE_DEPTH``.
    default_timeout_s:
        Deadline applied to requests that do not carry their own
        ``timeout``; ``None`` (default) means no implicit deadline.
        Env: ``REPRO_GATEWAY_TIMEOUT_S``.
    retry_after_s:
        Floor of the ``Retry-After`` hint on 429 responses (the gateway
        raises it to its moving estimate of one request's service time).
        Env: ``REPRO_GATEWAY_RETRY_AFTER_S``.
    max_body_bytes:
        Largest accepted request body (413 beyond it).
        Env: ``REPRO_GATEWAY_MAX_BODY``.
    metrics_namespace:
        Prefix of every exported Prometheus metric name.
        Env: ``REPRO_GATEWAY_METRICS_NAMESPACE``.
    """

    host: str = field(
        default_factory=lambda: _env_str("REPRO_GATEWAY_HOST", "127.0.0.1"))
    port: int = field(
        default_factory=lambda: _env_int("REPRO_GATEWAY_PORT", 8080))
    max_queue_depth: int = field(
        default_factory=lambda: _env_int("REPRO_GATEWAY_QUEUE_DEPTH", 64))
    default_timeout_s: Optional[float] = field(
        default_factory=lambda: _env_float("REPRO_GATEWAY_TIMEOUT_S", None))
    retry_after_s: float = field(
        default_factory=lambda: _env_float("REPRO_GATEWAY_RETRY_AFTER_S", 1.0))
    max_body_bytes: int = field(
        default_factory=lambda: _env_int("REPRO_GATEWAY_MAX_BODY", 1 << 20))
    metrics_namespace: str = field(
        default_factory=lambda: _env_str("REPRO_GATEWAY_METRICS_NAMESPACE",
                                         "gateway"))

    def __post_init__(self) -> None:
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port must be in [0, 65535], got {self.port}")
        if self.max_queue_depth < 1:
            raise ValueError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}")
        if self.default_timeout_s is not None and self.default_timeout_s <= 0:
            raise ValueError(
                f"default_timeout_s must be > 0, got {self.default_timeout_s}")
        if self.retry_after_s <= 0:
            raise ValueError(
                f"retry_after_s must be > 0, got {self.retry_after_s}")
        if self.max_body_bytes < 1:
            raise ValueError(
                f"max_body_bytes must be >= 1, got {self.max_body_bytes}")
        if not self.metrics_namespace.replace("_", "").isalnum():
            raise ValueError(
                "metrics_namespace must be alphanumeric/underscore, got "
                f"{self.metrics_namespace!r}"
            )

    def with_options(self, **kwargs) -> "GatewayConfig":
        """Return a copy of this config with the given fields replaced."""
        return replace(self, **kwargs)


ABLATION_STAGE_NAMES = (
    "TM-base",
    "+TQ",
    "+Tiling",
    "+Perm.",
    "+Tuning",
    "T-MAC",
    "TM+FA",
)


def ablation_stages(bits: int = 4, g: int = 4) -> "list[TMACConfig]":
    """Build the cumulative optimization stages of the Figure 10 ablation.

    Stage order follows the paper: ``TM-base`` (hardware LUT intrinsics only,
    no memory optimization), then cumulatively table quantization, tiling,
    permutation, tuning, interleaving (= full T-MAC), and finally optional
    fast aggregation (TM+FA).
    """
    base = TMACConfig(
        bits=bits,
        g=g,
        mirror_consolidation=True,
        table_quantization=False,
        fast_aggregation=False,
        tiling=False,
        permute_weights=False,
        interleave_weights=False,
        tuned=False,
        name="TM-base",
    )
    stages = [base]
    stages.append(stages[-1].with_options(table_quantization=True, name="+TQ"))
    stages.append(stages[-1].with_options(tiling=True, name="+Tiling"))
    stages.append(stages[-1].with_options(permute_weights=True, name="+Perm."))
    stages.append(stages[-1].with_options(tuned=True, name="+Tuning"))
    stages.append(stages[-1].with_options(interleave_weights=True, name="T-MAC"))
    stages.append(stages[-1].with_options(fast_aggregation=True, name="TM+FA"))
    return stages
