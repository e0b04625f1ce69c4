"""Backend base classes: the uniform mpGEMM execution interface.

A :class:`Backend` turns a full-precision weight matrix into a callable
:class:`LinearOperator` (numeric backends) and/or estimates kernel latency
on a modeled device (cost-model backends).  Every execution path in the
repository — the transformer substrate (:mod:`repro.llm`), the serving
engine (:mod:`repro.serving`), examples and benchmarks — obtains backends
through the registry (:mod:`repro.backends.registry`) so new kernels plug in
by registration instead of by editing call sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np

__all__ = ["LinearOperator", "Backend", "pick_group_size"]


def pick_group_size(in_features: int, requested: int, minimum: int = 4) -> int:
    """Largest group size <= ``requested`` that divides ``in_features``.

    Small test models have reduction dimensions that the default 128-wide
    quantization group does not divide; shrinking the group (by halving)
    keeps the per-group quantization semantics intact.
    """
    if in_features < minimum:
        raise ValueError(
            f"in_features={in_features} is smaller than the minimum group "
            f"size {minimum}"
        )
    group = min(requested, in_features)
    while group > minimum and in_features % group != 0:
        group //= 2
    if in_features % group != 0:
        raise ValueError(
            f"cannot find a group size <= {requested} dividing K={in_features}"
        )
    return max(group, minimum)


@dataclass
class LinearOperator:
    """A bound linear layer: ``y = forward(x)`` with bookkeeping for stats.

    ``kernel`` optionally exposes the underlying kernel object (e.g. a
    :class:`~repro.core.kernel.TMACKernel`) so layers above can inspect
    it — the serving engine counts lookup-table builds by it, the
    benchmark harness traces its entry points.
    """

    name: str
    out_features: int
    in_features: int
    forward: Callable[[np.ndarray], np.ndarray]
    engine_name: str
    weight_bytes: int
    kernel: Optional[Any] = None

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Backend:
    """Base class for mpGEMM backends.

    Numeric backends implement :meth:`make_linear`, turning an fp weight
    matrix ``[M, K]`` into a :class:`LinearOperator`.  Cost-model backends
    (BLAS, GPU, NPU) implement :meth:`estimate_latency` instead; their
    ``kind`` is ``"cost-model"`` and calling :meth:`make_linear` raises.
    """

    name = "base"
    kind = "numeric"

    def make_linear(self, weight: np.ndarray, name: str = "linear") -> LinearOperator:
        """Bind a weight matrix to this backend."""
        raise NotImplementedError(
            f"backend {self.name!r} ({self.kind}) does not execute numerically"
        )

    def estimate_latency(self, device, n: int, m: int, k: int, bits: int,
                         **kwargs):
        """Modeled latency of ``[N,K] x [M,K]^T`` on a device (cost models)."""
        raise NotImplementedError(
            f"backend {self.name!r} ({self.kind}) has no latency cost model"
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"
