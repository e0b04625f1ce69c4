"""T-MAC LUT backend (with optional fast aggregation, the "+FA" rows)."""

from __future__ import annotations

import os
from typing import Optional

import numpy as np

from repro.backends.base import Backend, LinearOperator, pick_group_size
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.core.plan import get_plan
from repro.quant.bitnet import quantize_bitnet
from repro.quant.uniform import quantize_weights

__all__ = ["TMACBackend"]


class TMACBackend(Backend):
    """T-MAC backend: quantize weights, LUT-based kernel.

    Kernel plans are obtained through the process-wide plan cache
    (:func:`repro.core.plan.get_plan`), so binding the same weights twice —
    e.g. rebuilding a model, or running the sequential and batched serving
    paths over one checkpoint — pays offline preprocessing once.
    """

    name = "T-MAC"

    def __init__(self, bits: int = 4, group_size: int = 128,
                 config: Optional[TMACConfig] = None, bitnet: bool = False,
                 fast_aggregation: bool = False,
                 executor: Optional[str] = None,
                 num_threads: Optional[int] = None, **_ignored):
        self.bits = bits
        self.group_size = group_size
        explicit_config = config is not None
        if fast_aggregation:
            # Applies whether or not an explicit config was passed — the
            # "tmac-fa" registry entry must never silently run exact
            # aggregation.
            config = (config or TMACConfig(bits=bits)).with_options(
                fast_aggregation=True)
        if executor is not None or num_threads is not None:
            # Execution-layer knobs: get_backend("tmac", executor="parallel",
            # num_threads=4) switches every kernel this backend builds to the
            # multi-core executor, which the serving engine's batched decode
            # path then picks up transparently.  A num_threads override
            # implies the parallel executor only when the caller did not
            # choose an executor through any channel: the kwarg, an
            # explicitly supplied config, or the REPRO_EXECUTOR environment
            # override.
            config = config or TMACConfig(bits=bits)
            executor_chosen = explicit_config or "REPRO_EXECUTOR" in os.environ
            overrides = {}
            if executor is not None:
                overrides["executor"] = executor
            elif (not executor_chosen and num_threads is not None
                  and config.executor != "parallel"):
                overrides["executor"] = "parallel"
            if num_threads is not None:
                overrides["num_threads"] = num_threads
            config = config.with_options(**overrides)
        self.config = config
        self.bitnet = bitnet
        if config is not None and config.fast_aggregation:
            self.name = "T-MAC (+FA)"

    def make_linear(self, weight: np.ndarray, name: str = "linear") -> LinearOperator:
        w = np.asarray(weight, dtype=np.float32)
        group = pick_group_size(w.shape[1], self.group_size)
        if self.bitnet:
            qw = quantize_bitnet(w, group_size=group)
        else:
            qw = quantize_weights(w, bits=self.bits, group_size=group)
        config = self.config or TMACConfig(bits=qw.bits)
        if config.bits != qw.bits:
            config = config.with_options(bits=qw.bits)
        kernel = TMACKernel.from_plan(get_plan(qw, config), config)

        def forward(x: np.ndarray) -> np.ndarray:
            return kernel.matmul(x)

        return LinearOperator(
            name=name,
            out_features=w.shape[0],
            in_features=w.shape[1],
            forward=forward,
            engine_name=self.name,
            weight_bytes=qw.memory_bytes(),
            kernel=kernel,
        )
