"""The T-MAC mpGEMM/mpGEMV kernel (Algorithm 1, online stage).

:class:`TMACKernel` binds an offline :class:`~repro.core.plan.KernelPlan`
(preprocessed weights, tile plan, bit-serial transform — built once,
content-addressed and cacheable) to an online *executor*
(:mod:`repro.core.executor`) and executes mixed-precision matrix
multiplication as

1. **Precompute** — build the per-activation-group lookup tables
   (:func:`repro.core.lut.precompute_lut`), with mirror consolidation and
   table quantization as configured.
2. **Lookup** — for every weight bit plane, gather the precomputed partial
   sums addressed by the ``g``-bit weight indices.
3. **Aggregate** — sum the looked-up values along the reduction axis, either
   exactly or with the lossy fast 8-bit aggregation.
4. **Bit-serial aggregation** — recombine the per-bit results with powers of
   two and the activation row-sum correction, then apply the weight
   quantization scales and zero points.

Steps 2-4 live in the executor: the default ``"vectorized"`` executor runs
them as batched numpy operations across all quantization groups and bit
planes at once; the ``"loop"`` executor keeps the seed implementation's
explicit per-group/per-bit loops as a numerical reference (select it with
``TMACConfig(executor="loop")``).

The kernel is a faithful numerical implementation: its output differs from
``A @ dequantize(W)^T`` only by the error sources the paper quantifies
(table quantization and, when enabled, fast aggregation).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.config import TMACConfig
from repro.core.executor import KernelExecutor, get_executor
from repro.core.lut import LookupTable
from repro.core.plan import KernelPlan, build_plan
from repro.core.tiling import TileConfig
from repro.quant.uniform import QuantizedWeight

__all__ = ["TMACKernel"]


class TMACKernel:
    """LUT-based mixed-precision GEMM kernel bound to one weight matrix.

    Parameters
    ----------
    qweight:
        The quantized weight matrix (codes + per-group scales/zeros).
        Ignored when ``plan`` is given.
    config:
        Kernel configuration.  ``config.bits`` must equal the weight bit
        width.  ``config.executor`` selects the online executor.
    tile_config:
        Optional explicit tile configuration (otherwise taken from the
        config or defaulted).
    plan:
        An already-built (typically cached) :class:`KernelPlan` to bind
        instead of running offline preprocessing — the path used by the
        plan cache (:func:`repro.core.plan.get_plan`), the T-MAC backend
        and the serving engine.

    Examples
    --------
    >>> import numpy as np
    >>> from repro import TMACConfig, TMACKernel, quantize_weights
    >>> rng = np.random.default_rng(0)
    >>> w = rng.standard_normal((64, 128)).astype(np.float32)
    >>> qw = quantize_weights(w, bits=4, group_size=32)
    >>> kernel = TMACKernel(qw, TMACConfig(bits=4))
    >>> a = rng.standard_normal((1, 128)).astype(np.float32)
    >>> out = kernel.matmul(a)
    >>> out.shape
    (1, 64)
    """

    def __init__(
        self,
        qweight: Optional[QuantizedWeight] = None,
        config: Optional[TMACConfig] = None,
        tile_config: Optional[TileConfig] = None,
        plan: Optional[KernelPlan] = None,
    ):
        if plan is None:
            if qweight is None:
                raise ValueError("either qweight or plan must be provided")
            self.config = config or TMACConfig(bits=qweight.bits)
            if self.config.bits != qweight.bits:
                raise ValueError(
                    f"config.bits={self.config.bits} != qweight.bits={qweight.bits}"
                )
            plan = build_plan(qweight, self.config, tile_config)
        else:
            self.config = config or plan.config
            if tile_config is not None and (
                tile_config.m_tm, tile_config.k_tk
            ) != (plan.weights.tile_config.m_tm, plan.weights.tile_config.k_tk):
                raise ValueError(
                    f"tile_config [{tile_config.m_tm}, {tile_config.k_tk}] "
                    f"conflicts with the plan's "
                    f"[{plan.weights.tile_config.m_tm}, "
                    f"{plan.weights.tile_config.k_tk}]"
                )
            if self.config.bits != plan.bits:
                raise ValueError(
                    f"config.bits={self.config.bits} != plan.bits={plan.bits}"
                )
            if not plan.compatible_with(self.config):
                raise ValueError(
                    "plan layout is incompatible with the given config "
                    "(bits/g/s0/s1/tiling must match)"
                )
        self.plan = plan
        self.executor: KernelExecutor = get_executor(self.config.executor)

    @classmethod
    def from_plan(
        cls, plan: KernelPlan, config: Optional[TMACConfig] = None
    ) -> "TMACKernel":
        """Bind a (cached) plan without re-running offline preprocessing."""
        return cls(plan=plan, config=config)

    # ------------------------------------------------------------------ #
    # Shape properties
    # ------------------------------------------------------------------ #

    @property
    def weights(self):
        """The preprocessed weight operand (offline artifacts)."""
        return self.plan.weights

    @property
    def transform(self):
        """The bit-serial transform of the plan."""
        return self.plan.transform

    @property
    def out_features(self) -> int:
        """M — rows of the weight matrix / output width."""
        return self.plan.out_features

    @property
    def in_features(self) -> int:
        """K — reduction dimension."""
        return self.plan.in_features

    @property
    def bits(self) -> int:
        """Weight bit width."""
        return self.config.bits

    # ------------------------------------------------------------------ #
    # Online stage
    # ------------------------------------------------------------------ #

    def precompute(self, activation: np.ndarray) -> LookupTable:
        """Build the lookup tables for an activation matrix (online stage)."""
        a = self._check_activation(activation)
        return self.plan.precompute(a, self.config)

    def matmul(self, activation: np.ndarray) -> np.ndarray:
        """Compute ``activation @ W_dequantized^T`` without dequantizing W.

        Parameters
        ----------
        activation:
            ``[N, K]`` (or ``[K]``) high-precision activation matrix.

        Returns
        -------
        np.ndarray
            ``[N, M]`` float32 result (``[M]`` if the input was 1-D).
        """
        a = np.asarray(activation, dtype=np.float32)
        squeeze = a.ndim == 1
        if squeeze:
            a = a[None, :]
        table = self.precompute(a)  # validates the shape, once
        out = self.executor.matmul_with_table(self.plan, table, self.config, a)
        return out[0] if squeeze else out

    __call__ = matmul

    def matmul_with_table(
        self, activation: np.ndarray, table: LookupTable
    ) -> np.ndarray:
        """mpGEMM against an externally precomputed lookup table.

        The table depends only on the activation (and the LUT configuration),
        *not* on the weights — so one table can be shared by several kernels
        consuming the same input (e.g. the q/k/v projections of an attention
        block).  The serving engine's batched step builds each operator's
        table itself and passes it here.  A table built for a different
        activation shape or LUT configuration is rejected.
        """
        a = self._check_activation(activation)
        squeeze = np.asarray(activation).ndim == 1
        self._check_table(table, a)
        out = self.executor.matmul_with_table(self.plan, table, self.config, a)
        return out[0] if squeeze else out

    def matmul_codes(self, activation: np.ndarray) -> np.ndarray:
        """Compute ``activation @ codes^T`` (integer-code GEMM, no scales).

        Used by unit tests to verify the bit-serial + LUT pipeline against
        a plain integer matrix multiplication, independent of quantization
        scales.
        """
        a = self._check_activation(activation)
        table = self.precompute(a)
        group_sums = a.reshape(a.shape[0], self.plan.num_qgroups, -1).sum(axis=2)
        total = np.zeros((a.shape[0], self.out_features), dtype=np.float64)
        for _, _, chunk in self.executor.iter_codes_dot(
            self.plan, table, self.config, group_sums
        ):
            total += chunk.sum(axis=-1)
        return total

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _check_table(self, table: LookupTable, activation: np.ndarray) -> None:
        """Reject externally supplied tables this kernel cannot consume."""
        cfg = self.config
        if table.g != cfg.g:
            raise ValueError(f"table g={table.g} does not match config g={cfg.g}")
        if table.num_groups != self.plan.num_groups:
            raise ValueError(
                f"table covers {table.num_groups} groups but the weights "
                f"need {self.plan.num_groups} (K={self.in_features}, g={cfg.g})"
            )
        if table.num_rows != activation.shape[0]:
            raise ValueError(
                f"table was built for {table.num_rows} activation rows, "
                f"got {activation.shape[0]}"
            )
        if table.mirrored != cfg.mirror_consolidation:
            raise ValueError(
                f"table mirrored={table.mirrored} does not match "
                f"config.mirror_consolidation={cfg.mirror_consolidation}"
            )
        if table.quantized != cfg.table_quantization:
            raise ValueError(
                f"table quantized={table.quantized} does not match "
                f"config.table_quantization={cfg.table_quantization}"
            )
        if table.quantized and table.scale_block != self.plan.scale_block(cfg):
            raise ValueError(
                f"table scale_block={table.scale_block} does not match the "
                f"kernel's {self.plan.scale_block(cfg)}"
            )
        if table.s0 is not None and (table.s0, table.s1) != (cfg.s0, cfg.s1):
            raise ValueError(
                f"table was built with transform ({table.s0}, {table.s1}), "
                f"kernel uses ({cfg.s0}, {cfg.s1})"
            )
        if table.act_dtype is not None and table.act_dtype != cfg.act_dtype:
            raise ValueError(
                f"table act_dtype={table.act_dtype!r} does not match "
                f"config.act_dtype={cfg.act_dtype!r}"
            )

    def _check_activation(self, activation: np.ndarray) -> np.ndarray:
        a = np.asarray(activation, dtype=np.float32)
        if a.ndim == 1:
            a = a[None, :]
        if a.ndim != 2:
            raise ValueError(
                f"activation must be 1-D or 2-D, got shape {np.asarray(activation).shape}"
            )
        if a.shape[1] != self.in_features:
            raise ValueError(
                f"activation K={a.shape[1]} does not match weight K={self.in_features}"
            )
        return a
