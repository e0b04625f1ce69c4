"""Regression tests for the frozen-plan invariant (found by repro_lint).

``preprocess_weights`` used to publish writable arrays; a stray in-place
write anywhere downstream would have silently corrupted results (and, for
the process executor, desynced the content-addressed shared-memory
segments from the plan bytes).  Every published artifact is now
``setflags(write=False)``-frozen, so such a write raises immediately
instead.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.core.plan import build_plan
from repro.core.weights import preprocess_weights
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_weights


def make_plan(bits=4):
    qw = quantize_weights(gaussian_weights(32, 128, seed=21), bits=bits,
                          group_size=32)
    config = TMACConfig(bits=bits)
    return build_plan(qw, config), config


class TestPreprocessedWeightsFrozen:
    def test_every_array_is_read_only(self, small_qweight):
        pw = preprocess_weights(small_qweight, TMACConfig(bits=4))
        arrays = [pw.packed, pw.scales_t, pw.sz_t]
        assert arrays
        for arr in arrays:
            assert not arr.flags.writeable

    def test_write_attempts_raise(self, small_qweight):
        pw = preprocess_weights(small_qweight, TMACConfig(bits=4))
        with pytest.raises(ValueError):
            pw.scales_t[0, 0] = 1.0
        with pytest.raises(ValueError):
            pw.packed[0, 0, 0] = 3


class TestIntegerKernelFrozen:
    def test_default_matmul_publishes_only_frozen_integer_artifacts(
            self, requires_native):
        """The default config compiles the native integer LUT kernel: the
        arrays it holds (the plan's nibble blocks, scales and scale*zero
        products, no copy of its own) are read-only."""
        plan, config = make_plan()
        kernel = TMACKernel.from_plan(plan, config)
        activation = np.random.default_rng(5).standard_normal(
            (3, 128)).astype(np.float32)
        table = kernel.precompute(activation)
        kernel.matmul_with_table(activation, table)

        compiled = plan._integer_kernel
        assert compiled.nibbles is plan.weights.packed
        for arr in (compiled.nibbles, compiled.scales_t, compiled.sz_t):
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            compiled.nibbles[0, 0, 0] = 1
