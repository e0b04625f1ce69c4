"""Vectorized-vs-loop executor parity and speed on the paper's shapes.

Covers the Figure 6 mpGEMV shapes (S0-S5, N=1 — the decode regime) and the
Figure 7 mpGEMM regime (N=256) on the paper's weight shapes:

* **Parity** — the vectorized executor must be *bit-identical* to the seed
  loop executor (same float path: both accumulate the same elementwise
  operations in the same order, only batched).
* **Speed** — on the fig6 mpGEMV shapes the vectorized executor must beat
  the loop path wall-clock (min over repetitions).
* **Thread-pool parity** — the parallel executor must be bit-identical to
  the serial vectorized executor on every shape at 1/2/4 threads.

Every test needs the native library: without it each executor runs the
loop oracle, and the module would compare the oracle with itself.

Weights use synthetic random codes (uniform over the bit range, Gaussian
scales): kernel parity is a property of the code path, not of how codes
were produced, and skipping real quantization keeps the full-size shapes
affordable.  The N=256 sweep runs full-size on S0 and at a reduced row
count on the remaining shapes — the executors are row-independent, so the
batched-activation path is exercised on every shape while keeping the
suite's runtime sane.
"""

from __future__ import annotations

import functools
import time

import numpy as np
import pytest

from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.core.plan import build_plan
from repro.quant.uniform import QuantizedWeight
from repro.workloads.shapes import KERNEL_SHAPES

THREAD_COUNTS = (1, 2, 4)

#: Bit width exercised per shape — covers every width the paper evaluates
#: while keeping one (shape, bits) build per shape.
SHAPE_BITS = {"S0": 4, "S1": 2, "S2": 3, "S3": 1, "S4": 2, "S5": 4}

pytestmark = pytest.mark.usefixtures("requires_native")


def synthetic_qweight(m: int, k: int, bits: int, group_size: int = 128,
                      seed: int = 0) -> QuantizedWeight:
    """Random low-bit codes with Gaussian scales (no quantization pass)."""
    rng = np.random.default_rng(seed)
    codes = rng.integers(0, 1 << bits, size=(m, k), dtype=np.uint8)
    num_groups = k // group_size
    scales = np.abs(rng.standard_normal((m, num_groups))).astype(np.float32)
    scales += np.float32(1e-3)
    zeros = np.full((m, num_groups), ((1 << bits) - 1) / 2.0, dtype=np.float32)
    return QuantizedWeight(codes=codes, scales=scales, zeros=zeros,
                           bits=bits, group_size=group_size)


@functools.lru_cache(maxsize=None)
def _plan(label: str, m: int, k: int, bits: int):
    # Deterministic seed (hash() is salted per process; the recorded
    # benchmark inputs must be reproducible across runs).
    qw = synthetic_qweight(m, k, bits, seed=int(label[1:]) + 1)
    return build_plan(qw, TMACConfig(bits=bits))


def _kernels(shape, bits):
    plan = _plan(shape.label, shape.m, shape.k, bits)
    # Pinned explicitly so the "vectorized" column stays the serial
    # executor even when REPRO_EXECUTOR changes the process default.
    vec = TMACKernel.from_plan(plan, TMACConfig(bits=bits,
                                                executor="vectorized"))
    loop = TMACKernel.from_plan(plan, TMACConfig(bits=bits, executor="loop"))
    return vec, loop


def _best_seconds(fn, reps: int = 3) -> float:
    best = float("inf")
    for _ in range(reps):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


@pytest.fixture(scope="module")
def record_table_rows(record_table, record_bench):
    """Accumulate per-shape timing rows; persist them when the module ends."""
    rows = []
    yield rows
    if rows:
        record_table(
            "executor_parity",
            "Vectorized vs loop executor (fig6 mpGEMV shapes)",
            ["shape", "MxK", "bits", "vectorized (ms)", "loop (ms)",
             "speedup"],
            rows,
        )
        record_bench(
            "executor_parity",
            [
                {
                    "series": "fig6 mpGEMV", "shape": row[0],
                    "mxk": row[1], "bits": row[2],
                    "vectorized_ms": float(row[3]), "loop_ms": float(row[4]),
                    "speedup": float(row[5].rstrip("x")),
                }
                for row in rows
            ],
            params={"shape_bits": SHAPE_BITS},
            metrics={
                "min_vectorized_speedup":
                    min(float(row[5].rstrip("x")) for row in rows),
                "max_vectorized_speedup":
                    max(float(row[5].rstrip("x")) for row in rows),
            },
        )


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: s.label)
def test_fig6_gemv_parity_and_speed(shape, record_table_rows):
    """N=1 (decode): bit-identical results, vectorized strictly faster."""
    bits = SHAPE_BITS[shape.label]
    vec, loop = _kernels(shape, bits)
    rng = np.random.default_rng(1)
    activation = rng.standard_normal((1, shape.k)).astype(np.float32)

    out_vec = vec.matmul(activation)
    out_loop = loop.matmul(activation)
    np.testing.assert_array_equal(out_vec, out_loop)

    t_vec = _best_seconds(lambda: vec.matmul(activation))
    t_loop = _best_seconds(lambda: loop.matmul(activation))
    record_table_rows.append(
        [shape.label, f"{shape.m}x{shape.k}", bits,
         f"{t_vec * 1e3:.1f}", f"{t_loop * 1e3:.1f}",
         f"{t_loop / t_vec:.2f}x"]
    )
    assert t_vec < t_loop, (
        f"vectorized executor ({t_vec * 1e3:.1f} ms) is not faster than "
        f"the loop path ({t_loop * 1e3:.1f} ms) on {shape.label}"
    )


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: s.label)
def test_fig7_gemm_parity(shape):
    """Batched activations (prefill regime): bit-identical results.

    S0 runs the full Figure 7 sequence length (N=256); the other shapes run
    the same chunked batched-gather code path at N=8 (the executors are
    row-independent, and the full-size sweep would dominate the suite's
    runtime).  Bit width 1 keeps the full-size S0 run affordable; the other
    widths are covered at N=1 by the fig6 sweep and at small scale by the
    unit tests.
    """
    n = 256 if shape.label == "S0" else 8
    vec, loop = _kernels(shape, 1)
    rng = np.random.default_rng(2)
    activation = rng.standard_normal((n, shape.k)).astype(np.float32)
    np.testing.assert_array_equal(vec.matmul(activation),
                                  loop.matmul(activation))


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: s.label)
def test_fig6_thread_pool_parity(shape):
    """N=1 (decode): the thread pool is bit-identical at 1/2/4 threads.

    ``parallel_threshold=0`` forces sharding even for calls the
    amortization heuristic would normally run serially — this is a
    correctness sweep, not a performance one.
    """
    bits = SHAPE_BITS[shape.label]
    vec, _ = _kernels(shape, bits)
    rng = np.random.default_rng(3)
    activation = rng.standard_normal((1, shape.k)).astype(np.float32)
    expected = vec.matmul(activation)
    for threads in THREAD_COUNTS:
        pooled = TMACKernel.from_plan(
            vec.plan, TMACConfig(bits=bits, executor="parallel",
                                 num_threads=threads, parallel_threshold=0))
        np.testing.assert_array_equal(expected, pooled.matmul(activation))


@pytest.mark.parametrize("shape", KERNEL_SHAPES, ids=lambda s: s.label)
def test_fig7_thread_pool_parity(shape):
    """Batched activations (prefill regime): thread-pool bit-identity.

    Same row-count policy as the loop-vs-vectorized fig7 sweep: S0 at the
    full Figure 7 N=256, the remaining shapes at N=8.
    """
    n = 256 if shape.label == "S0" else 8
    vec, _ = _kernels(shape, 1)
    rng = np.random.default_rng(4)
    activation = rng.standard_normal((n, shape.k)).astype(np.float32)
    expected = vec.matmul(activation)
    for threads in THREAD_COUNTS[1:]:
        pooled = TMACKernel.from_plan(
            vec.plan, TMACConfig(bits=1, executor="parallel",
                                 num_threads=threads, parallel_threshold=0))
        np.testing.assert_array_equal(expected, pooled.matmul(activation))
