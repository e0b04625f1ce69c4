"""The compiled integer kernel: bit-exactness, cache behaviour, lifetimes.

Integer-key tables (group-granularity quantized tables with exact
aggregation — the default config) run the native kernel compiled behind
``plan.specialized()`` where the library loads; every other table mode
(the ablations), and every call on a host without the library or under
``native.force("numpy")``, runs the loop oracle.  Oracle parity of the
native kernel over its whole shape space lives in
``tests/properties/test_property_core.py``.  Tests that need a compiled
kernel take the ``requires_native`` fixture.

The compiled kernel lives on the plan, so the properties that matter are
the plan cache's, one level down: exactly one compile per plan no matter
how many executor threads race into a cold dispatch, eviction of a plan
releasing its compiled kernel (nothing pinning the weight arrays), and —
above all — bit-identical results to the loop oracle for every table mode
under the serial and the thread-sharded executor.
"""

import gc
import threading
import time
import weakref
from concurrent.futures import wait

import numpy as np
import pytest

import repro.core.specialize as spec_mod
from repro.core import native
from repro.core.bitserial import decompose_bits
from repro.core.config import TMACConfig
from repro.core.executor import get_executor, get_worker_pool
from repro.core.kernel import TMACKernel
from repro.core.plan import PlanCache, build_plan
from repro.core.specialize import (
    NativeLutKernel,
    compile_specialized,
    integer_key,
    maybe_specialized,
    reset_specialize_stats,
    specialize_stats,
)
from repro.core.weights import group_bits
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights

HAMMER_THREADS = 8


def make_kernel(bits=4, m=64, k=128, group_size=32, seed=0, **config_kwargs):
    qw = quantize_weights(gaussian_weights(m, k, seed=seed), bits=bits,
                          group_size=group_size)
    config_kwargs.setdefault("executor", "vectorized")
    config = TMACConfig(bits=bits, **config_kwargs)
    return TMACKernel(qw, config)


def activations(n=3, k=128, seed=7):
    return gaussian_activation(n, k, seed=seed)


def loop_oracle(kernel, a):
    return TMACKernel.from_plan(
        kernel.plan, kernel.config.with_options(executor="loop")).matmul(a)


# --------------------------------------------------------------------- #
# Bit-exact parity with the loop oracle
# --------------------------------------------------------------------- #


TABLE_MODES = {
    "unquantized": dict(table_quantization=False),
    "quantized_group": dict(table_quantization=True),
    "quantized_fine": dict(table_quantization=True,
                           lut_scale_granularity="fine"),
    "fast_aggregation": dict(table_quantization=True, fast_aggregation=True),
    "unmirrored": dict(mirror_consolidation=False),
    "unmirrored_float": dict(mirror_consolidation=False,
                             table_quantization=False),
}
INTEGER_MODES = ("quantized_group", "unmirrored")


@pytest.mark.parametrize("mode", sorted(TABLE_MODES))
@pytest.mark.parametrize("executor", ["vectorized", "parallel"])
def test_every_table_mode_matches_loop_oracle(mode, executor):
    """Integer keys (on the host's kernel and forced to the oracle) and the
    ablation modes are ``np.array_equal`` to the loop oracle, serial and
    sharded."""
    options = dict(TABLE_MODES[mode], executor=executor)
    if executor == "parallel":
        options.update(num_threads=3, parallel_threshold=0)
    qw = quantize_weights(gaussian_weights(128, 128, seed=5), bits=4,
                          group_size=32)
    config = TMACConfig(bits=4, **options)
    a = activations()
    expected = TMACKernel(qw, config.with_options(executor="loop")).matmul(a)
    assert integer_key(TMACKernel(qw, config).precompute(a), config) == (
        mode in INTEGER_MODES)
    for path in sorted({native.status().path, "numpy"}):
        # A fresh plan per path: the compiled kernel is cached on it.
        kernel = TMACKernel.from_plan(build_plan(qw, config), config)
        with native.force(path):
            np.testing.assert_array_equal(kernel.matmul(a), expected)


def integer_paths():
    """The paths an integer key can take here: the host's own and the
    forced oracle."""
    return sorted({native.status().path, "numpy"})


@pytest.mark.parametrize("bits", [1, 2, 3, 4])
@pytest.mark.parametrize("group_size", [32, 64])
def test_specialized_parity_across_bit_widths(bits, group_size):
    """The compiled integer kernel matches the loop oracle at every bit
    width the paper evaluates; forced to the oracle, a plan compiles
    nothing."""
    qw = quantize_weights(gaussian_weights(64, 128, seed=bits), bits=bits,
                          group_size=group_size)
    config = TMACConfig(bits=bits, executor="vectorized")
    a = activations(seed=bits + 20)
    expected = TMACKernel(qw, config.with_options(executor="loop")).matmul(a)
    for path in integer_paths():
        kernel = TMACKernel.from_plan(build_plan(qw, config), config)
        with native.force(path):
            np.testing.assert_array_equal(kernel.matmul(a), expected)
        assert (kernel.plan._integer_kernel is not None) == (
            path != "numpy")


ABLATION_MODES = ("unquantized", "quantized_fine", "fast_aggregation")


@pytest.mark.parametrize("mode", ABLATION_MODES)
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_ablation_modes_run_the_oracle_across_bit_widths(mode, bits):
    """Every table mode the integer kernel declines runs the loop oracle
    and compiles nothing, at every bit width."""
    kernel = make_kernel(bits=bits, seed=bits + 30, **TABLE_MODES[mode])
    a = activations(seed=bits + 40)
    assert not integer_key(kernel.precompute(a), kernel.config)
    np.testing.assert_array_equal(kernel.matmul(a), loop_oracle(kernel, a))
    assert kernel.plan._integer_kernel is None


def test_only_integer_keys_restrict_the_output_span(requires_native):
    """Column spans are the integer kernel's: on an ablation mode the
    vectorized executor runs the oracle, which walks the full width only —
    why the thread pool shards integer keys alone."""
    a = activations()
    for mode in ("quantized_group", "unquantized"):
        kernel = make_kernel(m=64, **TABLE_MODES[mode])
        plan, table = kernel.plan, kernel.precompute(a)
        group_sums = a.reshape(a.shape[0], plan.num_qgroups, -1).sum(axis=2)
        span = kernel.executor.iter_codes_dot_span(
            plan, table, kernel.config, group_sums, 0, 32)
        if mode in INTEGER_MODES:
            assert next(span)[2].shape == (a.shape[0], 32, plan.num_qgroups)
        else:
            with pytest.raises(NotImplementedError):
                next(span)


@pytest.mark.parametrize("threads", [2, 3, 4])
def test_specialized_parity_under_pools(threads, requires_native):
    """The thread pool consumes the same compiled kernel, bit-identically."""
    serial = make_kernel(m=128, k=256)
    pooled = make_kernel(m=128, k=256, executor="parallel",
                         num_threads=threads, parallel_threshold=1)
    a = activations(n=4, k=256)
    np.testing.assert_array_equal(pooled.matmul(a), serial.matmul(a))


@pytest.mark.parametrize("executor, mode", [
    (executor, mode) for executor in ("vectorized", "parallel")
    for mode in sorted(TABLE_MODES)
    if executor == "vectorized" or mode in INTEGER_MODES])
def test_chunk_budget_does_not_change_results(mode, executor,
                                              requires_native):
    """A tiny span budget (the spans' ``max_elements``) changes no bit of
    the codes-dot chunks nor of the recombined output, on the full width
    and on the thread pool's shards (integer keys only: the pool never
    shards an ablation mode)."""
    kernel = make_kernel(m=256, executor=executor, **TABLE_MODES[mode])
    plan, config, ex = kernel.plan, kernel.config, kernel.executor
    a = activations()
    table = kernel.precompute(a)
    group_sums = a.reshape(a.shape[0], plan.num_qgroups, -1).sum(axis=2)
    width = plan.out_features
    spans = plan.output_tiles(3) if executor == "parallel" else [(0, width)]
    assert (len(spans) > 1) == (executor == "parallel")

    def codes_dot(budget, spans):
        out = np.full((a.shape[0], width, plan.num_qgroups), np.nan)
        for m0, m1 in spans:
            for qg0, qg1, chunk in ex.iter_codes_dot_span(
                    plan, table, config, group_sums, m0, m1, budget):
                out[:, m0:m1, qg0:qg1] = chunk
        return out

    def recombined(budget, spans):
        return np.concatenate([
            ex._recombine_span(plan, table, config, group_sums, m0, m1,
                               budget)
            for m0, m1 in spans], axis=1)

    np.testing.assert_array_equal(codes_dot(1 << 8, spans),
                                  codes_dot(0, [(0, width)]))
    np.testing.assert_array_equal(recombined(1 << 8, spans),
                                  recombined(0, [(0, width)]))


@pytest.mark.parametrize("executor", ["vectorized", "parallel"])
def test_executor_gather_budget_does_not_change_matmul(executor, monkeypatch):
    """A tiny executor-wide budget, split per shard by the thread pool,
    changes no bit of a matmul on the integer kernel or the oracle route."""
    from repro.core.executor import VectorizedExecutor

    a = activations()
    options = dict(executor=executor)
    if executor == "parallel":
        options.update(num_threads=3, parallel_threshold=0)
    for mode in ("quantized_group", "unquantized"):
        expected = make_kernel(m=256, **TABLE_MODES[mode]).matmul(a)
        with monkeypatch.context() as patch:
            patch.setattr(VectorizedExecutor, "max_gather_elements", 1 << 8)
            kernel = make_kernel(m=256, **TABLE_MODES[mode], **options)
            np.testing.assert_array_equal(kernel.matmul(a), expected)


# --------------------------------------------------------------------- #
# Which tables compile the kernel
# --------------------------------------------------------------------- #


def test_integer_key_requires_exact_group_granularity():
    for kwargs in (dict(lut_scale_granularity="fine"),
                   dict(fast_aggregation=True),
                   dict(table_quantization=False)):
        kernel = make_kernel(**kwargs)
        table = kernel.precompute(activations())
        assert not integer_key(table, kernel.config)
    group = make_kernel()
    table = group.precompute(activations())
    assert integer_key(table, group.config)


def test_irrelevant_flags_do_not_fork_kernels(requires_native):
    """Execution-layer flags never change which tables compile the kernel,
    nor which kernel a plan hands out."""
    kernel = make_kernel()
    a = activations()
    table = kernel.precompute(a)
    compiled = maybe_specialized(kernel.plan, table, kernel.config)
    assert compiled is not None
    for options in (dict(executor="parallel", num_threads=3),
                    dict(parallel_threshold=0)):
        config = kernel.config.with_options(**options)
        assert integer_key(table, config)
        assert maybe_specialized(kernel.plan, table, config) is compiled
    # Nor does a tiny per-call span budget.
    builds = specialize_stats()["specialize_builds"]
    group_sums = a.reshape(a.shape[0], kernel.plan.num_qgroups, -1).sum(axis=2)
    kernel.executor._recombine_span(kernel.plan, table, kernel.config,
                                    group_sums, 0, kernel.out_features,
                                    max_elements=1 << 8)
    assert maybe_specialized(kernel.plan, table, kernel.config) is compiled
    assert specialize_stats()["specialize_builds"] == builds


def test_integer_kernel_is_shared_across_mirror_settings(requires_native):
    """One compiled kernel serves mirrored and unmirrored tables: the
    native phase rebuilds the full 16-entry table per call."""
    kernel = make_kernel()
    a = activations()
    kernels = []
    for mirrored in (True, False):
        config = kernel.config.with_options(mirror_consolidation=mirrored)
        table = kernel.plan.precompute(a, config)
        kernels.append(maybe_specialized(kernel.plan, table, config))
    assert kernels[0] is not None and kernels[0] is kernels[1]


@pytest.mark.parametrize("gpq", [8, 3])
@pytest.mark.parametrize("m", [1, 16, 17, 300])
@pytest.mark.parametrize("bits", [1, 2, 3, 4])
def test_compiled_kernel_holds_one_index_per_group(bits, m, gpq):
    """An integer key answers bit-identically to the loop oracle, and the
    kernel it compiles keeps the plan's packed layout as it is: one nibble
    per weight index, each decoding back to the bits of its codes, and no
    array of its own beyond the epilogue's bit weights — a second weight
    layout would show here as resident bytes.  Without the native phase
    nothing is compiled."""
    g, qgroups = 4, 2
    k = qgroups * gpq * g
    qw = quantize_weights(gaussian_weights(m, k, seed=m + gpq), bits=bits,
                          group_size=gpq * g)
    config = TMACConfig(bits=bits, executor="vectorized")
    plan = build_plan(qw, config)
    a = activations(k=k, seed=bits)
    np.testing.assert_array_equal(
        TMACKernel.from_plan(plan, config).matmul(a),
        TMACKernel.from_plan(
            plan, config.with_options(executor="loop")).matmul(a))
    compiled = plan._integer_kernel
    if native.status().path == "numpy":
        assert compiled is None
        return
    weights = plan.weights
    assert compiled.nibbles is weights.packed
    assert weights.packed.shape == (bits, k // g, -(-m // 32) * 16)
    shared = (weights.packed, weights.scales_t, weights.sz_t)
    owned = [arr for arr in vars(compiled).values()
             if isinstance(arr, np.ndarray)
             and not any(arr is held for held in shared)]
    assert sum(arr.nbytes for arr in owned) == compiled.bit_weights.nbytes
    body = compiled.nibbles.reshape(bits, k // g, -1, 16)
    rows = np.concatenate([body & 0x0F, body >> 4], axis=3).reshape(
        bits, k // g, -1)[:, :, :m]
    for bit, plane in enumerate(decompose_bits(qw.codes, bits)):
        np.testing.assert_array_equal(rows[bit].T, group_bits(plane, g))


# --------------------------------------------------------------------- #
# Cache: single-flight builds, reuse, stats
# --------------------------------------------------------------------- #


class CountingCompiler:
    """Wraps compile_specialized, counting builds and holding the first
    one in flight long enough for every racing thread to arrive."""

    def __init__(self, delay=0.02):
        self.calls = 0
        self.lock = threading.Lock()
        self.delay = delay

    def __call__(self, plan):
        with self.lock:
            self.calls += 1
        if self.delay:
            time.sleep(self.delay)
        return compile_specialized(plan)


def test_concurrent_dispatch_compiles_exactly_once(monkeypatch,
                                                   requires_native):
    compiler = CountingCompiler()
    monkeypatch.setattr(spec_mod, "compile_specialized", compiler)
    kernel = make_kernel()

    pool = get_worker_pool(HAMMER_THREADS)
    start = threading.Barrier(HAMMER_THREADS)

    def hammer():
        start.wait()
        return kernel.plan.specialized()

    futures = [pool.submit(hammer) for _ in range(HAMMER_THREADS)]
    wait(futures)
    kernels = [future.result() for future in futures]

    assert compiler.calls == 1
    assert all(built is kernels[0] for built in kernels)
    assert isinstance(kernels[0], NativeLutKernel)


def test_concurrent_matmul_through_thread_pool_compiles_once(
        monkeypatch, requires_native):
    """End to end: racing matmuls on a cold plan share one compile."""
    compiler = CountingCompiler()
    monkeypatch.setattr(spec_mod, "compile_specialized", compiler)
    kernel = make_kernel()
    a = activations()
    expected = loop_oracle(kernel, a)

    pool = get_worker_pool(HAMMER_THREADS)
    start = threading.Barrier(HAMMER_THREADS)

    def hammer():
        start.wait()
        return kernel.matmul(a)

    futures = [pool.submit(hammer) for _ in range(HAMMER_THREADS)]
    wait(futures)
    for future in futures:
        np.testing.assert_array_equal(future.result(), expected)
    assert compiler.calls == 1


def test_generic_table_modes_compile_nothing(monkeypatch):
    compiler = CountingCompiler(delay=0)
    monkeypatch.setattr(spec_mod, "compile_specialized", compiler)
    a = activations()
    for mode in ABLATION_MODES:
        kernel = make_kernel(**TABLE_MODES[mode])
        kernel.matmul(a)
        assert kernel.plan._integer_kernel is None
    assert compiler.calls == 0


def test_distinct_plans_compile_distinct_kernels(monkeypatch,
                                                 requires_native):
    """One compile per plan: a second plan compiles its own kernel, and a
    repeat request on either plan is a cache hit."""
    compiler = CountingCompiler(delay=0)
    monkeypatch.setattr(spec_mod, "compile_specialized", compiler)
    first_plan = make_kernel(seed=1).plan
    second_plan = make_kernel(seed=2).plan
    first = first_plan.specialized()
    second = second_plan.specialized()
    assert first_plan.specialized() is first
    assert second_plan.specialized() is second
    assert first is not second
    assert compiler.calls == 2


def test_specialize_stats_counters(requires_native):
    reset_specialize_stats()
    kernel = make_kernel()
    a = activations()
    kernel.matmul(a)
    kernel.matmul(a)
    stats = specialize_stats()
    assert stats["specialize_builds"] == 1  # second call reuses the cache
    assert stats["specialize_calls"] >= 2

    reset_specialize_stats()
    generic = make_kernel(table_quantization=False)
    generic.matmul(a)
    assert specialize_stats() == {"specialize_builds": 0,
                                  "specialize_calls": 0}


def test_maybe_specialized_gates():
    kernel = make_kernel()
    table = kernel.precompute(activations())
    assert maybe_specialized(kernel.plan, table,
                             kernel.config) is kernel.plan.specialized()
    fast = kernel.config.with_options(fast_aggregation=True)
    assert maybe_specialized(kernel.plan, table, fast) is None
    fine = kernel.config.with_options(lut_scale_granularity="fine")
    fine_table = kernel.plan.precompute(activations(), fine)
    assert maybe_specialized(kernel.plan, fine_table, fine) is None


# --------------------------------------------------------------------- #
# Lifetime: eviction releases compiled kernels
# --------------------------------------------------------------------- #


def _plan_with_specialized(cache, seed):
    qw = quantize_weights(gaussian_weights(64, 128, seed=seed), bits=4,
                          group_size=32)
    config = TMACConfig(bits=4, executor="vectorized")
    plan = cache.get(qw, config)
    kernel = TMACKernel.from_plan(plan, config)
    kernel.matmul(activations())  # compiles the plan's integer kernel
    return plan, plan.specialized()


def test_plan_eviction_releases_specialized_kernels(requires_native):
    """Evicting a plan frees its compiled kernel.

    The kernel holds plan artifacts only by reference (never the plan
    itself), so the LRU dropping the plan must be enough for the whole
    object graph to be collected.
    """
    cache = PlanCache(max_entries=1)
    plan, specialized = _plan_with_specialized(cache, seed=11)
    plan_ref = weakref.ref(plan)
    spec_ref = weakref.ref(specialized)
    assert plan.specialized() is specialized  # cached

    _plan_with_specialized(cache, seed=12)  # LRU-evicts the first plan
    del plan, specialized
    gc.collect()

    assert plan_ref() is None, "evicted plan still referenced"
    assert spec_ref() is None, "specialized kernel leaked past eviction"


def test_cache_clear_releases_specialized_kernels(requires_native):
    cache = PlanCache()
    plan, specialized = _plan_with_specialized(cache, seed=13)
    plan_ref = weakref.ref(plan)
    spec_ref = weakref.ref(specialized)
    cache.clear()
    del plan, specialized
    gc.collect()
    assert plan_ref() is None
    assert spec_ref() is None


@pytest.mark.parametrize("path", ["host", "numpy"])
def test_specialized_kernel_does_not_reference_plan(path):
    """The compiled kernel must never hold the plan; forced to the oracle,
    there is no kernel to hold it."""
    config = TMACConfig(bits=4, executor="vectorized")
    plan = build_plan(
        quantize_weights(gaussian_weights(64, 128, seed=3), bits=4,
                         group_size=32),
        config,
    )
    with native.force(native.status().path if path == "host" else path):
        kernel = plan.specialized()
    if path == "numpy" or native.status().path == "numpy":
        assert kernel is None and plan._integer_kernel is None
        return
    assert type(kernel) is NativeLutKernel
    seen = {id(kernel)}
    frontier = [kernel.__dict__]
    while frontier:
        obj = frontier.pop()
        assert obj is not plan
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, dict):
            frontier.extend(obj.values())
        elif isinstance(obj, (list, tuple)):
            frontier.extend(obj)
        elif callable(obj) and getattr(obj, "__closure__", None):
            frontier.extend(cell.cell_contents for cell in obj.__closure__)


# --------------------------------------------------------------------- #
# Executor integration
# --------------------------------------------------------------------- #


def test_vectorized_executor_uses_specialized_kernel(monkeypatch,
                                                     requires_native):
    """The vectorized executor routes integer-key spans through the
    compiled kernel."""
    kernel = make_kernel()
    a = activations()
    table = kernel.precompute(a)
    compiled = kernel.plan.specialized()
    calls = []
    original = compiled.recombine_span

    def spy(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(compiled, "recombine_span", spy)
    executor = get_executor("vectorized")
    executor.matmul_with_table(kernel.plan, table, kernel.config, a)
    assert calls, "vectorized executor bypassed the specialized kernel"
