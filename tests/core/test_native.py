"""The native library's loader: build, cache, fallback, frozen layout.

Oracle parity of the native AVX2 phase lives in the kernel property of
``tests/properties/test_property_core.py``, and the offline pass's
bit-identity to numpy in ``test_property_quant.py``; these tests cover
how the shared object is found, built and published, which cache a
process trusts, and what a kernel (the loop oracle) and the offline stage
(numpy) do without it.
"""

from __future__ import annotations

import os
import threading

import numpy as np
import pytest

from repro.analysis.sanitizer import PlanCanaryRegistry, PlanMutationError
from repro.core import native
from repro.core.config import TMACConfig
from repro.core.kernel import TMACKernel
from repro.core.plan import build_plan
from repro.core.specialize import NativeLutKernel
from repro.core.weights import preprocess_weights
from repro.quant.uniform import quantize_weights
from repro.workloads.generator import gaussian_activation, gaussian_weights


def require_native():
    status = native.status()
    if status.path == "numpy":
        pytest.skip(f"native kernel unavailable: {status.reason}")


def fresh_loader(tmp_path, monkeypatch):
    """Reset the loader to an empty cache directory of its own."""
    directory = tmp_path / "cache"
    monkeypatch.setattr(native, "_STATE", None)
    monkeypatch.setattr(native, "cache_dirs", lambda: [str(directory)])
    return directory


@pytest.fixture
def cache(tmp_path, monkeypatch):
    return fresh_loader(tmp_path, monkeypatch)


@pytest.fixture
def native_cache(tmp_path, monkeypatch):
    """Like ``cache``, on hosts that build the library (checked against
    the real loader, before the reset)."""
    require_native()
    return fresh_loader(tmp_path, monkeypatch)


def compiled_kernel(bits=4):
    """A fresh plan's compiled integer kernel (``None`` without the
    library), its output and the oracle's."""
    qw = quantize_weights(gaussian_weights(70, 128, seed=3), bits=bits,
                          group_size=32)
    config = TMACConfig(bits=bits)
    plan = build_plan(qw, config)
    a = gaussian_activation(3, 128, seed=4)
    out = TMACKernel.from_plan(plan, config).matmul(a)
    oracle = TMACKernel.from_plan(
        plan, config.with_options(executor="loop")).matmul(a)
    compiled = plan.specialized()
    return plan, compiled, out, oracle


def test_no_compiler_runs_the_oracle_and_records_why(cache, tmp_path,
                                                      monkeypatch):
    monkeypatch.setenv("PATH", str(tmp_path / "empty"))
    status = native.status()
    assert status.path == "numpy"
    assert "no C compiler" in status.reason
    assert status.library is None
    plan, compiled, out, oracle = compiled_kernel()
    assert compiled is None and plan._integer_kernel is None
    np.testing.assert_array_equal(out, oracle)
    assert not cache.exists()


def test_corrupt_cached_library_is_rebuilt(native_cache):
    # Built but not loaded: this process never maps the file it corrupts.
    path = native.build(str(native_cache))
    with open(path, "wb") as fh:
        fh.write(b"not a shared object")
    status = native.status()
    assert status.path != "numpy"
    assert status.library == path
    assert os.path.getsize(path) > 1000
    _, compiled, out, oracle = compiled_kernel()
    assert isinstance(compiled, NativeLutKernel)
    np.testing.assert_array_equal(out, oracle)


def test_concurrent_builds_publish_one_file(native_cache):
    start = threading.Barrier(2)
    paths = []

    def build():
        start.wait()
        paths.append(native.build(str(native_cache)))

    threads = [threading.Thread(target=build) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert len(paths) == 2 and paths[0] == paths[1]
    assert os.listdir(native_cache) == [os.path.basename(paths[0])]
    assert native.status().library == paths[0]


def test_cache_dir_writable_by_others_is_not_used(native_cache, tmp_path,
                                                  monkeypatch):
    shared = tmp_path / "shared"
    shared.mkdir()
    shared.chmod(0o777)
    with pytest.raises(OSError, match="not private"):
        native.build(str(shared))
    assert not os.listdir(shared)
    monkeypatch.setattr(native, "cache_dirs",
                        lambda: [str(shared), str(native_cache)])
    status = native.status()
    assert status.path != "numpy"
    assert os.path.dirname(status.library) == str(native_cache)


def test_cache_dir_owned_by_another_user_is_not_used(native_cache,
                                                     monkeypatch):
    native_cache.mkdir(mode=0o700)
    monkeypatch.setattr(native.os, "getuid", lambda: os.geteuid() + 1)
    with pytest.raises(OSError, match="not private"):
        native.build(str(native_cache))
    status = native.status()
    assert status.path == "numpy" and "not private" in status.reason
    assert not os.listdir(native_cache)


def test_cached_library_writable_by_others_is_rebuilt(native_cache):
    path = native.build(str(native_cache))
    os.chmod(path, 0o666)
    replaced = os.stat(path).st_ino
    assert native.build(str(native_cache)) == path
    info = os.stat(path)
    assert info.st_ino != replaced
    assert not info.st_mode & 0o022


def test_zero_row_table_gives_an_empty_span(requires_native):
    qw = quantize_weights(gaussian_weights(70, 128, seed=3), bits=4,
                          group_size=32)
    config = TMACConfig(bits=4)
    a = np.zeros((0, 128), dtype=np.float32)
    kernel = TMACKernel.from_plan(build_plan(qw, config), config)
    table = kernel.precompute(a)
    compiled = kernel.plan.specialized()
    assert compiled.path == native.status().path
    assert compiled.recombine_span(
        table, np.zeros((0, 4)), 5, 70, 1 << 24).shape == (0, 65)


def test_nibbles_are_frozen_and_canaried():
    require_native()
    plan, compiled, out, oracle = compiled_kernel()
    assert isinstance(compiled, NativeLutKernel)
    np.testing.assert_array_equal(out, oracle)
    # The kernel reads the plan's stored array: no copy at compile.
    assert compiled.nibbles is plan.weights.packed
    assert not compiled.nibbles.flags.writeable
    with pytest.raises(ValueError):
        compiled.nibbles[0, 0, 0] = 1
    registry = PlanCanaryRegistry()
    with pytest.raises(PlanMutationError, match="weights.packed"):
        with registry.canary(plan):
            compiled.nibbles.setflags(write=True)
            compiled.nibbles[0, 0, 0] ^= 1


def test_cli_reports_the_path(capsys):
    status = native.status()
    code = native.main(["--require-native"])
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == f"path: {status.path}"
    assert lines[2] == f"cache: {status.library or '-'}"
    symbols = ["loop oracle", "numpy", "numpy"] if status.path == "numpy" \
        else ["tlut_block_sums", "tlut_quantize", "tlut_pack"]
    assert lines[3:] == [f"{name}: {symbol}" for name, symbol in
                         zip(("lookup", "quantize", "pack"), symbols)]
    assert code == (status.path == "numpy")


def test_library_missing_an_entry_point_is_not_used(native_cache,
                                                    monkeypatch, capsys):
    monkeypatch.setitem(native.ENTRY_POINTS, "pack",
                        ("tlut_missing", [], native._INT))
    status = native.status()
    assert status.path == "numpy" and "tlut_missing" in status.reason
    assert native.backend() is None
    assert native.main(["--require-native"]) == 1
    report = capsys.readouterr().out
    assert "lookup: loop oracle" in report and "pack: numpy" in report


@pytest.fixture
def offline_calls(monkeypatch):
    """Counts of the native offline entry points' calls."""
    require_native()
    calls = {"quantize": 0, "pack": 0}
    for name in calls:
        method = getattr(native.Backend, name)

        def counted(self, *args, _name=name, _method=method):
            calls[_name] += 1
            return _method(self, *args)

        monkeypatch.setattr(native.Backend, name, counted)
    return calls


def test_offline_stage_takes_the_native_pass(offline_calls):
    qw = quantize_weights(gaussian_weights(40, 64, seed=5), bits=3,
                          group_size=16)
    preprocess_weights(qw, TMACConfig(bits=3))
    assert offline_calls == {"quantize": 1, "pack": 1}


def test_offline_stage_falls_back_to_numpy(offline_calls):
    w = gaussian_weights(40, 64, seed=5)
    with native.force("numpy"):
        qw = quantize_weights(w, bits=3, group_size=16)
        preprocess_weights(qw, TMACConfig(bits=3))
    # Asymmetric, mse and g != 4 have no native pass.
    quantize_weights(w, bits=3, group_size=16, symmetric=False)
    quantize_weights(w, bits=3, group_size=16, method="mse")
    preprocess_weights(qw, TMACConfig(bits=3, g=2))
    assert offline_calls == {"quantize": 0, "pack": 0}
