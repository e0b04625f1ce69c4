"""The integer LUT kernel's native phase: ``tlut.c``, built on first use.

The first process that needs it compiles ``tlut.c`` with the host ``cc``
(``-O2 -fPIC -shared -ffp-contract=off``) into a per-host cache,
``~/.cache/repro``, falling back to ``repro-cache-<uid>`` in the temp
directory.  Loading a shared object runs its constructors, so a cache
directory or file is used only when this user owns it and no one else
can write it.  The file name is a hash of the source, the flags and the
compiler version, and the file is published atomically (a private temp
file, then ``os.replace``), so concurrent builds leave one complete
file.  A cached file that does not load is rebuilt.  The library is
loaded with :mod:`ctypes`, which releases the GIL for the whole call.

The lookup is AVX2 only.  When there is no compiler, the build or the
load fails, or the CPU lacks AVX2, :func:`status` records why and
:func:`backend` returns ``None``: the kernel keeps its numpy integer
phase.  Command line::

    python -m repro.core.native [--require-native]

prints the path a kernel would take (``avx2`` / ``numpy``), the reason
and the cache file; ``--require-native`` exits 1 on ``numpy``.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import os
import shutil
import stat
import subprocess
import tempfile
import threading
from contextlib import contextmanager
from typing import List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

__all__ = ["Status", "Backend", "backend", "status", "build", "force",
           "cache_dirs"]

SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "tlut.c")
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off")


class BuildError(RuntimeError):
    """The shared object could not be built."""


class Status(NamedTuple):
    """The path kernels take, why, and the shared object behind it."""

    path: str  # "avx2" | "numpy"
    reason: str
    library: Optional[str]


class Backend:
    """The loaded library on a CPU that runs it."""

    path = "avx2"

    def __init__(self, lib: ctypes.CDLL):
        self._block_sums = lib.tlut_block_sums

    def block_sums(self, nibbles: np.ndarray, values: np.ndarray, gpq: int,
                   m0: int, m1: int, dtype) -> np.ndarray:
        """``S[bit, qg, n, m - m0]``: ``tlut_block_sums`` over ``[m0, m1)``
        of the frozen nibble layout and a C-contiguous int8 table
        ``values[n, j, stored]``, in ``dtype`` (int16 or int32)."""
        bits, groups, row_bytes = nibbles.shape
        rows, table_groups, stored = values.shape
        out = np.empty((bits, groups // gpq, rows, m1 - m0), dtype=dtype)
        # The C code trusts every pointer and extent: check them here.
        if (nibbles.dtype != np.uint8 or values.dtype != np.int8
                or not nibbles.flags.c_contiguous
                or not values.flags.c_contiguous
                or out.itemsize not in (2, 4) or table_groups != groups
                or stored not in (8, 16) or groups % gpq
                or not 0 <= m0 < m1 <= 2 * row_bytes):
            raise ValueError(
                f"tlut_block_sums: bad operands nibbles {nibbles.dtype}"
                f"{nibbles.shape}, table {values.dtype}{values.shape}, "
                f"gpq={gpq}, span [{m0}, {m1}), out {out.dtype}")
        ran = self._block_sums(
            nibbles.ctypes.data, bits, groups, row_bytes, values.ctypes.data,
            rows, stored, gpq, m0, m1, out.ctypes.data,
            int(out.itemsize == 4))
        if ran < 0:  # -1 out of memory, -2 no AVX2 on this CPU
            raise RuntimeError(f"tlut_block_sums failed ({ran})")
        return out


def cache_dirs() -> List[str]:
    """Where the shared object is cached, in order of preference."""
    return [os.path.join(os.path.expanduser("~"), ".cache", "repro"),
            os.path.join(tempfile.gettempdir(), f"repro-cache-{os.getuid()}")]


def _check_private(path: str) -> None:
    """Raise ``OSError`` unless this user owns ``path`` (not a symlink)
    and neither group nor others can write it."""
    info = os.lstat(path)
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        raise OSError(f"{path}: owned by uid {info.st_uid} with mode "
                      f"{stat.filemode(info.st_mode)}, not private to uid "
                      f"{os.getuid()}")


def _compiler() -> Tuple[str, str]:
    """``(cc, first line of cc --version)``."""
    cc = shutil.which("cc")
    if cc is None:
        raise BuildError("no C compiler (cc) on PATH")
    proc = subprocess.run([cc, "--version"], capture_output=True, text=True,
                          timeout=60)
    lines = proc.stdout.splitlines()
    if proc.returncode or not lines:
        raise BuildError(f"{cc} --version failed")
    return cc, lines[0]


def _bind(path: str) -> ctypes.CDLL:
    lib = ctypes.CDLL(path)
    fn = lib.tlut_block_sums
    ptr, i64, c_int = ctypes.c_void_p, ctypes.c_int64, ctypes.c_int
    fn.argtypes = [ptr, i64, i64, i64, ptr, i64, i64, i64, i64, i64, ptr,
                   c_int]
    fn.restype = c_int
    lib.tlut_supported.argtypes = []
    lib.tlut_supported.restype = c_int
    return lib


def build(cache_dir: str) -> str:
    """The loadable shared object in ``cache_dir``, compiled if missing or
    corrupt; returns its path.  Raises ``OSError`` when ``cache_dir`` is
    not private to this user."""
    cc, version = _compiler()
    digest = hashlib.sha256()
    with open(SOURCE, "rb") as fh:
        digest.update(fh.read())
    digest.update("\0".join((*FLAGS, version)).encode())
    path = os.path.join(cache_dir, f"tlut-{digest.hexdigest()[:16]}.so")
    os.makedirs(cache_dir, mode=0o700, exist_ok=True)
    _check_private(cache_dir)
    if os.path.exists(path):
        try:
            _check_private(path)
            _bind(path)
            return path
        except (OSError, AttributeError):
            pass  # corrupt, truncated or not private: rebuild it
    fd, tmp = tempfile.mkstemp(prefix=".tlut-", suffix=".so", dir=cache_dir)
    os.close(fd)
    try:
        proc = subprocess.run([cc, *FLAGS, SOURCE, "-o", tmp],
                              capture_output=True, text=True, timeout=300)
        if proc.returncode:
            raise BuildError(f"{version} failed: {proc.stderr.strip()[-400:]}")
        os.chmod(tmp, 0o700)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    return path


def _load() -> Tuple[Optional[Backend], Status]:
    errors = []
    for directory in cache_dirs():
        try:
            path = build(directory)
            lib = _bind(path)
        except BuildError as exc:
            return None, Status("numpy", str(exc), None)
        except (OSError, AttributeError, subprocess.SubprocessError) as exc:
            errors.append(f"{directory}: {exc}")
            continue
        if not lib.tlut_supported():
            return None, Status("numpy", "this CPU lacks AVX2", path)
        return Backend(lib), Status(Backend.path, "loaded", path)
    return None, Status("numpy", "; ".join(errors), None)


_LOCK = threading.Lock()
#: ``(Backend or None, Status)`` once the first caller has loaded it.
_STATE: Optional[Tuple[Optional[Backend], Status]] = None
#: Test hook (:func:`force`): the path kernels compiled now take.
_FORCED: Optional[str] = None


def _state() -> Tuple[Optional[Backend], Status]:
    global _STATE
    with _LOCK:
        if _STATE is None:
            _STATE = _load()
        return _STATE


def status() -> Status:
    """The path kernels take on this host (building the library if this is
    the first use) and the reason."""
    return _state()[1]


def backend() -> Optional[Backend]:
    """The native integer phase, or ``None`` for the numpy fallback."""
    if _FORCED == "numpy":
        return None
    return _state()[0]


@contextmanager
def force(path: str):
    """Test hook: kernels compiled inside take ``path`` (``"avx2"``, the
    host's path when it builds the library, or ``"numpy"``)."""
    global _FORCED
    if path not in (Backend.path, "numpy"):
        raise ValueError(f"unknown path {path!r}")
    previous, _FORCED = _FORCED, path
    try:
        yield
    finally:
        _FORCED = previous


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: report the path, the reason and the cache file."""
    parser = argparse.ArgumentParser(
        description="Build (if needed) and report the native LUT kernel")
    parser.add_argument("--require-native", action="store_true",
                        help="exit 1 when kernels would run the numpy path")
    args = parser.parse_args(argv)
    path, reason, library = status()
    print(f"path: {path}\nreason: {reason}\ncache: {library or '-'}")
    return 1 if args.require_native and path == "numpy" else 0


if __name__ == "__main__":
    raise SystemExit(main())
