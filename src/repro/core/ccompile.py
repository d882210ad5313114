"""Shared compile-and-cache helper for optional C inner loops.

Five units embed a C hot loop and call it through ``ctypes``: the
streaming-placement matcher (``core/matching/_ckernel.py``), the
attribute-generation kernels (``properties/_ckernel.py``), the export
row formatter (``io/_ckernel.py``), the stream permutation
(``prng/_ckernel.py``) and the stub-pairing loops of the configuration
model and LFR (``structure/_ckernel.py``, which includes the PRNG
unit's C text).  All follow the same zero-install
contract — compile with the system ``cc`` on first use into a per-user
cache, and fall back to numpy / Python silently on any failure — so the
machinery lives here once.

Environment knobs (shared by every embedded kernel):

``REPRO_NO_CKERNEL=1``
    the one switch to the numpy / Python twins of every kernel.  Each
    loader reads it per call — set or cleared in a running process, it
    holds from the next call; only the compile attempt is memoised.
``CC``
    overrides the compiler.
``REPRO_CKERNEL_CACHE``
    sets the shared-object cache directory (default: a per-user
    directory under the system temp dir).

The cache holds code this process will ``dlopen``: it is created
``0o700`` and refused (no kernel; callers fall back) when another user
owns it or group/others may write to it.

Threads: a kernel keeps no mutable static state, writes only to its
caller's buffers and runs without the interpreter lock (``ctypes.CDLL``),
so concurrent calls, as an overlapped run makes, return sequential results.
"""

from __future__ import annotations

import ctypes
import fcntl
import functools
import getpass
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

__all__ = ["compile_cached", "ckernels_disabled", "load_once"]


def ckernels_disabled():
    """True when the user opted out of compiled kernels."""
    return bool(os.environ.get("REPRO_NO_CKERNEL"))


def _cache_dir():
    configured = os.environ.get("REPRO_CKERNEL_CACHE")
    if configured:
        return Path(configured)
    try:
        user = getpass.getuser()
    except Exception:  # pragma: no cover - exotic hosts
        user = "anon"
    return Path(tempfile.gettempdir()) / f"repro-ckernel-{user}"


def compile_cached(source, prefix):
    """Compile C ``source`` to a cached shared object; return the CDLL.

    The cache key is a hash of the source, so editing the embedded C
    transparently recompiles.  Returns ``None`` when no compiler is on
    PATH or the cache directory is not private to this user; raises
    on compile errors (callers catch and fall back).
    """
    compiler = (
        os.environ.get("CC")
        or shutil.which("cc")
        or shutil.which("gcc")
        or shutil.which("clang")
    )
    if not compiler:
        return None
    digest = hashlib.sha256(source.encode()).hexdigest()[:16]
    cache = _cache_dir()
    cache.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = cache.stat()
    if info.st_uid != os.getuid() or info.st_mode & 0o022:
        return None
    so_path = cache / f"{prefix}-{digest}.so"
    if not so_path.exists():
        # Workers forked onto a cold cache queue here; the first one
        # compiles, the rest find the shared object.
        with open(cache / f"{prefix}-{digest}.lock", "w") as lock:
            fcntl.flock(lock, fcntl.LOCK_EX)
            if not so_path.exists():
                _compile(compiler, source, so_path)
    return ctypes.CDLL(str(so_path))


def load_once(source, prefix, wrap):
    """The process-wide loader of one embedded kernel.

    Returns a zero-argument function answering ``None`` — the fallback
    path takes over silently — while ``REPRO_NO_CKERNEL`` is set, and
    otherwise ``wrap(lib)`` for ``source`` compiled by
    :func:`compile_cached`.  The compile attempt is memoised, failure
    included (no compiler, no private cache directory, anything
    raising: ``None`` for good); ``.cache_clear()`` forgets it.
    """
    @functools.cache
    def compiled():
        try:
            lib = compile_cached(source, prefix)
            return None if lib is None else wrap(lib)
        except Exception:
            return None

    def load():
        return None if ckernels_disabled() else compiled()

    load.cache_clear = compiled.cache_clear
    return load


def _compile(compiler, source, so_path):
    """Build ``so_path`` beside its source, atomically (tmp + rename)."""
    src_path = so_path.with_suffix(".c")
    src_path.write_text(source)
    fd, tmp_so = tempfile.mkstemp(
        suffix=".so", prefix=so_path.stem, dir=so_path.parent
    )
    os.close(fd)
    try:
        subprocess.run(
            [compiler, "-O2", "-shared", "-fPIC",
             "-o", tmp_so, str(src_path)],
            check=True, capture_output=True, timeout=120,
        )
        os.replace(tmp_so, so_path)
    finally:
        if os.path.exists(tmp_so):
            os.unlink(tmp_so)
