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

The C prototype is the one declaration of an entry point: :func:`bind`
reads every exported (non-``static``) function of the embedded text
and types it from :data:`_CTYPES`, so a pointer to numbers accepts only
a C-contiguous ndarray of its dtype and a wrong array is a
``ctypes.ArgumentError`` in Python, never a stray read in C.

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
import re
import shutil
import subprocess
import tempfile
from pathlib import Path

import numpy as np

__all__ = ["bind", "compile_cached", "ckernels_disabled", "load_once"]


_array = functools.partial(np.ctypeslib.ndpointer, flags="C_CONTIGUOUS")

#: C type, its tokens joined by single spaces -> ctypes type.  A
#: ``const T`` that is not listed reads as ``T``; only ``const char *``
#: (a NUL-terminated ``bytes``) differs from its unqualified pointer
#: (a writable uint8 buffer).
_CTYPES = {
    "void": None,
    "char": ctypes.c_char,
    "int32_t": ctypes.c_int32,
    "int64_t": ctypes.c_int64,
    "uint64_t": ctypes.c_uint64,
    "const char *": ctypes.c_char_p,
    "char *": _array(np.uint8),
    "int32_t *": _array(np.int32),
    "int64_t *": _array(np.int64),
    "uint64_t *": _array(np.uint64),
    "double *": _array(np.float64),
    "void * *": ctypes.POINTER(ctypes.c_void_p),
}
_COMMENT = re.compile(r"/\*.*?\*/|//[^\n]*", re.S)
#: A definition at the start of a line that is not ``static``.
_EXPORTED = re.compile(
    r"^(?!static\b)(\w+)\s+(\w+)\s*\(([^)]*)\)\s*\{", re.M
)


def _ctype(tokens, function):
    spelling = " ".join(tokens)
    for key in (spelling, spelling.removeprefix("const ")):
        if key in _CTYPES:
            return _CTYPES[key]
    raise TypeError(f"{function}: no ctypes type for C type {spelling!r}")


def bind(lib, source):
    """Type every exported function of ``lib`` from its prototype in
    the C ``source`` it was compiled from; returns ``lib``.

    Raises ``TypeError`` naming the function when a parameter or
    return type is not in :data:`_CTYPES` (:func:`load_once` then
    falls back).
    """
    text = _COMMENT.sub(" ", source)
    for returns, name, params in _EXPORTED.findall(text):
        restype = _ctype([returns], name)
        argtypes = [
            _ctype(re.findall(r"\w+|\*", param)[:-1], name)
            for param in params.split(",")
        ]
        function = getattr(lib, name)
        function.restype, function.argtypes = restype, argtypes
    return lib


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


def load_once(source, prefix, wrap=lambda lib: lib):
    """The process-wide loader of one embedded kernel.

    Returns a zero-argument function answering ``None`` — the fallback
    path takes over silently — while ``REPRO_NO_CKERNEL`` is set, and
    otherwise ``wrap(lib)`` for ``source`` compiled by
    :func:`compile_cached` and typed by :func:`bind`.  The compile
    attempt is memoised, failure included (no compiler, no private
    cache directory, anything raising: ``None`` for good);
    ``.cache_clear()`` forgets it.
    """
    @functools.cache
    def compiled():
        try:
            lib = compile_cached(source, prefix)
            return None if lib is None else wrap(bind(lib, source))
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
