"""Optional compiled row assembly for the chunk formatters.

Decimal-formatting the id / tail / head columns through ``tolist()`` +
``map(str)`` + ``join`` was the biggest single stage of a CSV export
(``chunks.format_s`` in ``python3 -m bench``).  When a system C
compiler is present this module compiles one re-entrant loop (via
:mod:`repro.core.ccompile` — the same zero-install contract as the
matching and attribute kernels) that writes ``[start+i] SEP col0[i]
SEP col1[i] ... TERM`` rows straight into one preallocated byte
buffer.  The loop holds no state and ``ctypes`` releases the GIL
around it, so handler threads and pool workers share one library.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..core.ccompile import ckernels_disabled, load_once  # noqa: F401

__all__ = ["load_text_ckernel", "format_rows"]

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

static const char PAIRS[] = "@PAIRS@";

/* Decimal digits of v at p; returns one past the last byte. */
static inline char *put_u64(char *p, uint64_t v)
{
    char tmp[20], *t = tmp + 20;
    for (; v >= 100; v /= 100) {
        t -= 2;
        memcpy(t, PAIRS + 2 * (v % 100), 2);
    }
    if (v >= 10) {
        t -= 2;
        memcpy(t, PAIRS + 2 * v, 2);
    } else {
        *--t = (char)('0' + v);
    }
    memcpy(p, t, tmp + 20 - t);
    return p + (tmp + 20 - t);
}

/* kinds[c]: 0 = int64, 1 = uint64, 2 = bool (one byte), 3 = text:
   cols[c] is a cursor into n '\n'-terminated fields.  start < 0 means
   "no id column".  Returns the number of bytes written. */
int64_t format_rows(
    int64_t n, int64_t start, int32_t ncols,
    const void **cols, const int32_t *kinds,
    char sep, const char *term, char *out)
{
    char *p = out;
    size_t term_len = strlen(term);
    for (int64_t i = 0; i < n; ++i) {
        if (start >= 0) p = put_u64(p, (uint64_t)(start + i));
        for (int32_t c = 0; c < ncols; ++c) {
            if (c || start >= 0) *p++ = sep;
            if (kinds[c] == 3) {
                const char *field = cols[c];
                size_t len = strchr(field, '\n') - field;
                memcpy(p, field, len);
                p += len;
                cols[c] = field + len + 1;
            } else if (kinds[c] == 2) {
                int truth = ((const uint8_t *)cols[c])[i] != 0;
                memcpy(p, truth ? "True" : "False", 5 - truth);
                p += 5 - truth;
            } else if (kinds[c] == 1) {
                p = put_u64(p, ((const uint64_t *)cols[c])[i]);
            } else {
                int64_t v = ((const int64_t *)cols[c])[i];
                if (v < 0) *p++ = '-';
                p = put_u64(p, v < 0 ? 0 - (uint64_t)v : (uint64_t)v);
            }
        }
        memcpy(p, term, term_len);
        p += term_len;
    }
    return p - out;
}
""".replace("@PAIRS@", "".join(f"{i:02d}" for i in range(100)))

#: dtype kind -> (kernel kind code, dtype the kernel reads).
_KIND = {"i": (0, np.int64), "u": (1, np.uint64), "b": (2, np.bool_)}
#: Widest value text by itemsize: sign included, ``False`` for 1.
_INT_WIDTH = {1: 5, 2: 6, 4: 11, 8: 20}


def _declared(lib):
    lib.format_rows.restype = ctypes.c_int64
    lib.format_rows.argtypes = [
        ctypes.c_int64, ctypes.c_int64, ctypes.c_int32,
        ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_int32),
        ctypes.c_char, ctypes.c_char_p, ctypes.c_void_p,
    ]
    return lib


#: ``load_text_ckernel()``: the compiled library, or ``None`` when
#: unavailable (one attempt per process; the Python formatters take
#: over silently).
load_text_ckernel = load_once(_SOURCE, "textkernel", _declared)


def format_rows(start, columns, sep, term, forbidden=""):
    """Rows of ``[start+i] SEP col0[i] SEP ... TERM`` as ``str``.

    A column is a 1-d integer or bool ndarray (``str(int)`` /
    ``str(bool)`` spellings) or a list of ``str`` fields copied as
    they are; ``start=None`` omits the id column.  ``None`` — the
    caller then assembles the chunk in Python — when no kernel loads,
    a column is anything else, or a field contains a line feed, a NUL
    or one of the ``forbidden`` characters (the caller's quoting
    triggers).
    """
    lib = load_text_ckernel()
    n = len(columns[0])
    if lib is None or (
            start is not None and not 0 <= start <= 2 ** 63 - 1 - n):
        return None
    # Upper bound on the output: dtype widths, so no value overflows.
    size = n * (len(columns) + len(term))
    if start is not None:
        size += n * len(str(start + n - 1))
    buffers, pointers, kinds = [], [], []  # buffers: keeps them alive
    for column in columns:
        if isinstance(column, list):
            blob = "\n".join(column) + "\n"
            if blob.count("\n") != n or any(
                    c in blob for c in forbidden + "\0"):
                return None
            try:
                data = blob.encode("utf-8")
            except UnicodeEncodeError:
                return None
            size += len(data)
            buffers.append(data)
            pointers.append(ctypes.cast(
                ctypes.c_char_p(data), ctypes.c_void_p).value)
            kinds.append(3)
        elif (isinstance(column, np.ndarray) and column.ndim == 1
                and len(column) == n and column.dtype.kind in _KIND):
            kind, wide = _KIND[column.dtype.kind]
            size += n * _INT_WIDTH[column.dtype.itemsize]
            # Zero-copy for the contiguous native int64 columns edge
            # tables hold; narrower / strided / byte-swapped ones widen.
            buffers.append(np.ascontiguousarray(column, dtype=wide))
            pointers.append(buffers[-1].ctypes.data)
            kinds.append(kind)
        else:
            return None
    out = np.empty(size, dtype=np.uint8)
    written = lib.format_rows(
        n, -1 if start is None else start, len(kinds),
        (ctypes.c_void_p * len(kinds))(*pointers),
        (ctypes.c_int32 * len(kinds))(*kinds),
        sep.encode(), term.encode(), out.ctypes.data,
    )
    return str(memoryview(out)[:written], "utf-8")
