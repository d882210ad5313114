"""Optional compiled row assembly for the chunk formatters.

Decimal-formatting the id / tail / head columns through ``tolist()`` +
``map(str)`` + ``join`` was the biggest single stage of a CSV export
(``chunks.format_s`` in ``python3 -m bench``).  When a system C
compiler is present this module compiles one re-entrant loop (via
:mod:`repro.core.ccompile` — the same zero-install contract as the
matching and attribute kernels) that writes ``[start+i] SEP col0[i]
SEP col1[i] ... TERM`` rows straight into one preallocated byte
buffer, string columns straight from a
:class:`~repro.tables.StringColumn`'s blob with ``csv.writer``'s
QUOTE_MINIMAL quoting.  The loop holds no state and ``ctypes``
releases the GIL around it, so handler threads and pool workers share
one library.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..core.ccompile import ckernels_disabled, load_once  # noqa: F401
from ..tables.strings import StringColumn

__all__ = ["load_text_ckernel", "format_rows"]

_SOURCE = r"""
#include <stdint.h>
#include <string.h>

#if __BYTE_ORDER__ != __ORDER_LITTLE_ENDIAN__
#error "the digit stores assume a little-endian host"
#endif

/* The 8 decimal digits of x < 10**8 as ASCII, the first in the low
   byte: both halves of x / 10**4 split into pairs, then into digits,
   in parallel lanes of one word (SWAR; multiply-shifts stand in for
   the divisions by 100 and 10, exact for these ranges). */
static inline uint64_t eight_digits(uint64_t x)
{
    uint64_t quads = x / 10000 | (x % 10000) << 32;
    uint64_t pairs = (quads * 10486 >> 20) & 0x0000007F0000007FULL;
    pairs |= (quads - 100 * pairs) << 16;
    uint64_t tens = (pairs * 103 >> 10) & 0x000F000F000F000FULL;
    return tens | (pairs - 10 * tens) << 8 | 0x3030303030303030ULL;
}

/* Decimal digits of v at p; returns one past the last byte.  Each
   8-digit group is one 8-byte store: the leading group's zeros are
   shifted out, so it stores up to 7 bytes past its end. */
static inline char *put_u64(char *p, uint64_t v)
{
    uint64_t low[2], groups = 0;
    for (; v >= 100000000; v /= 100000000)
        low[groups++] = v % 100000000;
    uint64_t w = eight_digits(v);
    int zeros = __builtin_ctzll((w - 0x3030303030303030ULL) | 1ULL << 56) / 8;
    w >>= 8 * zeros;
    memcpy(p, &w, 8);
    p += 8 - zeros;
    while (groups) {
        w = eight_digits(low[--groups]);
        memcpy(p, &w, 8);
        p += 8;
    }
    return p;
}

/* A string column: entry k < entries is bytes offsets[k]..offsets[k
   + 1] of blob; row i is entry codes[i], or entry i when codes is
   NULL. */
typedef struct {
    const int64_t *offsets;
    const char *blob;
    const int32_t *codes;
    int64_t entries;
} strings_t;

/* One field, quoted as csv.writer's QUOTE_MINIMAL quotes it: when it
   holds a byte marked in quote[] (sep, '"', '\r', '\n'), with every
   '"' doubled. */
static inline char *put_field(char *p, const char *f, int64_t len,
                              const char *quote)
{
    int64_t j = 0;
    for (; j < len && !quote[(unsigned char)f[j]]; ++j)
        p[j] = f[j];
    if (j == len) return p + len;
    *p++ = '"';
    for (j = 0; j < len; ++j) {
        if (f[j] == '"') *p++ = '"';
        *p++ = f[j];
    }
    *p++ = '"';
    return p;
}

/* kinds[c]: 0 = int64, 1 = uint64, 2 = bool (one byte), 3 = string:
   cols[c] is a strings_t.  start < 0 means "no id column"; the id
   column is decimal text counted up in place, one 24-byte store a
   row.  Returns the number of bytes written; out holds 24 bytes more
   than that can be (the longest store past the last byte). */
int64_t format_rows(
    int64_t n, int64_t start, int32_t ncols,
    const void **cols, const int32_t *kinds,
    char sep, const char *term, char *out)
{
    char *p = out, quote[256] = {0}, plain[ncols > 0 ? ncols : 1];
    char id[32] = {0};
    int id_len = start >= 0 ? (int)(put_u64(id, start) - id) : 0;
    size_t term_len = strlen(term);
    quote[(unsigned char)sep] = quote['"'] = quote['\r'] = quote['\n'] = 1;
    /* A column whose entries hold no quote trigger at all (memchr
       over its bytes) copies every field without scanning it. */
    for (int32_t c = 0; c < ncols; ++c) {
        const strings_t *s = cols[c];
        const char *b = kinds[c] == 3 ? s->blob + s->offsets[0] : 0;
        size_t len = b ? s->offsets[s->entries] - s->offsets[0] : 0;
        plain[c] = b && !memchr(b, sep, len) && !memchr(b, '"', len)
                   && !memchr(b, '\r', len) && !memchr(b, '\n', len);
    }
    for (int64_t i = 0; i < n; ++i) {
        if (start >= 0) {
            memcpy(p, id, 24);
            p += id_len;
            int j = id_len - 1;
            for (; j >= 0 && id[j] == '9'; --j) id[j] = '0';
            if (j >= 0) ++id[j];
            else id[0] = '1', id[id_len++] = '0';
        }
        for (int32_t c = 0; c < ncols; ++c) {
            if (c || start >= 0) *p++ = sep;
            if (kinds[c] == 3) {
                const strings_t *s = cols[c];
                int64_t k = s->codes ? s->codes[i] : i;
                const char *f = s->blob + s->offsets[k];
                int64_t len = s->offsets[k + 1] - s->offsets[k];
                if (plain[c]) {
                    memcpy(p, f, len);
                    p += len;
                } else {
                    p = put_field(p, f, len, quote);
                }
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
"""

#: dtype kind -> (kernel kind code, dtype the kernel reads).
_KIND = {"i": (0, np.int64), "u": (1, np.uint64), "b": (2, np.bool_)}
#: Widest value text by itemsize: sign included, ``False`` for 1.
_INT_WIDTH = {1: 5, 2: 6, 4: 11, 8: 20}


#: ``load_text_ckernel()``: the compiled library, or ``None`` when
#: unavailable (one attempt per process; the Python formatters take
#: over silently).
load_text_ckernel = load_once(_SOURCE, "textkernel")


def _string_column(column, buffers):
    """``(strings_t pointer, most bytes its fields can take)``."""
    if column.codes is not None and column.entries > len(column):
        column = column.compact()  # a gather: scan its rows' bytes only
    offsets = np.ascontiguousarray(column.offsets, dtype=np.int64)
    blob = np.ascontiguousarray(column.blob, dtype=np.uint8)
    if column.codes is None:
        codes, data = None, int(offsets[-1] - offsets[0])
    else:
        codes = np.ascontiguousarray(column.codes, dtype=np.int32)
        data = int(np.diff(offsets)[codes].sum())
    strings = (ctypes.c_void_p * 4)(  # a strings_t
        offsets.ctypes.data, blob.ctypes.data,
        None if codes is None else codes.ctypes.data, offsets.size - 1)
    buffers += [offsets, blob, codes, strings]
    # Quoting at most doubles a field and adds its two quotes.
    return ctypes.addressof(strings), 2 * data + 2 * len(column)


def _arguments(start, columns, term):
    """``(size, pointers, kinds, buffers)`` for the kernel's rows, or
    ``None`` when it cannot format a column or an id: ``size`` is the
    output buffer the rows can never overrun, ``pointers`` and
    ``kinds`` are the kernel's ``cols`` and ``kinds`` arrays, and
    ``buffers`` keeps what ``pointers`` point into alive."""
    n = len(columns[0])
    if start is not None and not 0 <= start <= 2 ** 63 - 1 - n:
        return None
    # Dtype widths bound every value; 24 bytes cover the widest store
    # the loop makes past its last byte.
    size = n * (len(columns) + len(term)) + 24
    if start is not None:
        size += n * len(str(start + n - 1))
    buffers, pointers, kinds = [], [], []
    for column in columns:
        if isinstance(column, StringColumn) and len(column) == n:
            pointer, most = _string_column(column, buffers)
            size += most
            pointers.append(pointer)
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
    pointers = (ctypes.c_void_p * len(pointers))(*pointers)
    return size, pointers, np.array(kinds, dtype=np.int32), buffers


def format_rows(start, columns, sep, term):
    """Rows of ``[start+i] SEP col0[i] SEP ... TERM`` as ``str``.

    A column is a 1-d integer or bool ndarray (``str(int)`` /
    ``str(bool)`` spellings) or a
    :class:`~repro.tables.StringColumn`, its fields quoted as
    ``csv.writer``'s QUOTE_MINIMAL quotes them with delimiter ``sep``
    (a row's only field, empty, is not quoted); ``start=None`` omits
    the id column.  ``None`` — the caller then assembles the chunk in
    Python — when no kernel loads or a column is anything else; a
    ``UnicodeDecodeError`` when a string is not UTF-8.
    """
    lib = load_text_ckernel()
    arguments = None if lib is None else _arguments(start, columns, term)
    if arguments is None:
        return None
    size, pointers, kinds, _buffers = arguments
    out = np.empty(size, dtype=np.uint8)
    written = lib.format_rows(
        len(columns[0]), -1 if start is None else start, kinds.size,
        pointers, kinds, sep.encode(), term.encode(), out,
    )
    return str(memoryview(out)[:written], "utf-8")
