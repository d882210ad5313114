"""Optional compiled stub pairing for the configuration-model family,
R-MAT's quadrant descent, and the counting scatter behind every CSR.

``pair_stubs_with_repair`` and LFR's two loops on top of it are
sequential by construction — a round re-pairs the deficit the previous
round left, a node's community draw reads the capacities earlier nodes
consumed — and LFR calls the first once per community, so at
``n = 20 000`` the Python path is ~800 numpy round trips over
60-element arrays plus a 20 000-step Fenwick walk.  When a system C
compiler is present this module compiles the three loops into one
cached shared object (via :mod:`repro.core.ccompile` — the zero-install
contract of the other embedded kernels) on top of the C PRNG of
:mod:`repro.prng._ckernel`, included textually.  ``ctypes`` releases
the GIL around every call.

Equivalence with the Python bodies (which stay, as the fallback and as
the oracle ``tests/test_structure_kernel.py`` compares against):

* a round's ``np.unique`` first-occurrence pass followed by
  ``~np.isin(keys, seen)`` keeps a pair iff its key was never kept
  before, in stub order — one open-addressing set across rounds;
* shuffling the stub array with the permutation's swaps equals
  indexing it with the permutation;
* the three ``break`` conditions collapse to "deficit sum < 2" and
  "the round kept nothing" (a round whose pairs are all loops keeps
  nothing either);
* the Fenwick total is carried as a running sum.

The stub-pairing entry points answer ``None`` instead of a result when
the input is one the Python body rejects or an allocation fails, so
callers fall through to that body and its errors.

``csr_fill`` builds :func:`repro.tables.csr_arrays`: one pass counting
degrees, one prefix sum, one scatter in input order — a stable
counting sort, so equal to its twin's ``bincount`` + ``bucket_order``
+ gather.  With its ``both`` flag it scatters the reversed pairs as a
second half, so an undirected CSR needs no concatenated endpoints.

``rmat_descend`` is :meth:`repro.structure.rmat.RMat._descend` one
edge at a time: per level, ``uniform_at`` of the level stream's seed
(the C twin of ``RandomStream.uniform``) against the thresholds ``la``,
``la + lb`` and ``la + lb + lc``.  Python sums the thresholds exactly
as the numpy expression does, so each quadrant test is one double
comparison of the same two values in both languages; the level bits
are disjoint, so C's ``|`` equals numpy's ``+=``.
"""

from __future__ import annotations

import numpy as np

from ..core.ccompile import load_once
from ..prng._ckernel import PRNG_SOURCE

__all__ = ["load_structure_ckernel"]

_SOURCE = PRNG_SOURCE + r"""
#include <stdlib.h>
#include <string.h>

typedef struct {
    int64_t *deficit, *realised;  /* one slot per node */
    int64_t *stubs;               /* one slot per half-edge */
    uint64_t *seen;               /* key + 1 per slot, 0 = empty */
} work_t;

static void work_free(work_t *w)
{
    free(w->deficit);
    free(w->realised);
    free(w->stubs);
    free(w->seen);
}

/* Slots for a set of at most total / 2 keys at load <= 1/2. */
static uint64_t seen_slots(int64_t total)
{
    uint64_t slots = 4;
    while (slots < (uint64_t)total + 2) slots <<= 1;
    return slots;
}

static int work_alloc(work_t *w, int64_t n, int64_t total)
{
    size_t nodes = (size_t)(n > 0 ? n : 1) * sizeof(int64_t);
    w->deficit = malloc(nodes);
    w->realised = malloc(nodes);
    w->stubs = malloc((size_t)(total > 0 ? total : 1) * sizeof(int64_t));
    w->seen = malloc(seen_slots(total) * sizeof(uint64_t));
    if (w->deficit && w->realised && w->stubs && w->seen) return 1;
    work_free(w);
    return 0;
}

/* pair_stubs_with_repair over degrees[0..n): kept pairs land in out
   as (lo, hi) rows in round-then-stub order, through `relabel` when
   given; returns the row count.  `w` must be sized for n nodes and
   sum(degrees) half-edges. */
static int64_t repair(const int64_t *degrees, int64_t n, uint64_t seed,
                      int64_t rounds, work_t *w,
                      const int64_t *relabel, int64_t *out)
{
    int64_t m = 0, sum = 0;
    for (int64_t i = 0; i < n; ++i) sum += degrees[i];
    uint64_t mask = seen_slots(sum) - 1;
    memset(w->seen, 0, (mask + 1) * sizeof(uint64_t));
    memset(w->realised, 0, (size_t)n * sizeof(int64_t));
    memcpy(w->deficit, degrees, (size_t)n * sizeof(int64_t));
    for (int64_t r = 0; r < rounds; ++r) {
        int64_t total = 0, top = 0, fresh = 0;
        for (int64_t i = 0; i < n; ++i) {
            total += w->deficit[i];
            if (w->deficit[i] > w->deficit[top]) top = i;
        }
        if (total < 2) break;
        if (total & 1) {
            w->deficit[top] -= 1;
            total -= 1;
        }
        int64_t *stub = w->stubs;
        for (int64_t i = 0; i < n; ++i)
            for (int64_t d = w->deficit[i]; d > 0; --d) *stub++ = i;
        shuffle(derive_seed(seed, "repair", (uint64_t)r), total,
                w->stubs);
        for (int64_t j = 0; j < total; j += 2) {
            int64_t lo = w->stubs[j], hi = w->stubs[j + 1];
            if (lo == hi) continue;
            if (lo > hi) { int64_t t = lo; lo = hi; hi = t; }
            uint64_t key = (uint64_t)lo * (uint64_t)n + (uint64_t)hi + 1;
            uint64_t slot = mix64(key) & mask;
            while (w->seen[slot] && w->seen[slot] != key)
                slot = (slot + 1) & mask;
            if (w->seen[slot]) continue;
            w->seen[slot] = key;
            out[2 * m] = relabel ? relabel[lo] : lo;
            out[2 * m + 1] = relabel ? relabel[hi] : hi;
            ++m;
            ++fresh;
            w->realised[lo] += 1;
            w->realised[hi] += 1;
        }
        if (!fresh) break;
        for (int64_t i = 0; i < n; ++i) {
            int64_t left = degrees[i] - w->realised[i];
            w->deficit[i] = left > 0 ? left : 0;
        }
    }
    return m;
}

/* Returns the row count, or -1 when scratch cannot be allocated. */
int64_t pair_stubs_with_repair(
    const int64_t *degrees, int64_t n, uint64_t seed, int64_t rounds,
    int64_t *out)
{
    work_t w;
    int64_t sum = 0;
    for (int64_t i = 0; i < n; ++i) sum += degrees[i];
    if (!work_alloc(&w, n, sum)) return -1;
    int64_t m = repair(degrees, n, seed, rounds, &w, NULL, out);
    work_free(&w);
    return m;
}

/* CSR of the pairs src[i] -> dst[i] (i < m) over nodes [0, n) and,
   with `both` set, of the reversed pairs dst[i] -> src[i] after them:
   each node's neighbours in that input order.  indptr takes n + 1
   slots, neighbors m (2m with `both`).  One pass counts degrees into
   indptr and returns -1 at the first id outside [0, n), before any
   neighbour is written; then one prefix sum turns the counts into
   row starts, the scatter advances each to its row's end, and a shift
   makes the ends the row pointer.  Returns 0. */
int64_t csr_fill(const int64_t *src, const int64_t *dst, int64_t m,
                 int64_t n, int64_t both, int64_t *indptr,
                 int64_t *neighbors)
{
    const int64_t *ends[2] = {src, dst}, *others[2] = {dst, src};
    int64_t halves = both ? 2 : 1;
    memset(indptr, 0, (size_t)(n + 1) * sizeof(int64_t));
    for (int64_t h = 0; h < halves; ++h)
        for (int64_t i = 0; i < m; ++i) {
            if ((uint64_t)ends[h][i] >= (uint64_t)n) return -1;
            indptr[ends[h][i]] += 1;
        }
    for (int64_t v = 0, start = 0; v <= n; ++v) {
        int64_t count = indptr[v];
        indptr[v] = start;
        start += count;
    }
    for (int64_t h = 0; h < halves; ++h)
        for (int64_t i = 0; i < m; ++i)
            neighbors[indptr[ends[h][i]]++] = others[h][i];
    memmove(indptr + 1, indptr, (size_t)n * sizeof(int64_t));
    indptr[0] = 0;
    return 0;
}

/* RMat._descend over edge ids lo .. lo + count - 1.  Level l draws
   uniform_at(seeds[l], id) and reads t = thresholds[3l .. 3l + 2]
   = (la, la + lb, la + lb + lc): a draw of at least t[1] sets the
   level's bit in the tail, one in [t[0], t[1]) or at least t[2] sets
   it in the head. */
void rmat_descend(int64_t lo, int64_t count, int64_t scale,
                  const uint64_t *seeds, const double *thresholds,
                  int64_t *tails, int64_t *heads)
{
    for (int64_t i = 0; i < count; ++i) {
        uint64_t id = (uint64_t)lo + (uint64_t)i;
        int64_t tail = 0, head = 0;
        for (int64_t level = 0; level < scale; ++level) {
            const double *t = thresholds + 3 * level;
            double u = uniform_at(seeds[level], id);
            int64_t shift = scale - 1 - level;
            /* & and | rather than && and ||: no branch on a draw. */
            tail |= (int64_t)(u >= t[1]) << shift;
            head |= (int64_t)(((u >= t[0]) & (u < t[1])) | (u >= t[2]))
                    << shift;
        }
        tails[i] = tail;
        heads[i] = head;
    }
}

/* LFR's intra-community pass: community c holds the nodes
   comm_order[boundaries[c]..boundaries[c + 1]) and wires their
   internal degrees from the substream "intra<c>", one stub dropped
   from the first largest-degree member when the sum is odd.  Returns
   the row count, or -1 when scratch cannot be allocated. */
int64_t lfr_intra(
    int64_t num_c, const int64_t *comm_order, const int64_t *boundaries,
    const int64_t *internal, uint64_t seed, int64_t rounds, int64_t *out)
{
    int64_t max_size = 0, max_sum = 0, m = 0;
    for (int64_t c = 0; c < num_c; ++c) {
        int64_t size = boundaries[c + 1] - boundaries[c], sum = 0;
        for (int64_t j = boundaries[c]; j < boundaries[c + 1]; ++j)
            sum += internal[comm_order[j]];
        if (size > max_size) max_size = size;
        if (sum > max_sum) max_sum = sum;
    }
    work_t w;
    if (!work_alloc(&w, max_size, max_sum)) return -1;
    int64_t *local = malloc(
        (size_t)(max_size > 0 ? max_size : 1) * sizeof(int64_t));
    if (!local) {
        work_free(&w);
        return -1;
    }
    for (int64_t c = 0; c < num_c; ++c) {
        const int64_t *members = comm_order + boundaries[c];
        int64_t size = boundaries[c + 1] - boundaries[c];
        int64_t sum = 0, top = 0;
        if (size < 2) continue;
        for (int64_t i = 0; i < size; ++i) {
            local[i] = internal[members[i]];
            sum += local[i];
            if (local[i] > local[top]) top = i;
        }
        if ((sum & 1) && local[top] > 0) local[top] -= 1;
        m += repair(local, size, derive_seed(seed, "intra", (uint64_t)c),
                    rounds, &w, members, out + 2 * m);
    }
    free(local);
    work_free(&w);
    return m;
}

static void fenwick_add(int64_t *tree, int64_t num_c, int64_t pos,
                        int64_t delta)
{
    for (int64_t i = pos + 1; i <= num_c; i += i & (-i))
        tree[i] += delta;
}

/* LFR's capacity-weighted assignment.  Nodes arrive in order_n
   (decreasing internal degree), communities sit in decreasing size
   (sorted_sizes; order_c maps back), draw `rank` is
   uniform_at(seed, rank).  Returns 0, 1 when capacity is exhausted,
   2 when a draw lands past the last community, -1 when scratch
   cannot be allocated. */
int64_t lfr_assign(
    int64_t n, int64_t num_c, const int64_t *order_n,
    const int64_t *internal_degrees, const int64_t *sorted_sizes,
    const int64_t *order_c, uint64_t seed, int64_t *assignment)
{
    int64_t *tree = calloc((size_t)num_c + 1, sizeof(int64_t));
    if (!tree) return -1;
    int64_t top_bit = 1, opened = 0, total = 0, status = 0;
    while (top_bit <= num_c) top_bit <<= 1;
    for (int64_t rank = 0; rank < n; ++rank) {
        int64_t node = order_n[rank];
        int64_t d_int = internal_degrees[node];
        while (opened < num_c && sorted_sizes[opened] > d_int) {
            fenwick_add(tree, num_c, opened, sorted_sizes[opened]);
            total += sorted_sizes[opened++];
        }
        if (total <= 0) {
            /* Relax by opening the largest still-closed community. */
            if (opened >= num_c) { status = 1; break; }
            fenwick_add(tree, num_c, opened, sorted_sizes[opened]);
            total += sorted_sizes[opened++];
        }
        int64_t remaining = (int64_t)(
            uniform_at(seed, (uint64_t)rank) * (double)total);
        int64_t pos = 0;
        for (int64_t bit = top_bit; bit; bit >>= 1) {
            int64_t nxt = pos + bit;
            if (nxt <= num_c && tree[nxt] <= remaining) {
                remaining -= tree[nxt];
                pos = nxt;
            }
        }
        if (pos >= num_c) { status = 2; break; }
        assignment[node] = order_c[pos];
        fenwick_add(tree, num_c, pos, -1);
        total -= 1;
    }
    free(tree);
    return status;
}
"""

def _i64(array):
    return np.ascontiguousarray(array, dtype=np.int64)


def _rows(out, m):
    """``out`` cut down in place to the ``m`` rows written, or
    ``None`` for an error code."""
    if m < 0:
        return None
    out.resize((m, 2), refcheck=False)
    return out


class _StructureCKernel:
    """The compiled loops, their outputs allocated here."""

    def __init__(self, lib):
        self._lib = lib

    def pair_stubs_with_repair(self, degrees, seed, rounds):
        """``(m, 2)`` pairs, or ``None`` (negative degrees, no memory)."""
        degrees = _i64(degrees)
        if degrees.ndim != 1 or (degrees.size and degrees.min() < 0):
            return None
        out = np.empty((int(degrees.sum()) // 2, 2), dtype=np.int64)
        m = self._lib.pair_stubs_with_repair(
            degrees, degrees.size, seed, rounds, out
        )
        return _rows(out, m)

    def lfr_intra(self, comm_order, boundaries, internal, seed, rounds=3):
        """Every community's internal pairs in node ids, concatenated
        in community order; ``None`` when scratch cannot be had.
        ``rounds`` defaults to ``pair_stubs_with_repair``'s, which is
        what the per-community Python loop runs with.

        ``boundaries`` must be nondecreasing within ``[0,
        comm_order.size]`` and ``comm_order`` must index ``internal``
        (nonnegative) — what ``argsort`` / ``searchsorted`` over the
        assignment give.
        """
        internal = _i64(internal)
        out = np.empty((int(internal.sum()) // 2, 2), dtype=np.int64)
        m = self._lib.lfr_intra(
            boundaries.size - 1, _i64(comm_order), _i64(boundaries),
            internal, seed, rounds, out,
        )
        return _rows(out, m)

    def lfr_assign(self, order_n, internal_degrees, sorted_sizes,
                   order_c, seed):
        """Community per node, or ``None`` (exhausted, no memory)."""
        assignment = np.empty(order_n.size, dtype=np.int64)
        status = self._lib.lfr_assign(
            order_n.size, sorted_sizes.size, _i64(order_n),
            _i64(internal_degrees), _i64(sorted_sizes), _i64(order_c),
            seed, assignment,
        )
        return None if status else assignment

    def rmat_descend(self, plan, lo, hi):
        """``RMat._descend`` of edge ids ``[lo, hi)`` under
        :meth:`~repro.structure.rmat.RMat._level_plan`'s ``plan``."""
        seeds = np.array([level[0].seed for level in plan], np.uint64)
        thresholds = np.array(
            [(la, la + lb, la + lb + lc) for _, la, lb, lc, _ in plan],
            np.float64,
        )
        tails = np.empty(hi - lo, dtype=np.int64)
        heads = np.empty(hi - lo, dtype=np.int64)
        self._lib.rmat_descend(lo, tails.size, len(plan), seeds,
                               thresholds, tails, heads)
        return tails, heads

    def csr_fill(self, src, dst, num_nodes, symmetric):
        """:func:`~repro.tables.csr_arrays` of int64 ``src`` / ``dst``
        of one length, every counted id already checked in ``[0,
        num_nodes)``."""
        indptr = np.empty(num_nodes + 1, dtype=np.int64)
        neighbors = np.empty(src.size * (1 + symmetric), dtype=np.int64)
        if self._lib.csr_fill(src, dst, src.size, num_nodes,
                              int(symmetric), indptr, neighbors):
            raise ValueError(
                f"node ids must lie in [0, num_nodes) = [0, {num_nodes})"
            )
        return indptr, neighbors


#: One compile attempt per process; ``None`` on any failure.
load_structure_ckernel = load_once(
    _SOURCE, "structkernel", _StructureCKernel
)
