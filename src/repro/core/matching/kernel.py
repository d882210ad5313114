"""Streaming-placement kernel: the shared engine behind the matchers.

SBM-Part, the bipartite matcher and LDG are all instances of one
streaming-placement problem: nodes arrive in an order, each node scores
the ``k`` groups from the counts of its already-placed neighbours plus
some incremental global state, and the winner (after capacity masking
and tie-breaking) receives the node.  The original implementations
(frozen in ``tests/legacy_matching.py``) re-derived everything
from scratch per node — an O(k^2) ``diff = current - target`` plus a
dozen fresh allocations — so the Python interpreter, not the hardware,
set the throughput.  This module replaces that with a kernel that does
only incremental work per placement:

* ``diff = current - target`` is **maintained, not recomputed**: a
  placement touches one row and one column, so only those are
  refreshed (by the same elementwise subtraction the legacy code
  applied to the whole matrix — the touched entries are bitwise
  identical, and untouched entries are untouched).
* per-node candidate scores need one matvec ``diff @ counts`` over the
  placed-neighbour support instead of three k×k temporaries —
  O(k·deg) per node instead of O(k^2).
* neighbour counts come from a **streaming counts matrix** ``C`` of
  shape (n, k): when a node is placed into group ``g``, the rows of its
  *later-arriving* neighbours are bumped at column ``g``.  Each node
  then reads its counts as a contiguous row view — no per-node
  ``np.add.at``, no boolean filtering.  Counts are integer-valued
  floats, so any accumulation order is exact and the values are
  bitwise equal to the legacy ``np.add.at`` fold.  (For n·k beyond
  :data:`COUNTS_MATRIX_MAX_BYTES` the kernel falls back to a per-node
  ``np.bincount`` — still allocation-light, no quadratic state.)
* every buffer is preallocated; the per-step numpy calls all write
  into scratch via ``out=``.
* the **cold-start prefix** — the maximal leading run of the order in
  which every node's neighbours all arrive later — is placed in one
  batched pass: the tie-stream draws are vectorised upfront, the
  placement loop touches only O(k) state, and the counts-matrix
  propagation for the whole prefix is a single ``bincount`` fold
  (legal because cold nodes never read counts).

Stream preparation
------------------
:func:`prepare_match_stream` is linear in m.  The CSR adjacency comes
from :meth:`~repro.tables.EdgeTable.adjacency_csr`, which orders the
2m endpoints with :func:`~repro.tables.bucket_order` (a stable 16-bit
LSD radix order: one pass for n <= 65 536) instead of an O(m log m)
comparison sort; arrival positions are one scatter and the cold prefix
one ``np.minimum.reduceat``.  Only the numpy path's later-neighbour
tables (:func:`later_tables`) still sort, with ``np.unique``.  Around
the placement, the PT-row mapping and the achieved mixing matrix are
linear too (bucket orders and one ``np.bincount``).

Tie handling
------------
Scores grow like m² (edge-count-scale ``diff`` entries times degree
counts), so the legacy *absolute* tie tolerance of ``1e-12`` degrades
into "bitwise equality only" once ``|score| > 1``: at score magnitude
``s`` the spacing between adjacent doubles is ``~2.2e-16·s``, which
exceeds ``1e-12`` as soon as ``s > 4.5e3``.  Mathematically tied groups
whose scores differ by accumulated rounding then silently stop tying.
The kernel therefore uses a **relative** band,
``best - 1e-12·max(1, |best|)`` (:func:`tie_threshold`): identical to
the legacy band for ``|best| <= 1`` and a ~4500-ulp band at every
scale, wide enough to absorb summation-order noise yet far below any
mathematically distinct score gap.

Exactness
---------
Group counts and the ``current`` matrix hold integer-valued doubles,
so every accumulation is exact and bitwise equal to the legacy fold;
``diff`` rows are refreshed with the same single subtraction the
legacy code used.  The only floating-point divergence from the legacy
loops is the summation *tree* inside the score reductions (BLAS matvec
vs numpy pairwise-sum), which perturbs scores by a few ulp; the
relative tie band absorbs that.  ``tests/golden/matching/`` freezes
the legacy assignments on fixed seeds and
``tests/test_matching_kernel.py`` asserts every kernel implementation
reproduces them byte-for-byte.

Implementations
---------------
``impl="numpy"`` is the portable path described above.  ``impl="c"``
runs the same algorithm as a single compiled C loop (see
:mod:`repro.core.matching._ckernel`) when a system C compiler is
available — the kernel compiles it on first use and caches the shared
object; there is nothing to install.  ``impl="auto"`` (every caller's
default) picks C when available, else numpy; the compiled path covers
the monopartite streams (SBM-Part, LDG) while
:func:`bipartite_stream` always runs the numpy kernel.  Set
``REPRO_MATCH_IMPL=numpy|c`` to force a path, or ``REPRO_NO_CKERNEL=1``
to disable compilation entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

__all__ = [
    "COUNTS_MATRIX_MAX_BYTES",
    "REL_TIE_TOL",
    "MatchPrep",
    "available_impls",
    "bipartite_stream",
    "cold_prefix_length",
    "ldg_stream",
    "later_tables",
    "place_cold_stream",
    "prepare_match_stream",
    "resolve_impl",
    "sbm_part_stream",
    "tie_threshold",
]

#: Relative tie tolerance: candidates within ``REL_TIE_TOL * max(1,
#: |best|)`` of the best score tie.  See the module docstring.
REL_TIE_TOL = 1e-12

#: Ceiling on the streaming counts-matrix footprint (float64 entries);
#: beyond this the kernel computes per-node counts with ``bincount``.
COUNTS_MATRIX_MAX_BYTES = 256 * 1024 * 1024

_NEG_INF = float("-inf")


def tie_threshold(best):
    """Tie-band threshold for a best score: relative, scale-stable.

    For ``|best| <= 1`` this equals the historical absolute band
    ``best - 1e-12``; beyond that the band scales with the score, so
    at ``best = 1e9`` two scores within ``1e-3`` of each other still
    tie — where the absolute band would already be narrower than one
    ulp and only bitwise-equal scores could tie.
    """
    return best - REL_TIE_TOL * max(1.0, abs(best))


def available_impls():
    """Implementations usable in this environment ("numpy" always)."""
    from ._ckernel import load_ckernel

    impls = ["numpy"]
    if load_ckernel() is not None:
        impls.insert(0, "c")
    return impls


def resolve_impl(impl):
    """Resolve an ``impl`` argument to "numpy" or "c"."""
    if impl in (None, "auto"):
        impl = os.environ.get("REPRO_MATCH_IMPL", "auto")
    if impl == "auto":
        from ._ckernel import load_ckernel

        return "c" if load_ckernel() is not None else "numpy"
    if impl not in ("numpy", "c"):
        raise ValueError(
            f"unknown impl {impl!r}; expected 'auto', 'numpy' or 'c'"
        )
    if impl == "c":
        from ._ckernel import load_ckernel

        if load_ckernel() is None:
            raise RuntimeError(
                "impl='c' requested but no C kernel is available "
                "(no compiler, or REPRO_NO_CKERNEL=1)"
            )
    return impl


# -- stream preparation -------------------------------------------------------


@dataclass
class MatchPrep:
    """Order-dependent precomputation for one monopartite stream.

    Everything here is a plain numpy array, so a :class:`MatchPrep` can
    be built once and shipped to wherever the stream runs.

    Attributes
    ----------
    indptr, neighbors:
        undirected CSR adjacency of the structure.
    order:
        arrival order (node ids).
    positions:
        inverse of ``order``: ``positions[order[i]] = i``.
    cold_prefix:
        length of the maximal leading run of ``order`` in which every
        node's neighbours all arrive strictly later (such nodes are
        cold by construction).
    lat_indptr, lat_cols, lat_mult:
        deduplicated later-neighbour table: for node ``v`` the slice
        ``[lat_indptr[v], lat_indptr[v+1])`` lists the distinct
        neighbours of ``v`` arriving after it (``lat_cols``) with edge
        multiplicities (``lat_mult``).  ``None`` until
        :meth:`ensure_counts_tables` builds them (only the numpy path
        reads them).
    """

    indptr: np.ndarray
    neighbors: np.ndarray
    order: np.ndarray
    positions: np.ndarray
    cold_prefix: int
    lat_indptr: np.ndarray | None = None
    lat_cols: np.ndarray | None = None
    lat_mult: np.ndarray | None = None

    @property
    def num_nodes(self):
        return self.order.size

    def ensure_counts_tables(self):
        """Build the later-neighbour table if it is missing."""
        if self.lat_indptr is None:
            n = self.num_nodes
            src = np.repeat(
                np.arange(n, dtype=np.int64), np.diff(self.indptr)
            )
            self.lat_indptr, self.lat_cols, self.lat_mult = later_tables(
                src, self.neighbors,
                self.positions, self.positions, n,
            )
        return self


def prepare_match_stream(table, order=None):
    """Precompute the stream-order structures for ``table``.

    This is the "prepare" half of the matching stage: a pure function
    of ``(table, order)`` that returns picklable arrays.
    """
    n = table.num_nodes
    if order is None:
        order = np.arange(n, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
        if order.size != n:
            raise ValueError("order must enumerate all n nodes")
    indptr, neighbors = table.adjacency_csr()
    positions = np.empty(n, dtype=np.int64)
    positions[order] = np.arange(n, dtype=np.int64)
    prefix = cold_prefix_length(indptr, neighbors, order, positions)
    return MatchPrep(
        indptr=indptr,
        neighbors=neighbors,
        order=order,
        positions=positions,
        cold_prefix=prefix,
    )


def cold_prefix_length(indptr, neighbors, order, positions):
    """Length of the leading all-cold run of ``order``.

    A node is *cold* when none of its neighbours has been placed.  The
    maximal prefix in which every node's earliest-arriving neighbour
    still lies ahead of it is cold by construction and can be placed in
    one batched pass.  (Self-loops make a node look warm here; the main
    loop's own counts check handles them — the prefix is merely the
    batched fast path, never a semantic boundary.)
    """
    n = order.size
    if n == 0:
        return 0
    lengths = np.diff(indptr)
    min_nbr_pos = np.full(n, n, dtype=np.int64)
    nonempty = lengths > 0
    if nonempty.any():
        starts = indptr[:-1][nonempty]
        mins = np.minimum.reduceat(positions[neighbors], starts)
        min_nbr_pos[nonempty] = mins
    cold_at = min_nbr_pos[order] > np.arange(n, dtype=np.int64)
    warm = np.flatnonzero(~cold_at)
    return int(n if warm.size == 0 else warm[0])


def later_tables(src, dst, pos_src, pos_dst, num_src):
    """Deduplicated (src -> later dst) adjacency with multiplicities.

    Keeps the pairs where ``dst`` arrives strictly after ``src`` (by the
    two position arrays), merges parallel edges into one entry with an
    integer multiplicity, and groups by ``src``.

    Returns ``(indptr, cols, mult)`` with ``indptr`` of length
    ``num_src + 1``.
    """
    keep = pos_dst[dst] > pos_src[src]
    s = src[keep]
    d = dst[keep]
    if d.size:
        span = int(d.max()) + 1
        key = s * span + d
        unique_key, mult = np.unique(key, return_counts=True)
        s = unique_key // span
        d = unique_key % span
    else:
        mult = np.zeros(0, dtype=np.int64)
    indptr = np.zeros(num_src + 1, dtype=np.int64)
    np.cumsum(np.bincount(s, minlength=num_src), out=indptr[1:])
    return indptr, d.astype(np.int64), mult.astype(np.float64)


# -- cold-start placement -----------------------------------------------------


def place_cold_stream(caps, loads, uniforms, cold_start):
    """Place a run of cold nodes; mutates ``loads``; returns choices.

    Replays exactly the per-step draws of the legacy cold branch:
    ``remaining = max(caps - loads, 0)``, a capacity-proportional CDF
    draw from the pre-drawn ``uniforms`` (mode "proportional") or the
    most-remaining-capacity group (mode "greedy"), with the
    capacities-exhausted ``RuntimeError`` raised at the same step the
    step-by-step code would raise it.  The draws themselves are the
    batched, vectorised part — ``uniforms`` is one
    ``tie_stream.uniform(arange)`` call — and each placement then only
    touches O(k) state.
    """
    if cold_start not in ("proportional", "greedy"):
        raise ValueError(f"unknown cold_start {cold_start!r}")
    k = caps.size
    count = len(uniforms)
    choices = np.empty(count, dtype=np.int64)
    rem = np.empty(k, dtype=np.float64)
    cdf = np.empty(k, dtype=np.float64)
    proportional = cold_start == "proportional"
    for i in range(count):
        np.subtract(caps, loads, out=rem)
        np.maximum(rem, 0.0, out=rem)
        total = float(rem.sum())
        if total <= 0:
            raise RuntimeError("group capacities exhausted mid-stream")
        if proportional:
            np.divide(rem, total, out=rem)
            np.cumsum(rem, out=cdf)
            choice = int(np.searchsorted(cdf, uniforms[i], side="right"))
            if choice >= k:
                # cdf[-1] rounded one ulp below 1.0 and the uniform
                # fell beyond it: last group with remaining capacity
                # (the C kernel clamps identically).
                choice = int(np.flatnonzero(rem > 0)[-1])
        else:
            choice = int(np.argmax(rem))
        choices[i] = choice
        loads[choice] += 1
    return choices


def _draw_uniforms(tie_stream, n):
    """Vectorised pre-draw of the per-step tie/cold uniforms."""
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    return tie_stream.uniform(np.arange(n, dtype=np.int64))


# -- counts providers ---------------------------------------------------------


class _CountsMatrix:
    """Streaming (n, k) placed-neighbour counts with row-view reads.

    ``warm[v]`` flips to True the moment any neighbour of ``v`` is
    placed, so the stream loop's cold test is one scalar read instead
    of an ``any()`` reduction per node.
    """

    def __init__(self, prep, k):
        prep.ensure_counts_tables()
        n = prep.num_nodes
        self.k = k
        self.C = np.zeros((n, k), dtype=np.float64)
        self.flat = self.C.ravel()
        self.lat_indptr = prep.lat_indptr.tolist()
        self.lat_cols = prep.lat_cols
        self.lat_base = prep.lat_cols * k
        self.lat_mult = prep.lat_mult
        self.warm = np.zeros(n, dtype=bool)

    def counts(self, v):
        return self.C[v]

    def place(self, v, choice):
        lo = self.lat_indptr[v]
        hi = self.lat_indptr[v + 1]
        if hi > lo:
            idx = self.lat_base[lo:hi] + choice
            vals = self.flat.take(idx)
            np.add(vals, self.lat_mult[lo:hi], out=vals)
            self.flat.put(idx, vals)
            self.warm[self.lat_cols[lo:hi]] = True

    def place_batch(self, nodes, choices):
        """Fold a whole batch of placements in one bincount pass.

        Only legal when none of the *other* nodes placed in the batch
        read counts in between — i.e. for the cold prefix.
        """
        starts = np.asarray(
            [self.lat_indptr[v] for v in nodes], dtype=np.int64
        )
        stops = np.asarray(
            [self.lat_indptr[v + 1] for v in nodes], dtype=np.int64
        )
        lengths = stops - starts
        total = int(lengths.sum())
        if total == 0:
            return
        offsets = np.zeros(len(nodes), dtype=np.int64)
        np.cumsum(lengths[:-1], out=offsets[1:])
        flat_pos = np.arange(total, dtype=np.int64) + np.repeat(
            starts - offsets, lengths
        )
        idx = self.lat_base.take(flat_pos) + np.repeat(
            np.asarray(choices, dtype=np.int64), lengths
        )
        fold = np.bincount(
            idx, weights=self.lat_mult.take(flat_pos),
            minlength=self.flat.size,
        )
        np.add(self.flat, fold, out=self.flat)
        self.warm[self.lat_cols.take(flat_pos)] = True


class _CountsBincount:
    """Per-node ``bincount`` counts for very large n·k."""

    def __init__(self, prep, k):
        self.k = k
        self.indptr = prep.indptr.tolist()
        self.neighbors = prep.neighbors
        # assignment + 1, so bucket 0 collects unplaced neighbours.
        self.asg1 = np.zeros(prep.num_nodes, dtype=np.int64)
        self._row = np.zeros(k, dtype=np.float64)

    def counts(self, v):
        nbrs = self.neighbors[self.indptr[v]:self.indptr[v + 1]]
        if nbrs.size == 0:
            row = self._row
            row[:] = 0.0
            return row
        folded = np.bincount(
            self.asg1.take(nbrs), minlength=self.k + 1
        )
        return folded[1:].astype(np.float64)

    def place(self, v, choice):
        self.asg1[v] = choice + 1

    def place_batch(self, nodes, choices):
        self.asg1[np.asarray(nodes, dtype=np.int64)] = (
            np.asarray(choices, dtype=np.int64) + 1
        )


def _make_counts(prep, k):
    n = prep.num_nodes
    if n * k * 8 <= COUNTS_MATRIX_MAX_BYTES:
        return _CountsMatrix(prep, k)
    return _CountsBincount(prep, k)


# -- SBM-Part (monopartite) ---------------------------------------------------


def sbm_part_stream(
    table,
    group_sizes,
    target,
    order=None,
    capacity_weighting=True,
    tie_stream=None,
    cold_start="proportional",
    negative_gain="divide",
    impl="auto",
    prep=None,
):
    """Streaming SBM-Part assignment (kernel entry point).

    Same contract as the legacy ``sbm_part_assign`` loop; see
    :func:`repro.core.matching.sbm_part_assign` for parameter
    documentation.  ``prep`` may carry a precomputed
    :class:`MatchPrep` for this ``(table, order)`` pair.
    """
    group_sizes = np.asarray(group_sizes, dtype=np.int64)
    if group_sizes.ndim != 1 or group_sizes.size == 0:
        raise ValueError("group_sizes must be a non-empty 1-D array")
    if (group_sizes < 0).any():
        raise ValueError("group sizes must be nonnegative")
    n = table.num_nodes
    if int(group_sizes.sum()) < n:
        raise ValueError(
            f"group sizes sum to {int(group_sizes.sum())} < n = {n}"
        )
    k = group_sizes.size
    target = np.ascontiguousarray(target, dtype=np.float64)
    if target.shape != (k, k):
        raise ValueError(
            f"target must be ({k}, {k}), got {target.shape}"
        )
    if cold_start not in ("proportional", "greedy"):
        raise ValueError(f"unknown cold_start {cold_start!r}")
    if negative_gain not in ("divide", "multiply"):
        raise ValueError(f"unknown negative_gain {negative_gain!r}")
    if tie_stream is None:
        from ...prng import RandomStream

        tie_stream = RandomStream(0, "sbm-part.coldstart")

    impl = resolve_impl(impl)
    if prep is None:
        prep = prepare_match_stream(table, order)
    elif order is not None and not np.array_equal(
        np.asarray(order, dtype=np.int64), prep.order
    ):
        raise ValueError(
            "prep was built for a different arrival order; pass "
            "either a matching order or no order at all"
        )
    uniforms = _draw_uniforms(tie_stream, n)

    if impl == "c":
        from ._ckernel import load_ckernel

        return load_ckernel().sbm_part_stream(
            prep, group_sizes, target, uniforms,
            capacity_weighting, cold_start, negative_gain,
        )
    return _sbm_stream_numpy(
        prep, group_sizes, target, uniforms,
        capacity_weighting, cold_start, negative_gain,
    )


def _sbm_stream_numpy(
    prep, group_sizes, target, uniforms,
    capacity_weighting, cold_start, negative_gain,
):
    n = prep.num_nodes
    k = group_sizes.size
    assignment = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return assignment
    order = prep.order
    caps = group_sizes.astype(np.float64)
    loads = np.zeros(k, dtype=np.int64)
    current = np.zeros((k, k), dtype=np.float64)
    diff = current - target
    counts = _make_counts(prep, k)

    # Incrementally-maintained score state.
    neg_divide = negative_gain == "divide"
    proportional = cold_start == "proportional"
    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(caps > 0, 1.0 - loads / caps, 0.0)
    wclip = np.maximum(weight, 1e-9)
    twod = 2.0 * diff.ravel()[:: k + 1].copy()
    dcol_views = [diff[:, j] for j in range(k)]
    ccol_views = [current[:, j] for j in range(k)]
    tcol_views = [np.ascontiguousarray(target[:, j]) for j in range(k)]

    full_list = [int(j) for j in np.flatnonzero(group_sizes == 0)]
    full_idx = np.asarray(full_list, dtype=np.int64)

    # Scratch buffers (every per-step numpy op writes into these).
    rd = np.empty(k, dtype=np.float64)
    tb = np.empty(k, dtype=np.float64)
    s_pos = np.empty(k, dtype=np.float64)
    score = np.empty(k, dtype=np.float64)
    bb = np.empty(k, dtype=bool)
    rem = np.empty(k, dtype=np.float64)
    cdf = np.empty(k, dtype=np.float64)

    order_l = order.tolist()
    uni_l = uniforms.tolist()
    gs_l = group_sizes.tolist()
    caps_l = caps.tolist()

    # Batched cold prefix.
    start = 0
    prefix = prep.cold_prefix
    if prefix:
        choices = place_cold_stream(
            caps, loads, uni_l[:prefix], cold_start
        )
        prefix_nodes = order_l[:prefix]
        assignment[order[:prefix]] = choices
        counts.place_batch(prefix_nodes, choices)
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where(caps > 0, 1.0 - loads / caps, 0.0)
        np.maximum(weight, 1e-9, out=wclip)
        full_list = [
            int(j) for j in np.flatnonzero(loads >= group_sizes)
        ]
        full_idx = np.asarray(full_list, dtype=np.int64)
        start = prefix

    nfull = len(full_list)
    tie_tol = REL_TIE_TOL

    # Hot-loop locals: matrix-mode counts propagation is inlined below
    # (one Python call per node adds measurable overhead at n=100k).
    matrix_mode = isinstance(counts, _CountsMatrix)
    if matrix_mode:
        C = counts.C
        Cflat = counts.flat
        lat_indptr_l = counts.lat_indptr
        lat_base = counts.lat_base
        lat_cols = counts.lat_cols
        lat_mult = counts.lat_mult
        warm = counts.warm

    for step in range(start, n):
        v = order_l[step]
        if matrix_mode:
            cold = not warm[v]
            c = C[v]
        else:
            c = counts.counts(v)
            cold = not c.any()
        if cold:
            # Cold: capacity-proportional (or greedy) placement.
            np.subtract(caps, loads, out=rem)
            np.maximum(rem, 0.0, out=rem)
            total = float(rem.sum())
            if total <= 0:
                raise RuntimeError(
                    "group capacities exhausted mid-stream"
                )
            if proportional:
                np.divide(rem, total, out=rem)
                np.cumsum(rem, out=cdf)
                choice = int(
                    np.searchsorted(cdf, uni_l[step], side="right")
                )
                if choice >= k:
                    # See place_cold_stream: one-ulp cdf shortfall.
                    choice = int(np.flatnonzero(rem > 0)[-1])
            else:
                choice = int(np.argmax(rem))
        else:
            # gain_t = c_t(2*diff_tt + c_t) - 4*(diff @ c)_t - 2*S2
            # (the negated legacy Frobenius delta, reassociated; the
            # relative tie band absorbs the ulp-level difference).
            np.dot(diff, c, out=rd)
            s2 = float(np.dot(c, c))
            np.multiply(rd, 4.0, out=rd)
            np.add(twod, c, out=tb)
            np.multiply(tb, c, out=tb)
            np.subtract(tb, rd, out=tb)
            np.subtract(tb, s2 + s2, out=tb)
            if capacity_weighting:
                if neg_divide:
                    np.greater_equal(tb, 0.0, out=bb)
                    np.multiply(tb, weight, out=s_pos)
                    np.divide(tb, wclip, out=score)
                    np.copyto(score, s_pos, where=bb)
                else:
                    np.multiply(tb, weight, out=score)
            else:
                np.copyto(score, tb)
            if nfull:
                score[full_idx] = _NEG_INF
            am = int(score.argmax())
            best = float(score[am])
            if best == _NEG_INF:
                raise RuntimeError(
                    "group capacities exhausted mid-stream"
                )
            thresh = best - tie_tol * max(1.0, abs(best))
            np.greater_equal(score, thresh, out=bb)
            if int(np.count_nonzero(bb)) == 1:
                choice = am
            else:
                candidates = np.flatnonzero(bb)
                remaining = caps[candidates] - loads[candidates]
                top = candidates[remaining == remaining.max()]
                if top.size > 1:
                    pick = int(uni_l[step] * top.size)
                    choice = int(top[pick])
                else:
                    choice = int(top[0])
            # Incremental state update: only row/column `choice`.
            crow = current[choice]
            np.add(crow, c, out=crow)
            ccol = ccol_views[choice]
            np.add(ccol, c, out=ccol)
            cc = c[choice]
            if cc:
                current[choice, choice] -= cc
            np.subtract(crow, target[choice], out=diff[choice])
            np.subtract(ccol, tcol_views[choice], out=dcol_views[choice])
            twod[choice] = 2.0 * diff[choice, choice]

        assignment[v] = choice
        loads[choice] += 1
        load_c = int(loads[choice])
        weight[choice] = w_c = 1.0 - load_c / caps_l[choice]
        wclip[choice] = w_c if w_c > 1e-9 else 1e-9
        if load_c >= gs_l[choice]:
            full_list.append(choice)
            full_idx = np.asarray(full_list, dtype=np.int64)
            nfull += 1
        if matrix_mode:
            lo = lat_indptr_l[v]
            hi = lat_indptr_l[v + 1]
            if hi > lo:
                idx = lat_base[lo:hi] + choice
                vals = Cflat.take(idx)
                np.add(vals, lat_mult[lo:hi], out=vals)
                Cflat.put(idx, vals)
                warm[lat_cols[lo:hi]] = True
        else:
            counts.place(v, choice)
    return assignment


# -- LDG ----------------------------------------------------------------------


def ldg_stream(
    table, capacities, order=None, tie_stream=None, impl="auto",
    prep=None,
):
    """Streaming LDG partitioning (kernel entry point)."""
    capacities = np.asarray(capacities, dtype=np.int64)
    if capacities.ndim != 1 or capacities.size == 0:
        raise ValueError("capacities must be a non-empty 1-D array")
    if (capacities < 0).any():
        raise ValueError("capacities must be nonnegative")
    n = table.num_nodes
    if int(capacities.sum()) < n:
        raise ValueError(
            f"capacities sum to {int(capacities.sum())} < n = {n}"
        )
    impl = resolve_impl(impl)
    if prep is None:
        prep = prepare_match_stream(table, order)
    elif order is not None and not np.array_equal(
        np.asarray(order, dtype=np.int64), prep.order
    ):
        raise ValueError(
            "prep was built for a different arrival order; pass "
            "either a matching order or no order at all"
        )
    uniforms = (
        None if tie_stream is None else _draw_uniforms(tie_stream, n)
    )
    if impl == "c":
        from ._ckernel import load_ckernel

        return load_ckernel().ldg_stream(prep, capacities, uniforms)
    return _ldg_stream_numpy(prep, capacities, uniforms)


def _ldg_stream_numpy(prep, capacities, uniforms):
    n = prep.num_nodes
    k = capacities.size
    assignment = np.full(n, -1, dtype=np.int64)
    if n == 0:
        return assignment
    caps = capacities.astype(np.float64)
    loads = np.zeros(k, dtype=np.int64)
    counts = _make_counts(prep, k)
    has_ties = uniforms is not None

    with np.errstate(divide="ignore", invalid="ignore"):
        weight = np.where(caps > 0, 1.0 - loads / caps, _NEG_INF)
    full_list = [int(j) for j in np.flatnonzero(capacities == 0)]
    full_idx = np.asarray(full_list, dtype=np.int64)
    nfull = len(full_list)

    score = np.empty(k, dtype=np.float64)
    bb = np.empty(k, dtype=bool)
    order_l = prep.order.tolist()
    uni_l = uniforms.tolist() if has_ties else None
    caps_l = caps.tolist()
    cap_int = capacities.tolist()

    # 0 * (-inf) = nan for zero-capacity groups; they are masked to
    # -inf right after, exactly as the legacy loop masked them.
    matrix_mode = isinstance(counts, _CountsMatrix)
    if matrix_mode:
        C = counts.C
        Cflat = counts.flat
        lat_indptr_l = counts.lat_indptr
        lat_base = counts.lat_base
        lat_mult = counts.lat_mult

    err_state = np.seterr(invalid="ignore")
    try:
        for step in range(n):
            v = order_l[step]
            c = C[v] if matrix_mode else counts.counts(v)
            np.multiply(c, weight, out=score)
            if nfull:
                score[full_idx] = _NEG_INF
            am = int(score.argmax())
            best = float(score[am])
            if best == _NEG_INF:
                raise RuntimeError(
                    "no partition with remaining capacity"
                )
            np.equal(score, best, out=bb)
            if int(np.count_nonzero(bb)) == 1:
                choice = am
            else:
                candidates = np.flatnonzero(bb)
                if has_ties:
                    pick = int(uni_l[step] * candidates.size)
                    choice = int(candidates[pick])
                else:
                    choice = int(
                        candidates[np.argmin(loads[candidates])]
                    )
            assignment[v] = choice
            loads[choice] += 1
            load_c = int(loads[choice])
            weight[choice] = 1.0 - load_c / caps_l[choice]
            if load_c >= cap_int[choice]:
                full_list.append(choice)
                full_idx = np.asarray(full_list, dtype=np.int64)
                nfull += 1
            if matrix_mode:
                lo = lat_indptr_l[v]
                hi = lat_indptr_l[v + 1]
                if hi > lo:
                    idx = lat_base[lo:hi] + choice
                    vals = Cflat.take(idx)
                    np.add(vals, lat_mult[lo:hi], out=vals)
                    Cflat.put(idx, vals)
            else:
                counts.place(v, choice)
    finally:
        np.seterr(**err_state)
    return assignment


# -- bipartite SBM-Part -------------------------------------------------------


def bipartite_stream(
    table, tail_sizes, head_sizes, target, order=None,
    capacity_weighting=True,
):
    """Streaming bipartite SBM-Part (kernel entry point).

    Returns ``(tail_assignment, head_assignment)``.  The two sides
    stream interleaved; a tail placement touches one row of
    ``diff = current - target`` and a head placement one column, so the
    per-node cost is one (k_tail × k_head) matvec over the node's
    placed-neighbour counts.
    """
    nt, nh = table.num_tail_nodes, table.num_head_nodes
    tail_sizes = np.asarray(tail_sizes, dtype=np.int64)
    head_sizes = np.asarray(head_sizes, dtype=np.int64)
    kt, kh = tail_sizes.size, head_sizes.size
    target = np.ascontiguousarray(target, dtype=np.float64)

    if order is None:
        order = np.arange(nt + nh, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
        if order.size != nt + nh:
            raise ValueError("order must enumerate all tail+head nodes")

    n_all = nt + nh
    positions = np.empty(n_all, dtype=np.int64)
    positions[order] = np.arange(n_all, dtype=np.int64)

    # Later-neighbour tables, one per direction.  A tail placement
    # bumps the counts rows of its later heads (columns indexed by
    # tail groups) and vice versa.
    tails = table.tails
    heads = table.heads
    th_indptr, th_cols, th_mult = later_tables(
        tails, heads, positions[:nt], positions[nt:], nt
    )
    ht_indptr, ht_cols, ht_mult = later_tables(
        heads, tails, positions[nt:], positions[:nt], nh
    )
    th_base = th_cols * kt   # head-row base into C_head.flat
    ht_base = ht_cols * kh   # tail-row base into C_tail.flat

    C_tail = np.zeros((nt, kh), dtype=np.float64)
    C_head = np.zeros((nh, kt), dtype=np.float64)
    Ct_flat = C_tail.ravel()
    Ch_flat = C_head.ravel()

    tail_assign = np.full(nt, -1, dtype=np.int64)
    head_assign = np.full(nh, -1, dtype=np.int64)
    tail_loads = np.zeros(kt, dtype=np.int64)
    head_loads = np.zeros(kh, dtype=np.int64)
    current = np.zeros((kt, kh), dtype=np.float64)
    diff = current - target

    with np.errstate(divide="ignore", invalid="ignore"):
        w_tail = np.where(
            tail_sizes > 0, 1.0 - tail_loads / tail_sizes, 0.0
        )
        w_head = np.where(
            head_sizes > 0, 1.0 - head_loads / head_sizes, 0.0
        )
    full_tail = [int(j) for j in np.flatnonzero(tail_sizes == 0)]
    full_head = [int(j) for j in np.flatnonzero(head_sizes == 0)]
    fti = np.asarray(full_tail, dtype=np.int64)
    fhi = np.asarray(full_head, dtype=np.int64)

    score_t = np.empty(kt, dtype=np.float64)
    score_h = np.empty(kh, dtype=np.float64)
    bb_t = np.empty(kt, dtype=bool)
    bb_h = np.empty(kh, dtype=bool)
    ccol_views = [current[:, j] for j in range(kh)]
    dcol_views = [diff[:, j] for j in range(kh)]
    tcol_views = [np.ascontiguousarray(target[:, j]) for j in range(kh)]

    th_indptr_l = th_indptr.tolist()
    ht_indptr_l = ht_indptr.tolist()
    order_l = order.tolist()
    weighting = bool(capacity_weighting)

    for combined in order_l:
        if combined < nt:
            v = combined
            c = C_tail[v]
            # delta = 2*(diff @ c) + S2 per candidate tail group.
            np.dot(diff, c, out=score_t)
            s2 = float(np.dot(c, c))
            np.multiply(score_t, 2.0, out=score_t)
            np.add(score_t, s2, out=score_t)
            np.negative(score_t, out=score_t)
            if weighting:
                np.multiply(score_t, w_tail, out=score_t)
            if fti.size:
                score_t[fti] = _NEG_INF
            am = int(np.argmax(score_t))
            best = float(score_t[am])
            if best == _NEG_INF:
                raise RuntimeError("tail group capacities exhausted")
            thresh = best - REL_TIE_TOL * max(1.0, abs(best))
            np.greater_equal(score_t, thresh, out=bb_t)
            if int(np.count_nonzero(bb_t)) == 1:
                choice = am
            else:
                ties = np.flatnonzero(bb_t)
                remaining = (tail_sizes - tail_loads)[ties]
                choice = int(ties[np.argmax(remaining)])
            tail_assign[v] = choice
            tail_loads[choice] += 1
            if weighting:
                w_tail[choice] = (
                    1.0 - tail_loads[choice] / tail_sizes[choice]
                )
            if tail_loads[choice] >= tail_sizes[choice]:
                full_tail.append(choice)
                fti = np.asarray(full_tail, dtype=np.int64)
            crow = current[choice]
            np.add(crow, c, out=crow)
            np.subtract(crow, target[choice], out=diff[choice])
            lo = th_indptr_l[v]
            hi = th_indptr_l[v + 1]
            if hi > lo:
                idx = th_base[lo:hi] + choice
                vals = Ch_flat.take(idx)
                np.add(vals, th_mult[lo:hi], out=vals)
                Ch_flat.put(idx, vals)
        else:
            v = combined - nt
            c = C_head[v]
            np.dot(c, diff, out=score_h)
            s2 = float(np.dot(c, c))
            np.multiply(score_h, 2.0, out=score_h)
            np.add(score_h, s2, out=score_h)
            np.negative(score_h, out=score_h)
            if weighting:
                np.multiply(score_h, w_head, out=score_h)
            if fhi.size:
                score_h[fhi] = _NEG_INF
            am = int(np.argmax(score_h))
            best = float(score_h[am])
            if best == _NEG_INF:
                raise RuntimeError("head group capacities exhausted")
            thresh = best - REL_TIE_TOL * max(1.0, abs(best))
            np.greater_equal(score_h, thresh, out=bb_h)
            if int(np.count_nonzero(bb_h)) == 1:
                choice = am
            else:
                ties = np.flatnonzero(bb_h)
                remaining = (head_sizes - head_loads)[ties]
                choice = int(ties[np.argmax(remaining)])
            head_assign[v] = choice
            head_loads[choice] += 1
            if weighting:
                w_head[choice] = (
                    1.0 - head_loads[choice] / head_sizes[choice]
                )
            if head_loads[choice] >= head_sizes[choice]:
                full_head.append(choice)
                fhi = np.asarray(full_head, dtype=np.int64)
            ccol = ccol_views[choice]
            np.add(ccol, c, out=ccol)
            np.subtract(
                ccol, tcol_views[choice], out=dcol_views[choice]
            )
            lo = ht_indptr_l[v]
            hi = ht_indptr_l[v + 1]
            if hi > lo:
                idx = ht_base[lo:hi] + choice
                vals = Ct_flat.take(idx)
                np.add(vals, ht_mult[lo:hi], out=vals)
                Ct_flat.put(idx, vals)

    return tail_assign, head_assign
