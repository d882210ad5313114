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
* a node's placed-neighbour counts are **one ``np.bincount`` over its
  CSR row** of an ``assigned`` array that holds group + 1 (0 while a
  node is not yet placed, so bucket 0 collects the unplaced neighbours
  and is dropped) — the same walk the C loop makes.  A node whose
  neighbours are all unplaced is *cold* and takes :func:`cold_choice`.
  Counts are integer-valued, so they are bitwise equal to the legacy
  ``np.add.at`` fold.
* the scoring buffers are preallocated; the per-step numpy calls write
  into them via ``out=``.

Stream preparation
------------------
:func:`prepare_match_stream` checks that the arrival order is a
permutation and builds the CSR adjacency with
:meth:`~repro.tables.EdgeTable.adjacency_csr`: one compiled counting
scatter over the m edges (tail sides, then head sides, each in
edge-id order), with no concatenated or sorted endpoint array.  Its
numpy twin orders the 2m endpoints with a stable
:func:`~repro.tables.bucket_order` and gathers, to the same bytes.
The bipartite stream builds its two one-sided CSRs with
:func:`~repro.tables.csr_arrays`, the same scatter.  Around the
placement, the PT-row mapping and the achieved mixing matrix are
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
The numpy path described above is the portable one.  The same
algorithm also runs as a single compiled C loop (see
:mod:`repro.core.matching._ckernel`) when a system C compiler is
available — the kernel compiles it on first use and caches the shared
object; there is nothing to install.  The monopartite streams
(SBM-Part, LDG) take the C loop whenever it loads, and
:func:`bipartite_stream` always runs numpy.  ``REPRO_NO_CKERNEL=1`` —
the one switch of every compiled kernel, read per call — selects the
numpy path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...tables import csr_arrays
from ._ckernel import load_ckernel

__all__ = [
    "REL_TIE_TOL",
    "MatchPrep",
    "available_impls",
    "bipartite_stream",
    "cold_choice",
    "ldg_partition",
    "prepare_match_stream",
    "sbm_part_assign",
    "tie_threshold",
]

#: Relative tie tolerance: candidates within ``REL_TIE_TOL * max(1,
#: |best|)`` of the best score tie.  See the module docstring.
REL_TIE_TOL = 1e-12

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
    """Implementations usable right now, the one the monopartite
    streams take first ("numpy" always)."""
    impls = ["numpy"]
    if load_ckernel() is not None:
        impls.insert(0, "c")
    return impls


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
        arrival order (node ids), a permutation of ``0..n-1``.
    """

    indptr: np.ndarray
    neighbors: np.ndarray
    order: np.ndarray

    @property
    def num_nodes(self):
        return self.order.size


def _arrival_order(order, n):
    """``order`` as int64 (natural order when ``None``), refused unless
    it is a permutation of ``0..n-1``."""
    if order is None:
        return np.arange(n, dtype=np.int64)
    order = np.ascontiguousarray(order, dtype=np.int64)
    ok = order.shape == (n,) and (
        n == 0 or (int(order.min()) >= 0 and int(order.max()) < n)
    )
    if ok:
        seen = np.zeros(n, dtype=bool)
        seen[order] = True
        ok = bool(seen.all())
    if not ok:
        raise ValueError("order must be a permutation of 0..n-1")
    return order


def _capacities(sizes, n, what):
    """``sizes`` as contiguous int64, refused unless a non-empty 1-D
    nonnegative array summing to at least ``n``."""
    sizes = np.ascontiguousarray(sizes, dtype=np.int64)
    if sizes.ndim != 1 or sizes.size == 0:
        raise ValueError(f"{what} must be a non-empty 1-D array")
    if (sizes < 0).any():
        raise ValueError(f"{what} must be nonnegative")
    if int(sizes.sum()) < n:
        raise ValueError(f"{what} sum to {int(sizes.sum())} < n = {n}")
    return sizes


def _finite_target(target, shape):
    """``target`` as a contiguous float64 array, refused unless it has
    ``shape`` and no NaN or infinite entry."""
    target = np.ascontiguousarray(target, dtype=np.float64)
    if target.shape != shape:
        raise ValueError(f"target must be {shape}, got {target.shape}")
    if not np.isfinite(target).all():
        raise ValueError("target must be finite (it has NaN or inf entries)")
    return target


def prepare_match_stream(table, order=None):
    """Precompute the stream-order structures for ``table``.

    This is the "prepare" half of the matching stage: a pure function
    of ``(table, order)`` that returns picklable arrays.
    """
    order = _arrival_order(order, table.num_nodes)
    indptr, neighbors = table.adjacency_csr()
    return MatchPrep(indptr=indptr, neighbors=neighbors, order=order)


def _stream_prep(table, order, prep):
    """``prep`` built for ``order`` — or the caller's, refused unless
    it is a stream over the table's ``n`` nodes (as the C loop reads
    it) for ``order``, when one is given."""
    if prep is None:
        return prepare_match_stream(table, order)
    n = table.num_nodes
    checked = MatchPrep(
        indptr=np.ascontiguousarray(prep.indptr, dtype=np.int64),
        neighbors=np.ascontiguousarray(prep.neighbors, dtype=np.int64),
        order=_arrival_order(prep.order, n),
    )
    indptr, neighbors = checked.indptr, checked.neighbors
    if (
        indptr.shape != (n + 1,) or neighbors.ndim != 1
        or indptr[0] != 0 or indptr[-1] != neighbors.size
        or (indptr[1:] < indptr[:-1]).any()
    ):
        raise ValueError(
            "prep.indptr must be a CSR row pointer: shape (n + 1,), "
            "from 0, nondecreasing, ending at len(prep.neighbors)"
        )
    # Negative ids wrap to values >= n: one max checks both bounds.
    if neighbors.size and neighbors.view(np.uint64).max() >= n:
        raise ValueError("prep.neighbors must be node ids in [0, n)")
    if order is not None and not np.array_equal(
        np.asarray(order, dtype=np.int64), checked.order
    ):
        raise ValueError(
            "prep was built for a different arrival order; pass "
            "either a matching order or no order at all"
        )
    return checked


# -- cold-start placement -----------------------------------------------------


def cold_choice(caps, loads, u, proportional):
    """Group for one cold node (no placed neighbours); the numpy twin
    of the C loop's ``cold_choice``.

    Replays the legacy cold branch: ``remaining = max(caps - loads,
    0)``, then a capacity-proportional CDF draw at the uniform ``u``
    (``proportional``) or the most-remaining-capacity group.  Raises
    ``RuntimeError`` when no group has capacity left.
    """
    rem = np.maximum(caps - loads, 0.0)
    total = rem.sum()
    if total <= 0:
        raise RuntimeError("group capacities exhausted mid-stream")
    if not proportional:
        return int(np.argmax(rem))
    choice = int(np.searchsorted(np.cumsum(rem / total), u, side="right"))
    if choice >= rem.size:
        # cdf[-1] rounded one ulp below 1.0 and u fell beyond it: last
        # group with remaining capacity (the C kernel clamps the same).
        choice = int(np.flatnonzero(rem > 0)[-1])
    return choice


def _draw_uniforms(tie_stream, n):
    """Vectorised pre-draw of the per-step tie/cold uniforms."""
    if n == 0:
        return np.zeros(0, dtype=np.float64)
    return tie_stream.uniform(np.arange(n, dtype=np.int64))


# -- SBM-Part (monopartite) ---------------------------------------------------


def sbm_part_assign(
    table,
    group_sizes,
    target,
    order=None,
    capacity_weighting=True,
    tie_stream=None,
    cold_start="proportional",
    negative_gain="divide",
    prep=None,
):
    """Streaming SBM-Part assignment: the group label of every node.

    Parameters
    ----------
    table:
        monopartite :class:`~repro.tables.EdgeTable`.
    group_sizes:
        ``(k,)`` capacities ``q_t`` (must sum to >= n).
    target:
        ``(k, k)`` edge-count target in mixing-matrix convention.
    order:
        arrival order of node ids; natural order when omitted.  The
        paper's evaluation streams nodes randomly.
    capacity_weighting:
        apply the LDG-style ``(1 - s_t / q_t)`` balancing factor
        (ablation A3 turns this off).
    tie_stream:
        optional :class:`~repro.prng.RandomStream` of the per-step
        uniforms (a fixed stream when omitted): the cold-start draw,
        and the pick among tied groups that have equally most
        remaining capacity.
    cold_start:
        placement rule for nodes with no placed neighbours:
        "proportional" (default — remaining-capacity-proportional
        random draw) or "greedy" (most remaining capacity, a literal
        LDG-style reading); ablation A5 of ``docs/reproduction.md``.
    negative_gain:
        balancing of negative Frobenius gains: "divide" (default —
        keeps the balancing direction uniform) or "multiply" (literal
        application of the LDG factor); same ablation.
    prep:
        optional precomputed :class:`MatchPrep` for this
        ``(table, order)`` pair, built once by
        :func:`prepare_match_stream` when several matchings share one
        stream.

    Returns
    -------
    (n,) int64 group label per node.

    Two triangles joined by one edge, asked for all-intra-group
    edges, split along the bridge:

    >>> from repro.tables import EdgeTable
    >>> table = EdgeTable("e", [0, 0, 1, 2, 3, 3, 4], [1, 2, 2, 3, 4, 5, 5])
    >>> sbm_part_assign(table, [3, 3], np.diag([3.5, 3.5])).tolist()
    [1, 1, 1, 0, 0, 0]
    """
    n = table.num_nodes
    group_sizes = _capacities(group_sizes, n, "group sizes")
    k = group_sizes.size
    target = _finite_target(target, (k, k))
    if cold_start not in ("proportional", "greedy"):
        raise ValueError(f"unknown cold_start {cold_start!r}")
    if negative_gain not in ("divide", "multiply"):
        raise ValueError(f"unknown negative_gain {negative_gain!r}")
    if tie_stream is None:
        from ...prng import RandomStream

        tie_stream = RandomStream(0, "sbm-part.coldstart")

    prep = _stream_prep(table, order, prep)
    uniforms = _draw_uniforms(tie_stream, n)
    kernel = load_ckernel()
    if kernel is not None:
        return kernel.sbm_part_stream(
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
    # Group + 1 per node, 0 until placed (see the module docstring).
    assigned = np.zeros(n, dtype=np.int64)
    caps = group_sizes.astype(np.float64)
    loads = np.zeros(k, dtype=np.int64)
    current = np.zeros((k, k), dtype=np.float64)
    diff = current - target

    # Incrementally-maintained score state.
    neg_divide = negative_gain == "divide"
    proportional = cold_start == "proportional"
    weight = np.where(caps > 0, 1.0, 0.0)
    wclip = np.maximum(weight, 1e-9)
    twod = 2.0 * diff.ravel()[:: k + 1].copy()
    dcol_views = [diff[:, j] for j in range(k)]
    ccol_views = [current[:, j] for j in range(k)]
    tcol_views = [np.ascontiguousarray(target[:, j]) for j in range(k)]

    full_list = [int(j) for j in np.flatnonzero(group_sizes == 0)]
    full_idx = np.asarray(full_list, dtype=np.int64)
    nfull = len(full_list)

    # Scratch buffers (every per-step scoring op writes into these).
    rd = np.empty(k, dtype=np.float64)
    tb = np.empty(k, dtype=np.float64)
    s_pos = np.empty(k, dtype=np.float64)
    score = np.empty(k, dtype=np.float64)
    bb = np.empty(k, dtype=bool)

    indptr_l = prep.indptr.tolist()
    neighbors = prep.neighbors
    uni_l = uniforms.tolist()
    gs_l = group_sizes.tolist()
    caps_l = caps.tolist()
    tie_tol = REL_TIE_TOL

    for step, v in enumerate(prep.order.tolist()):
        lo = indptr_l[v]
        hi = indptr_l[v + 1]
        folded = np.bincount(
            assigned.take(neighbors[lo:hi]), minlength=k + 1
        )
        if folded[0] == hi - lo:
            choice = cold_choice(caps, loads, uni_l[step], proportional)
        else:
            c = folded[1:].astype(np.float64)
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

        assigned[v] = choice + 1
        loads[choice] += 1
        load_c = int(loads[choice])
        weight[choice] = w_c = 1.0 - load_c / caps_l[choice]
        wclip[choice] = w_c if w_c > 1e-9 else 1e-9
        if load_c >= gs_l[choice]:
            full_list.append(choice)
            full_idx = np.asarray(full_list, dtype=np.int64)
            nfull += 1
    return assigned - 1


# -- LDG ----------------------------------------------------------------------


def ldg_partition(table, capacities, order=None, tie_stream=None, prep=None):
    """Partition the nodes of ``table`` into groups of given capacities
    with LDG (Stanton & Kliot, KDD 2012).

    Each arriving node goes to the group holding most of its placed
    neighbours, weighted by the group's remaining capacity
    ``(1 - s_t / q_t)``.  The paper labels its input graphs with it
    ("we partitioned each of the graphs g into k groups ... using
    LDG"); the ablations use it as a matching baseline.

    Parameters
    ----------
    table:
        :class:`~repro.tables.EdgeTable` (monopartite).
    capacities:
        ``(k,)`` integer capacity per partition; must sum to >= n.
    order:
        node arrival order (default: natural order ``0..n-1``).
    tie_stream:
        :class:`~repro.prng.RandomStream` used to break score ties;
        ties go to the least-loaded tied partition when omitted.
    prep:
        optional precomputed :class:`MatchPrep` for this
        ``(table, order)`` pair.

    Returns
    -------
    (n,) int64 partition label per node.

    >>> from repro.tables import EdgeTable
    >>> table = EdgeTable("e", [0, 0, 1, 2, 3, 3, 4], [1, 2, 2, 3, 4, 5, 5])
    >>> ldg_partition(table, [3, 3]).tolist()
    [0, 0, 0, 1, 1, 1]
    """
    n = table.num_nodes
    capacities = _capacities(capacities, n, "capacities")
    prep = _stream_prep(table, order, prep)
    uniforms = (
        None if tie_stream is None else _draw_uniforms(tie_stream, n)
    )
    kernel = load_ckernel()
    if kernel is not None:
        return kernel.ldg_stream(prep, capacities, uniforms)
    return _ldg_stream_numpy(prep, capacities, uniforms)


def _ldg_stream_numpy(prep, capacities, uniforms):
    n = prep.num_nodes
    k = capacities.size
    assigned = np.zeros(n, dtype=np.int64)  # group + 1, 0 until placed
    caps = capacities.astype(np.float64)
    loads = np.zeros(k, dtype=np.int64)
    has_ties = uniforms is not None

    weight = np.where(caps > 0, 1.0, _NEG_INF)
    full_list = [int(j) for j in np.flatnonzero(capacities == 0)]
    full_idx = np.asarray(full_list, dtype=np.int64)
    nfull = len(full_list)

    score = np.empty(k, dtype=np.float64)
    bb = np.empty(k, dtype=bool)
    indptr_l = prep.indptr.tolist()
    neighbors = prep.neighbors
    uni_l = uniforms.tolist() if has_ties else None
    caps_l = caps.tolist()
    cap_int = capacities.tolist()

    # 0 * (-inf) = nan for zero-capacity groups; they are masked to
    # -inf right after, exactly as the legacy loop masked them.
    err_state = np.seterr(invalid="ignore")
    try:
        for step, v in enumerate(prep.order.tolist()):
            folded = np.bincount(
                assigned.take(neighbors[indptr_l[v]:indptr_l[v + 1]]),
                minlength=k + 1,
            )
            np.multiply(folded[1:], weight, out=score)
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
            assigned[v] = choice + 1
            loads[choice] += 1
            load_c = int(loads[choice])
            weight[choice] = 1.0 - load_c / caps_l[choice]
            if load_c >= cap_int[choice]:
                full_list.append(choice)
                full_idx = np.asarray(full_list, dtype=np.int64)
                nfull += 1
    finally:
        np.seterr(**err_state)
    return assigned - 1


# -- bipartite SBM-Part -------------------------------------------------------


class _Side:
    """One side's placement state in :func:`bipartite_stream`.

    ``current``, ``diff`` and ``target`` hold this side's groups as
    rows: the tail side sees the matrices themselves, the head side
    their transposed views, so one placement step serves both sides.
    """

    def __init__(self, name, sizes, n, ends, other_ends, current, diff,
                 target):
        self.name = name
        self.sizes = sizes
        # This side's node -> the other side's nodes; group + 1 per
        # node, 0 until placed.
        indptr, self.nbrs = csr_arrays(ends, other_ends, n)
        self.indptr = indptr.tolist()
        self.assigned = np.zeros(n, dtype=np.int64)
        self.loads = np.zeros(sizes.size, dtype=np.int64)
        self.weight = np.where(sizes > 0, 1.0, 0.0)
        self.full = [int(j) for j in np.flatnonzero(sizes == 0)]
        self.full_idx = np.asarray(self.full, dtype=np.int64)
        self.score = np.empty(sizes.size, dtype=np.float64)
        self.tied = np.empty(sizes.size, dtype=bool)
        self.current, self.diff, self.target = current, diff, target


def bipartite_stream(
    table, tail_sizes, head_sizes, target, order=None,
    capacity_weighting=True,
):
    """Streaming bipartite SBM-Part (kernel entry point).

    Returns ``(tail_assignment, head_assignment)``.  The two sides
    stream interleaved; a tail placement touches one row of
    ``diff = current - target`` and a head placement one column, so the
    per-node cost is one (k_tail × k_head) matvec over the node's
    placed-neighbour counts, read from the other side's ``assigned``
    array through the node's one-sided CSR row.
    """
    nt, nh = table.num_tail_nodes, table.num_head_nodes
    tail_sizes = _capacities(tail_sizes, nt, "tail group sizes")
    head_sizes = _capacities(head_sizes, nh, "head group sizes")
    target = _finite_target(target, (tail_sizes.size, head_sizes.size))
    order = _arrival_order(order, nt + nh)

    current = np.zeros(target.shape, dtype=np.float64)
    diff = current - target
    tail = _Side("tail", tail_sizes, nt, table.tails, table.heads,
                 current, diff, target)
    head = _Side("head", head_sizes, nh, table.heads, table.tails,
                 current.T, diff.T, target.T)
    weighting = bool(capacity_weighting)

    for combined in order.tolist():
        if combined < nt:
            side, other, v = tail, head, combined
        else:
            side, other, v = head, tail, combined - nt
        c = np.bincount(
            other.assigned.take(
                side.nbrs[side.indptr[v]:side.indptr[v + 1]]
            ),
            minlength=other.sizes.size + 1,
        )[1:].astype(np.float64)
        # delta = 2*(diff @ c) + S2 per candidate group of this side.
        score = side.score
        np.dot(side.diff, c, out=score)
        s2 = float(np.dot(c, c))
        np.multiply(score, 2.0, out=score)
        np.add(score, s2, out=score)
        np.negative(score, out=score)
        if weighting:
            np.multiply(score, side.weight, out=score)
        if side.full_idx.size:
            score[side.full_idx] = _NEG_INF
        am = int(np.argmax(score))
        best = float(score[am])
        if best == _NEG_INF:
            raise RuntimeError(f"{side.name} group capacities exhausted")
        np.greater_equal(score, tie_threshold(best), out=side.tied)
        if int(np.count_nonzero(side.tied)) == 1:
            choice = am
        else:
            ties = np.flatnonzero(side.tied)
            remaining = (side.sizes - side.loads)[ties]
            choice = int(ties[np.argmax(remaining)])
        side.assigned[v] = choice + 1
        side.loads[choice] += 1
        if weighting:
            side.weight[choice] = (
                1.0 - side.loads[choice] / side.sizes[choice]
            )
        if side.loads[choice] >= side.sizes[choice]:
            side.full.append(choice)
            side.full_idx = np.asarray(side.full, dtype=np.int64)
        row = side.current[choice]
        np.add(row, c, out=row)
        np.subtract(row, side.target[choice], out=side.diff[choice])

    return tail.assigned - 1, head.assigned - 1
