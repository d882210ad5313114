"""Frozen reference implementations of the streaming matchers.

These are the original per-node Python loops of ``sbm_part_assign``,
``bipartite_sbm_part_match`` and ``ldg_partition``, preserved verbatim
when the streaming-placement kernel (:mod:`repro.core.matching.kernel`)
replaced them on the hot path.  They exist for two reasons:

* **equivalence proofs** — ``tests/test_matching_kernel.py`` streams
  randomised instances through both paths and asserts byte-identical
  assignments, and ``tests/golden/matching/`` freezes the outputs these
  loops produced on fixed seeds;
* **benchmark baselines** — ``benchmarks/bench_ablation_matchers.py``
  reports the kernel's speedup against exactly this code.

Do not "fix" or optimise anything here; the entire value of the module
is that it never changes.  Note the tie tolerance is the original
*absolute* ``1e-12`` (the kernel uses a relative band; see
``kernel.tie_threshold``).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "legacy_bipartite_assignments",
    "legacy_ldg_partition",
    "legacy_sbm_part_assign",
]


def legacy_sbm_part_assign(
    table,
    group_sizes,
    target,
    order=None,
    capacity_weighting=True,
    tie_stream=None,
    cold_start="proportional",
    negative_gain="divide",
):
    """The original O(k^2)-per-node SBM-Part streaming loop."""
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
    target = np.asarray(target, dtype=np.float64)
    if target.shape != (k, k):
        raise ValueError(
            f"target must be ({k}, {k}), got {target.shape}"
        )

    if order is None:
        order = np.arange(n, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
        if order.size != n:
            raise ValueError("order must enumerate all n nodes")
    if tie_stream is None:
        from ...prng import RandomStream

        tie_stream = RandomStream(0, "sbm-part.coldstart")

    indptr, neighbors = table.adjacency_csr()
    assignment = np.full(n, -1, dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    current = np.zeros((k, k), dtype=np.float64)
    caps = group_sizes.astype(np.float64)
    counts = np.zeros(k, dtype=np.float64)

    for step, v in enumerate(order):
        nbrs = neighbors[indptr[v]:indptr[v + 1]]
        placed = assignment[nbrs]
        placed = placed[placed >= 0]
        counts[:] = 0.0
        if placed.size:
            np.add.at(counts, placed, 1.0)

        if not counts.any():
            remaining = np.maximum(caps - loads, 0.0)
            total = remaining.sum()
            if total <= 0:
                raise RuntimeError(
                    "group capacities exhausted mid-stream"
                )
            if cold_start == "proportional":
                u = float(tie_stream.uniform(np.int64(step)))
                cdf = np.cumsum(remaining / total)
                choice = int(np.searchsorted(cdf, u, side="right"))
            elif cold_start == "greedy":
                choice = int(np.argmax(remaining))
            else:
                raise ValueError(
                    f"unknown cold_start {cold_start!r}"
                )
            assignment[v] = choice
            loads[choice] += 1
            continue

        diff = current - target
        cross = diff * counts[np.newaxis, :]
        sq = counts * counts
        row_term = 2.0 * (2.0 * cross.sum(axis=1) + sq.sum())
        diag_idx = np.arange(k)
        diag_term = (
            2.0 * diff[diag_idx, diag_idx] * counts + sq
        )
        delta = row_term - 2.0 * (2.0 * cross[diag_idx, diag_idx] + sq) \
            + diag_term

        gain = -delta
        if capacity_weighting:
            with np.errstate(divide="ignore", invalid="ignore"):
                weight = np.where(caps > 0, 1.0 - loads / caps, 0.0)
            if negative_gain == "divide":
                score = np.where(
                    gain >= 0,
                    gain * weight,
                    gain / np.maximum(weight, 1e-9),
                )
            elif negative_gain == "multiply":
                score = gain * weight
            else:
                raise ValueError(
                    f"unknown negative_gain {negative_gain!r}"
                )
        else:
            score = gain.copy()
        score[loads >= group_sizes] = -np.inf
        best = float(score.max())
        if not np.isfinite(best):
            raise RuntimeError("group capacities exhausted mid-stream")
        candidates = np.flatnonzero(score >= best - 1e-12)
        if candidates.size == 1:
            choice = int(candidates[0])
        else:
            remaining = caps[candidates] - loads[candidates]
            top = candidates[remaining == remaining.max()]
            if top.size > 1:
                pick = int(
                    tie_stream.randint(np.int64(step), 0, top.size)
                )
                choice = int(top[pick])
            else:
                choice = int(top[0])

        assignment[v] = choice
        loads[choice] += 1
        current[choice, :] += counts
        current[:, choice] += counts
        current[choice, choice] -= counts[choice]
    return assignment


def legacy_ldg_partition(table, capacities, order=None, tie_stream=None):
    """The original per-node LDG streaming loop."""
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
    k = capacities.size
    if order is None:
        order = np.arange(n, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
        if order.size != n:
            raise ValueError("order must enumerate all n nodes")

    indptr, neighbors = table.adjacency_csr()
    assignment = np.full(n, -1, dtype=np.int64)
    loads = np.zeros(k, dtype=np.int64)
    caps = capacities.astype(np.float64)
    neighbor_counts = np.zeros(k, dtype=np.float64)

    for step, v in enumerate(order):
        nbrs = neighbors[indptr[v]:indptr[v + 1]]
        placed = assignment[nbrs]
        placed = placed[placed >= 0]
        neighbor_counts[:] = 0.0
        if placed.size:
            np.add.at(neighbor_counts, placed, 1.0)
        with np.errstate(divide="ignore", invalid="ignore"):
            weight = np.where(caps > 0, 1.0 - loads / caps, -np.inf)
        scores = neighbor_counts * weight
        scores[loads >= capacities] = -np.inf
        best = float(scores.max())
        if not np.isfinite(best):
            raise RuntimeError("no partition with remaining capacity")
        candidates = np.flatnonzero(scores == best)
        if candidates.size == 1:
            choice = int(candidates[0])
        elif tie_stream is not None:
            pick = int(tie_stream.randint(np.int64(step), 0, candidates.size))
            choice = int(candidates[pick])
        else:
            choice = int(candidates[np.argmin(loads[candidates])])
        assignment[v] = choice
        loads[choice] += 1
    return assignment


def legacy_bipartite_assignments(
    table,
    tail_sizes,
    head_sizes,
    target,
    order=None,
    capacity_weighting=True,
):
    """The original interleaved bipartite SBM-Part streaming loop.

    Returns ``(tail_assignment, head_assignment)``; target building,
    mapping and the achieved matrix live in the public wrapper.
    """
    nt, nh = table.num_tail_nodes, table.num_head_nodes
    tail_sizes = np.asarray(tail_sizes, dtype=np.int64)
    head_sizes = np.asarray(head_sizes, dtype=np.int64)
    kt, kh = tail_sizes.size, head_sizes.size
    target = np.asarray(target, dtype=np.float64)

    if order is None:
        order = np.arange(nt + nh, dtype=np.int64)
    else:
        order = np.asarray(order, dtype=np.int64)
        if order.size != nt + nh:
            raise ValueError("order must enumerate all tail+head nodes")

    # Tail -> heads
    order_t = np.argsort(table.tails, kind="stable")
    t_indptr = np.zeros(nt + 1, dtype=np.int64)
    np.cumsum(np.bincount(table.tails, minlength=nt), out=t_indptr[1:])
    t_neighbors = table.heads[order_t]
    # Head -> tails
    order_h = np.argsort(table.heads, kind="stable")
    h_indptr = np.zeros(nh + 1, dtype=np.int64)
    np.cumsum(np.bincount(table.heads, minlength=nh), out=h_indptr[1:])
    h_neighbors = table.tails[order_h]

    tail_assign = np.full(nt, -1, dtype=np.int64)
    head_assign = np.full(nh, -1, dtype=np.int64)
    tail_loads = np.zeros(kt, dtype=np.int64)
    head_loads = np.zeros(kh, dtype=np.int64)
    current = np.zeros((kt, kh), dtype=np.float64)

    for combined in order:
        if combined < nt:
            v = int(combined)
            nbrs = t_neighbors[t_indptr[v]:t_indptr[v + 1]]
            placed = head_assign[nbrs]
            placed = placed[placed >= 0]
            counts = np.zeros(kh, dtype=np.float64)
            if placed.size:
                np.add.at(counts, placed, 1.0)
            diff = current - target
            delta = (
                2.0 * (diff * counts[np.newaxis, :]).sum(axis=1)
                + (counts * counts).sum()
            )
            gain = -delta
            if capacity_weighting:
                with np.errstate(divide="ignore", invalid="ignore"):
                    weight = np.where(
                        tail_sizes > 0, 1.0 - tail_loads / tail_sizes, 0.0
                    )
                score = gain * weight
            else:
                score = gain
            score = np.where(tail_loads >= tail_sizes, -np.inf, score)
            best = float(score.max())
            if not np.isfinite(best):
                raise RuntimeError("tail group capacities exhausted")
            ties = np.flatnonzero(score >= best - 1e-12)
            remaining = (tail_sizes - tail_loads)[ties]
            choice = int(ties[np.argmax(remaining)])
            tail_assign[v] = choice
            tail_loads[choice] += 1
            if counts.any():
                current[choice, :] += counts
        else:
            v = int(combined - nt)
            nbrs = h_neighbors[h_indptr[v]:h_indptr[v + 1]]
            placed = tail_assign[nbrs]
            placed = placed[placed >= 0]
            counts = np.zeros(kt, dtype=np.float64)
            if placed.size:
                np.add.at(counts, placed, 1.0)
            diff = current - target
            delta = (
                2.0 * (diff * counts[:, np.newaxis]).sum(axis=0)
                + (counts * counts).sum()
            )
            gain = -delta
            if capacity_weighting:
                with np.errstate(divide="ignore", invalid="ignore"):
                    weight = np.where(
                        head_sizes > 0, 1.0 - head_loads / head_sizes, 0.0
                    )
                score = gain * weight
            else:
                score = gain
            score = np.where(head_loads >= head_sizes, -np.inf, score)
            best = float(score.max())
            if not np.isfinite(best):
                raise RuntimeError("head group capacities exhausted")
            ties = np.flatnonzero(score >= best - 1e-12)
            remaining = (head_sizes - head_loads)[ties]
            choice = int(ties[np.argmax(remaining)])
            head_assign[v] = choice
            head_loads[choice] += 1
            if counts.any():
                current[:, choice] += counts

    return tail_assign, head_assign
