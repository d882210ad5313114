"""SBM-Part: the paper's property-to-node matching algorithm (Section 4.2).

The problem: given a generated graph structure ``g``, a property table
``p`` whose values induce groups of sizes ``Q = {q_0..q_{k-1}}``, and a
target joint distribution ``P(X, Y)``, assign each structure node a row
of ``p`` so that the joint distribution observed over the edges of ``g``
approximates ``P``.

The algorithm is a variation of LDG streaming partitioning: nodes arrive
one at a time with their edges; the arriving node is placed into the
group ``t`` minimising the Frobenius distance between the updated
inter-group edge-count matrix ``W_t`` and the target ``W``:

    argmin_t || W_t - W ||_F^2

with the score balanced by the remaining group capacity
``(1 - s_t / q_t)`` exactly as in LDG.  Our implementation computes the
Frobenius *delta* incrementally: placing node ``v`` with ``c_j``
already-placed neighbours in group ``j`` only perturbs row/column ``t``,
so the delta for every candidate ``t`` is computable in O(k) total
per candidate — O(k^2 + deg(v)) per node, O(n k^2 + m) overall, and in
vectorised form the k candidates are evaluated at once.

Two implementation choices resolve ambiguities the paper leaves open
(both improve measured quality on the paper's own protocol and are
exercised by the ablation benchmarks):

* **cold start** — a node with no placed neighbours has identical
  (zero) delta for every group; it is spread proportionally to
  remaining capacity rather than sent to the emptiest group, avoiding
  a deterministic pile-up in the largest group at stream start;
* **negative-gain balancing** — the LDG capacity factor multiplies
  nonnegative scores; for negative gains (every choice makes the
  matrix worse) multiplying by a small remaining-capacity factor would
  *favour* nearly-full groups, so negative gains are divided by the
  factor instead, keeping the balancing direction uniform.

The per-node loop, :func:`~repro.core.matching.kernel.sbm_part_assign`,
lives in the shared streaming-placement kernel
(:mod:`repro.core.matching.kernel`), which maintains
``current - target`` incrementally and scores candidates in O(k·deg)
per node instead of the original O(k^2); the original loop is kept
verbatim in ``tests/legacy_matching.py`` and the kernel's
assignments are pinned byte-for-byte against it by
``tests/golden/matching/``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ...partitioning.metrics import mixing_matrix
from ...tables import bucket_order
from .kernel import sbm_part_assign
from .targets import edge_count_target

__all__ = ["SbmPartResult", "sbm_part_match"]


@dataclass
class SbmPartResult:
    """Outcome of a monopartite SBM-Part run.

    Attributes
    ----------
    assignment:
        ``(n,)`` group label per structure node.
    mapping:
        ``(n,)`` PT row id per structure node (the paper's function
        ``f``).
    target:
        the ``W`` matrix the run aimed for.
    achieved:
        the final inter-group edge-count matrix actually realised.
    """

    assignment: np.ndarray
    mapping: np.ndarray
    target: np.ndarray
    achieved: np.ndarray

    @property
    def frobenius_error(self):
        """``||achieved - target||_F`` at the end of the stream."""
        return float(np.linalg.norm(self.achieved - self.target, ord="fro"))


def _mapping_from_assignment(assignment, codes):
    """Build ``f`` (structure node -> PT row) from group labels.

    The nodes of group ``g``, in ascending id order, take the PT rows
    of code ``g`` in ascending id order.  Both sides are grouped by one
    stable :func:`~repro.tables.bucket_order` each, so the whole map is
    O(n + rows); a group with more nodes than rows raises
    ``RuntimeError`` naming the group of the lowest over-assigned node.
    """
    codes = np.asarray(codes, dtype=np.int64)
    assignment = np.asarray(assignment, dtype=np.int64)
    k = max(
        int(codes.max()) + 1 if codes.size else 0,
        int(assignment.max()) + 1 if assignment.size else 0,
    )
    rows = bucket_order(codes, k)
    row_counts = np.bincount(codes, minlength=k)
    row_starts = np.cumsum(row_counts) - row_counts
    nodes = bucket_order(assignment, k)
    groups = assignment[nodes]
    node_counts = np.bincount(assignment, minlength=k)
    node_starts = np.cumsum(node_counts) - node_counts
    # rank of each node among the nodes of its group
    rank = np.arange(nodes.size) - node_starts[groups]
    over = rank >= row_counts[groups]
    if over.any():
        v = int(nodes[over].min())
        raise RuntimeError(
            f"group {assignment[v]} over-assigned: no PT rows left"
        )
    mapping = np.empty(assignment.size, dtype=np.int64)
    mapping[nodes] = rows[row_starts[groups] + rank]
    return mapping


def _match_result(ptable, joint, table, place):
    """Run one monopartite matcher and assemble its :class:`SbmPartResult`.

    Group sizes come from the PT's value counts and the target from the
    joint and the structure's edge count; ``place(group_sizes, target)``
    returns the group label of every structure node, which
    :func:`_mapping_from_assignment` turns into PT rows.  Raises
    ``ValueError`` when the joint's categories are not the PT's values
    or the PT has fewer rows than the structure has nodes.
    """
    codes, _categories = ptable.codes()
    group_sizes = np.bincount(codes)
    if joint.k != group_sizes.size:
        raise ValueError(
            f"joint has {joint.k} categories but PT {ptable.name!r} has "
            f"{group_sizes.size} distinct values"
        )
    if len(ptable) < table.num_nodes:
        raise ValueError(
            f"PT {ptable.name!r} has {len(ptable)} rows but the structure "
            f"has {table.num_nodes} nodes"
        )
    target = edge_count_target(joint, table.num_edges)
    assignment = place(group_sizes, target)
    return SbmPartResult(
        assignment=assignment,
        mapping=_mapping_from_assignment(assignment, codes),
        target=target,
        achieved=mixing_matrix(table, assignment, k=group_sizes.size),
    )


def sbm_part_match(
    ptable,
    joint,
    table,
    order=None,
    capacity_weighting=True,
    tie_stream=None,
    cold_start="proportional",
    negative_gain="divide",
    prep=None,
):
    """Full matching: PT + joint + structure -> mapping ``f``.

    This is the *match graph* task of Figure 2: group sizes come from
    the PT's value counts, the target from the joint and the structure's
    edge count, and the result maps every structure node to a concrete
    PT row whose value realises the assigned group.  The remaining
    parameters are :func:`~repro.core.matching.kernel.sbm_part_assign`'s.

    Returns
    -------
    :class:`SbmPartResult`
    """
    return _match_result(
        ptable, joint, table,
        lambda group_sizes, target: sbm_part_assign(
            table,
            group_sizes,
            target,
            order=order,
            capacity_weighting=capacity_weighting,
            tie_stream=tie_stream,
            cold_start=cold_start,
            negative_gain=negative_gain,
            prep=prep,
        ),
    )
