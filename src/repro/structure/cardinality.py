"""Special-case generators for 1→1 and 1→* edge types (paper Section 5).

The paper notes that one-to-one and one-to-many cardinalities "could be
efficiently handled by more specific and efficient operators" that
generate structure and guarantee the cardinality constraint *exactly*
(SBM-Part, being greedy, cannot promise strict constraints).  These are
those operators.

For a 1→* edge type like ``creates`` (a Person creates many Messages,
each Message has exactly one creator), the tail-side degree follows a
user distribution (``D_creates``, a power law in the running example)
and every head node gets exactly one incident edge — which also *sizes*
the head node type: #Messages = #creates edges, the dependency the
engine's analysis resolves.
"""

from __future__ import annotations

import numpy as np

from .base import EdgeChunkStream, StructureGenerator, slot_owners
from ..tables import EdgeTable

__all__ = ["OneToManyGenerator", "OneToOneGenerator"]


class _OffsetEmitter:
    """Picklable 1→* emitter over (possibly spilled) degree offsets."""

    def __init__(self, offsets):
        self.offsets = offsets

    def __call__(self, lo, hi):
        return (slot_owners(self.offsets, lo, hi),
                np.arange(lo, hi, dtype=np.int64))


class OneToManyGenerator(StructureGenerator):
    """Bipartite 1→* edges: tail degree from a distribution, head degree 1.

    ``run(n)`` takes ``n`` as the number of *tail* nodes; the number of
    head nodes (== number of edges) follows from the sampled tail
    degrees.  Head ids are assigned in tail order, which downstream
    matching may permute.

    Parameters (via ``initialize``)
    -------------------------------
    degree_distribution:
        :class:`~repro.stats.Distribution` over tail out-degrees
        (category ``i`` means degree ``i + degree_offset``).
    degree_offset:
        added to sampled categories (default 0; set 1 to forbid
        zero-degree tails).
    """

    name = "one_to_many"
    emission = "chunkable"
    access = "random"

    def parameter_names(self):
        return {"degree_distribution", "degree_offset"}

    def _validate_params(self):
        offset = self._params.get("degree_offset", 0)
        if offset < 0:
            raise ValueError("degree_offset must be nonnegative")

    def _tail_degrees(self, n, stream):
        dist = self._params.get("degree_distribution")
        if dist is None:
            raise ValueError("OneToManyGenerator needs 'degree_distribution'")
        offset = int(self._params.get("degree_offset", 0))
        return dist.sample(stream, np.arange(n, dtype=np.int64)) + offset

    def _generate_chunked(self, n, stream, chunk_edges, spill):
        degrees = self._tail_degrees(n, stream.substream("degrees"))
        m = int(degrees.sum())
        # Degree totals are the genuinely-global state here (ROADMAP's
        # "degree totals" spill case): O(n_tails) offsets, spillable.
        offsets = spill(
            "offsets",
            np.concatenate([
                np.zeros(1, dtype=np.int64),
                np.cumsum(degrees, dtype=np.int64),
            ]),
        )

        return EdgeChunkStream(
            self.name, m, n, m, True, _OffsetEmitter(offsets)
        )

    def expected_edges_for_nodes(self, n):
        dist = self._params.get("degree_distribution")
        if dist is None:
            raise ValueError("generator not configured")
        offset = int(self._params.get("degree_offset", 0))
        return int(n * (dist.mean() + offset))


class OneToOneGenerator(StructureGenerator):
    """1→1 edges: a bijection between two id spaces of equal size.

    The bijection is a deterministic pseudo-random permutation, so the
    pairing is non-trivial but exactly one edge touches each node on
    both sides — a strict constraint SBM-Part could only approximate.

    Parameters (via ``initialize``)
    -------------------------------
    shuffled:
        when False (default True), head ``i`` simply pairs tail ``i``.
    """

    name = "one_to_one"

    def parameter_names(self):
        return {"shuffled"}

    def _generate(self, n, stream):
        tails = np.arange(n, dtype=np.int64)
        if self._params.get("shuffled", True) and n > 1:
            heads = stream.substream("perm").permutation(n)
        else:
            heads = tails.copy()
        return EdgeTable(
            self.name,
            tails,
            heads,
            num_tail_nodes=n,
            num_head_nodes=n,
            directed=True,
        )

    def expected_edges_for_nodes(self, n):
        return n
