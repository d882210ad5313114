"""LFR benchmark graphs (Lancichinetti, Fortunato, Radicchi 2008).

LFR produces graphs with power-law degree *and* community-size
distributions and a tunable mixing factor ``mu`` — the fraction of each
node's edges that leave its community.  The paper's evaluation generates
LFR graphs with average degree 20, max degree 50, community sizes in
[10, 50] and ``mu = 0.1`` (the parameters of Lancichinetti & Fortunato's
comparative analysis), i.e. graphs with pronounced, planted community
structure — the "easy" case for SBM-Part.

Implementation notes
--------------------
This is a from-scratch numpy implementation of the published pipeline:

1. sample degrees ``d_i`` from a power law (exponent ``tau1``, default 2)
   calibrated to the average degree;
2. sample community sizes from a power law (exponent ``tau2``, default 1)
   on ``[min_community, max_community]`` summing to ``n``;
3. split each degree into an internal part ``(1 - mu) d_i`` and an
   external part ``mu d_i``;
4. assign nodes to communities large enough to host their internal
   degree (capacity-weighted random assignment over the eligible
   communities, processed in decreasing internal-degree order so the
   eligible set only grows);
5. wire internal stubs with a per-community configuration model and
   external stubs with a global configuration model (erased variant:
   loops and duplicate edges dropped).

The planted community labels are exposed via the ``communities``
attribute of the returned table's companion (see :meth:`run_with_labels`),
which the evaluation protocol and tests use as ground truth.
"""

from __future__ import annotations

import numpy as np

from ._ckernel import load_structure_ckernel
from .base import StructureGenerator
from .configuration import pair_stubs_with_repair
from .degree_sequences import (
    degree_sequence_problem,
    powerlaw_degree_sequence,
)
from ..stats import PowerLaw
from ..tables import EdgeTable

__all__ = ["LFR", "LfrResult"]


class LfrResult:
    """Output of :meth:`LFR.run_with_labels`.

    Attributes
    ----------
    table:
        the generated :class:`EdgeTable`.
    communities:
        ``(n,)`` int64 planted community id per node.
    """

    __slots__ = ("table", "communities")

    def __init__(self, table, communities):
        self.table = table
        self.communities = communities

    @property
    def num_communities(self):
        return int(self.communities.max()) + 1 if self.communities.size else 0


class LFR(StructureGenerator):
    """SG implementing the LFR community benchmark.

    Parameters (via ``initialize``)
    -------------------------------
    avg_degree:
        target mean degree (paper: 20).
    max_degree:
        maximum degree (paper: 50).
    min_community, max_community:
        community size bounds (paper: 10 and 50).
    mu:
        mixing factor in [0, 1) (paper: 0.1).
    tau1:
        degree exponent (LFR default 2).
    tau2:
        community-size exponent (LFR default 1).
    """

    name = "lfr"

    def parameter_names(self):
        return {
            "avg_degree",
            "max_degree",
            "min_community",
            "max_community",
            "mu",
            "tau1",
            "tau2",
        }

    def _validate_params(self):
        p = self._params
        mu = p.get("mu", 0.1)
        if not 0.0 <= mu < 1.0:
            raise ValueError("mu must lie in [0, 1)")
        cmin = p.get("min_community", 10)
        cmax = p.get("max_community", 50)
        if cmin < 2 or cmax < cmin:
            raise ValueError("need 2 <= min_community <= max_community")
        if p.get("avg_degree", 20) <= 0:
            raise ValueError("avg_degree must be positive")
        if p.get("max_degree", 50) < 1:
            raise ValueError("max_degree must be >= 1")

    def node_count_problem(self, n):
        return degree_sequence_problem(self._params, n)

    # -- pipeline pieces -----------------------------------------------------

    def _community_sizes(self, n, stream):
        """Power-law community sizes summing exactly to ``n``."""
        cmin = self._params.get("min_community", 10)
        cmax = min(self._params.get("max_community", 50), n)
        if cmin > n:
            # Degenerate tiny graph: one community holds everyone.
            return np.array([n], dtype=np.int64)
        tau2 = self._params.get("tau2", 1.0)
        dist = PowerLaw(tau2, cmin, cmax)
        # Draw i is a pure function of i and every size is >= cmin, so
        # one batch of ceil(n / cmin) draws always reaches n; keep the
        # prefix up to the first running total >= n.
        drawn = dist.sample_values(
            stream, np.arange(-(-n // cmin), dtype=np.int64)
        )
        totals = np.cumsum(drawn)
        count = int(np.searchsorted(totals, n)) + 1
        sizes = drawn[:count].tolist()
        overshoot = int(totals[count - 1]) - n
        # Shave the overshoot off the last community; merge it into the
        # previous one if that pushes it below the minimum size.
        sizes[-1] -= overshoot
        if sizes[-1] < cmin and len(sizes) > 1:
            sizes[-2] += sizes[-1]
            sizes.pop()
        return np.array(sizes, dtype=np.int64)

    def _assign_communities(self, internal_degrees, sizes, stream):
        """Capacity-weighted assignment of nodes to eligible communities.

        A node with internal degree ``d`` can only live in a community of
        size ``> d``.  Nodes are processed by decreasing internal degree;
        communities sorted by decreasing size, so the eligible set is a
        growing prefix.  Sampling within the prefix is proportional to
        remaining capacity via a Fenwick tree (O(log C) per draw) —
        compiled when a C compiler is available, the Python walk below
        otherwise (and whenever the kernel declines: it raises the
        exhaustion error).
        """
        n = internal_degrees.size
        order_c = np.argsort(-sizes, kind="stable")
        sorted_sizes = sizes[order_c]
        order_n = np.argsort(-internal_degrees, kind="stable")
        kernel = load_structure_ckernel()
        if kernel is not None:
            assignment = kernel.lfr_assign(
                order_n, internal_degrees, sorted_sizes, order_c,
                stream.seed,
            )
            if assignment is not None:
                return assignment
        capacities = sorted_sizes.astype(np.int64).copy()
        num_c = sizes.size

        fenwick = np.zeros(num_c + 1, dtype=np.int64)

        def fen_add(pos, delta):
            i = pos + 1
            while i <= num_c:
                fenwick[i] += delta
                i += i & (-i)

        def fen_total():
            i = num_c
            total = 0
            while i > 0:
                total += fenwick[i]
                i -= i & (-i)
            return total

        def fen_find(target):
            # Smallest prefix position with cumulative sum > target.
            pos = 0
            bit = 1 << (num_c.bit_length())
            remaining = target
            while bit:
                nxt = pos + bit
                if nxt <= num_c and fenwick[nxt] <= remaining:
                    remaining -= fenwick[nxt]
                    pos = nxt
                bit >>= 1
            return pos  # 0-based community index in sorted order

        assignment = np.empty(n, dtype=np.int64)
        opened = 0
        u = stream.uniform(np.arange(n, dtype=np.int64))
        for rank, node in enumerate(order_n):
            d_int = int(internal_degrees[node])
            while opened < num_c and sorted_sizes[opened] > d_int:
                fen_add(opened, int(capacities[opened]))
                opened += 1
            total = fen_total()
            if total <= 0:
                # No eligible capacity left: relax by opening the largest
                # still-closed community (its size <= d_int, so clamp the
                # node's internal degree implicitly — the wiring step
                # clips to community size anyway).
                if opened < num_c:
                    fen_add(opened, int(capacities[opened]))
                    opened += 1
                    total = fen_total()
                else:
                    raise RuntimeError(
                        "LFR: community capacity exhausted; "
                        "inconsistent size/degree configuration"
                    )
            target = int(u[rank] * total)
            pos = fen_find(target)
            assignment[node] = order_c[pos]
            capacities[pos] -= 1
            fen_add(pos, -1)
        return assignment

    def _wire(self, n, degrees, assignment, sizes, mu, stream):
        """Wire internal stubs per community and external stubs globally."""
        internal = np.rint((1.0 - mu) * degrees).astype(np.int64)
        # Internal degree cannot exceed community size - 1.
        comm_size_of = sizes[assignment]
        internal = np.minimum(internal, comm_size_of - 1)
        internal = np.maximum(internal, 0)
        external = degrees - internal

        # Per-community configuration model on internal stubs.
        comm_order = np.argsort(assignment, kind="stable")
        boundaries = np.searchsorted(
            assignment[comm_order], np.arange(sizes.size + 1)
        )
        pair_chunks = self._wire_communities(
            comm_order, boundaries, internal, stream
        )

        # Global configuration model on external stubs.
        ext = external.copy()
        if int(ext.sum()) % 2 == 1:
            top = int(np.argmax(ext))
            ext[top] -= 1
        ext_pairs = pair_stubs_with_repair(ext, stream.substream("inter"))
        if ext_pairs.size:
            pair_chunks.append(ext_pairs)

        if pair_chunks:
            pairs = np.concatenate(pair_chunks, axis=0)
        else:
            pairs = np.empty((0, 2), dtype=np.int64)
        # Into the dedup, the memory peak, goes only the table's copy.
        del pair_chunks, ext_pairs
        table = EdgeTable(
            self.name,
            pairs[:, 0],
            pairs[:, 1],
            num_tail_nodes=n,
            num_head_nodes=n,
        )
        del pairs
        return table.deduplicated()

    @staticmethod
    def _wire_communities(comm_order, boundaries, internal, stream):
        """Internal pairs of every community, as a list of ``(m, 2)``
        node-id chunks in community order: one compiled call over all
        communities when the kernel loads, one
        ``pair_stubs_with_repair`` per community otherwise."""
        kernel = load_structure_ckernel()
        if kernel is not None:
            pairs = kernel.lfr_intra(
                comm_order, boundaries, internal, stream.seed
            )
            if pairs is not None:
                return [pairs]
        pair_chunks = []
        for c in range(boundaries.size - 1):
            members = comm_order[boundaries[c]:boundaries[c + 1]]
            if members.size < 2:
                continue
            local_deg = internal[members].copy()
            if int(local_deg.sum()) % 2 == 1:
                # Drop one stub from the largest-degree member.
                top = int(np.argmax(local_deg))
                if local_deg[top] > 0:
                    local_deg[top] -= 1
            local_pairs = pair_stubs_with_repair(
                local_deg, stream.substream(f"intra{c}")
            )
            if local_pairs.size:
                pair_chunks.append(members[local_pairs])
        return pair_chunks

    # -- SG contract -----------------------------------------------------------

    def run_with_labels(self, n):
        """Generate and also return the planted community labels."""
        n = int(n)
        if n == 0:
            empty = EdgeTable(self.name, [], [], num_tail_nodes=0)
            return LfrResult(empty, np.empty(0, dtype=np.int64))
        problem = self.node_count_problem(n)
        if problem:
            raise ValueError(f"{self.name} {problem}")
        from ..prng import RandomStream

        stream = RandomStream(self.seed, f"sg.{self.name}")
        mu = self._params.get("mu", 0.1)
        degrees = powerlaw_degree_sequence(
            n,
            self._params.get("tau1", 2.0),
            self._params.get("avg_degree", 20),
            self._params.get("max_degree", 50),
            stream.substream("degrees"),
        )
        sizes = self._community_sizes(n, stream.substream("sizes"))
        internal = np.rint((1.0 - mu) * degrees).astype(np.int64)
        assignment = self._assign_communities(
            internal, sizes, stream.substream("assign")
        )
        table = self._wire(n, degrees, assignment, sizes, mu, stream)
        return LfrResult(table, assignment)

    def _generate(self, n, stream):
        return self.run_with_labels(n).table

    def expected_edges_for_nodes(self, n):
        return int(n * self._params.get("avg_degree", 20) / 2)
