"""Bipartite many-to-many structure generation.

Edges between two *different* node types (e.g. Person –likes– Message)
need a bipartite SG.  This module implements the bipartite configuration
model (independent degree distributions per side, reconciled to a common
stub count) whose output feeds the bipartite variant of SBM-Part.
"""

from __future__ import annotations

import numpy as np

from .base import (
    EdgeChunkStream,
    StructureGenerator,
    deduplicated_stream,
    empty_emit,
)

__all__ = ["BipartiteConfiguration"]


class _StubEmitter:
    """Picklable raw stub pairing over spilled offsets + shuffle.

    Stub ``j`` pairs tail ``searchsorted(tail_offsets, j) - 1`` with
    the head stub at shuffled position ``perm[j]``; head stubs are
    tiled modulo their base count to reconcile the two sides, so the
    head lookup is ``searchsorted(head_offsets, perm[j] % base) - 1``
    — elementwise in ``j``, hence chunk-pure.
    """

    def __init__(self, tail_offsets, head_offsets, perm, head_base):
        self.tail_offsets = tail_offsets
        self.head_offsets = head_offsets
        self.perm = perm
        self.head_base = int(head_base)

    def __call__(self, lo, hi):
        stub_ids = np.arange(lo, hi, dtype=np.int64)
        tails = (
            np.searchsorted(
                np.asarray(self.tail_offsets), stub_ids, side="right"
            ) - 1
        ).astype(np.int64)
        shuffled = np.asarray(self.perm[lo:hi])
        if self.head_base == 0:
            heads = np.zeros(shuffled.size, dtype=np.int64)
        else:
            heads = (
                np.searchsorted(
                    np.asarray(self.head_offsets),
                    shuffled % self.head_base, side="right",
                ) - 1
            ).astype(np.int64)
        return tails, heads


class BipartiteConfiguration(StructureGenerator):
    """Bipartite configuration model.

    Parameters (via ``initialize``)
    -------------------------------
    tail_distribution, head_distribution:
        :class:`~repro.stats.Distribution` over per-node degrees for each
        side (category ``i`` = degree ``i + offset``).
    tail_offset, head_offset:
        degree offsets (default 0).
    head_nodes:
        explicit head-side node count; when omitted it is sized so the
        head-side expected stub count matches the tail side.

    ``run(n)`` takes ``n`` as the tail-side node count.  The head stub
    total is reconciled to the tail total by repeating/truncating the
    sampled head degrees' stub array.
    """

    name = "bipartite_configuration"
    emission = "chunkable"

    def parameter_names(self):
        return {
            "tail_distribution",
            "head_distribution",
            "tail_offset",
            "head_offset",
            "head_nodes",
        }

    def node_count_problem(self, n):
        if n and self._params.get("head_nodes") == 0:
            return f"has head_nodes=0 to join {n} tails to"
        return None

    def _degree_layout(self, n, stream):
        """Sample both degree sequences."""
        tail_dist = self._params.get("tail_distribution")
        head_dist = self._params.get("head_distribution")
        if tail_dist is None or head_dist is None:
            raise ValueError(
                "BipartiteConfiguration needs 'tail_distribution' and "
                "'head_distribution'"
            )
        t_off = int(self._params.get("tail_offset", 0))
        h_off = int(self._params.get("head_offset", 0))
        tail_deg = tail_dist.sample(
            stream.substream("tail"), np.arange(n, dtype=np.int64)
        ) + t_off
        total = int(tail_deg.sum())

        head_nodes = self._params.get("head_nodes")
        if head_nodes is None:
            head_mean = head_dist.mean() + h_off
            head_nodes = max(int(round(total / max(head_mean, 1e-9))), 1)
        head_nodes = int(head_nodes)
        head_deg = head_dist.sample(
            stream.substream("head"), np.arange(head_nodes, dtype=np.int64)
        ) + h_off
        return tail_deg, total, head_nodes, head_deg

    def _generate_chunked(self, n, stream, chunk_edges, spill):
        """Stub pairing over spilled offsets + shuffle, deduplicated
        through sorted runs.

        Neither stub array is materialised: the raw pairing is
        re-derived per id-range block from the degree-offset prefix
        sums and the stub shuffle (the O(total) permutation is this
        generator's documented transient — drawn once, spilled, paged
        thereafter), and duplicate ``(tail, head)`` pairs are erased by
        :func:`~repro.structure.base.deduplicated_stream`, keeping each
        pair's first stub.
        """
        tail_deg, total, head_nodes, head_deg = self._degree_layout(
            n, stream
        )
        if total == 0:
            return EdgeChunkStream(
                self.name, 0, n, head_nodes, True, empty_emit
            )
        head_base = int(head_deg.sum())
        tail_offsets = spill("tail_offsets", np.concatenate([
            np.zeros(1, dtype=np.int64),
            np.cumsum(tail_deg, dtype=np.int64),
        ]))
        head_offsets = spill("head_offsets", np.concatenate([
            np.zeros(1, dtype=np.int64),
            np.cumsum(head_deg, dtype=np.int64),
        ]))
        perm = spill(
            "perm", stream.substream("shuffle").permutation(total)
        )
        raw = EdgeChunkStream(
            self.name, total, n, head_nodes, True,
            _StubEmitter(tail_offsets, head_offsets, perm, head_base),
        )
        return deduplicated_stream(raw, chunk_edges, spill,
                                   drop_self_loops=False)

    def expected_edges_for_nodes(self, n):
        tail_dist = self._params.get("tail_distribution")
        if tail_dist is None:
            raise ValueError("generator not configured")
        return int(n * (tail_dist.mean()
                        + int(self._params.get("tail_offset", 0))))
