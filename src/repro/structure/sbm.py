"""Stochastic Block Model structure generator.

The SBM is the theoretical model SBM-Part targets (Section 4.2): nodes
belong to groups, and an edge between two nodes exists with a probability
``delta_ij`` depending only on their groups.  As an SG, it produces
graphs with *known* group structure and *known* joint distribution —
ideal ground truth for validating the matching algorithm (if SBM-Part is
handed a graph actually drawn from the target SBM, it should recover a
near-perfect joint).

Each block is a G(n, m) draw through the functions of
:mod:`repro.structure.erdos_renyi`: ``gaussian_edge_count`` sets its
edge count, ``sample_distinct_codes`` samples its codes through spilled
sorted runs, and a diagonal block decodes them with
``_decode_pair_codes``, an off-diagonal one by ``divmod``.
"""

from __future__ import annotations

import bisect

import numpy as np

from .base import EdgeChunkStream, StructureGenerator, _run_rows
from .erdos_renyi import (
    _decode_pair_codes,
    gaussian_edge_count,
    sample_distinct_codes,
)
from ..stats import Categorical

__all__ = ["StochasticBlockModel"]


class _BlockEmitter:
    """Picklable emitter over per-block (possibly spilled) edge codes.

    Holds ``(edge-id start, r0, c0, nc, intra, codes)`` per non-empty
    block in edge-id order; emission decodes the slices of each block
    overlapping the requested edge-id range.
    """

    def __init__(self, blocks):
        self.blocks = blocks
        self.starts = [b[0] for b in blocks]

    def __call__(self, lo, hi):
        tails_parts, heads_parts = [], []
        pos = max(0, bisect.bisect_right(self.starts, lo) - 1)
        for start, r0, c0, nc, intra, codes in self.blocks[pos:]:
            if start >= hi:
                break
            stop = start + len(codes)
            if stop <= lo:
                continue
            piece = np.asarray(codes[max(lo - start, 0):hi - start])
            # A diagonal block has c0 == r0.
            t, h = (_decode_pair_codes(piece) if intra
                    else np.divmod(piece, nc))
            tails_parts.append(r0 + t)
            heads_parts.append(c0 + h)
        if not tails_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        return np.concatenate(tails_parts), np.concatenate(heads_parts)


class StochasticBlockModel(StructureGenerator):
    """SG sampling from an SBM.

    Parameters (via ``initialize``)
    -------------------------------
    sizes:
        ``(k,)`` group sizes (``run(n)`` requires ``sum(sizes) == n``), or
    fractions:
        ``(k,)`` relative group sizes normalised against ``n``.
    probabilities:
        ``(k, k)`` symmetric matrix of per-pair edge probabilities
        ``delta_ij``.

    Every block is a G(n, m) graph: a Gaussian-approximated binomial
    edge count, then that many distinct pairs drawn uniformly within
    the block by the G(n, m) sampler.
    """

    name = "sbm"
    emission = "chunkable"
    access = "random"

    def parameter_names(self):
        return {"sizes", "fractions", "probabilities"}

    def _validate_params(self):
        probs = self._params.get("probabilities")
        if probs is not None:
            p = np.asarray(probs, dtype=np.float64)
            if p.ndim != 2 or p.shape[0] != p.shape[1]:
                raise ValueError("probabilities must be a square matrix")
            if (p < 0).any() or (p > 1).any():
                raise ValueError("probabilities must lie in [0, 1]")
            if not np.allclose(p, p.T):
                raise ValueError("probabilities must be symmetric")
        fractions = self._params.get("fractions")
        if fractions is not None:
            f = np.asarray(fractions, dtype=np.float64)
            if f.ndim != 1 or (f < 0).any() or not f.sum() > 0:
                raise ValueError(
                    "fractions must be nonnegative with positive total mass"
                )

    def node_count_problem(self, n):
        sizes = self._params.get("sizes")
        if sizes is not None and int(np.sum(sizes)) != n:
            return f"group sizes sum to {int(np.sum(sizes))}, expected n={n}"
        return None

    def _group_sizes(self, n):
        if "sizes" in self._params:
            problem = self.node_count_problem(n)
            if problem:
                raise ValueError(f"{self.name} {problem}")
            return np.asarray(self._params["sizes"], dtype=np.int64)
        fractions = self._params.get("fractions")
        if fractions is None:
            raise ValueError("SBM needs 'sizes' or 'fractions'")
        return Categorical(fractions).sizes(n)

    def group_labels(self, n):
        """Ground-truth group label per node id (ids laid out group by
        group: group 0 gets ids ``0..q0-1``, and so on)."""
        sizes = self._group_sizes(n)
        return np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)

    def _generate_chunked(self, n, stream, chunk_edges, spill):
        probs = self._params.get("probabilities")
        if probs is None:
            raise ValueError("SBM needs 'probabilities'")
        probs = np.asarray(probs, dtype=np.float64)
        sizes = self._group_sizes(n)
        if sizes.size != probs.shape[0]:
            raise ValueError(
                f"{sizes.size} groups but probability matrix is "
                f"{probs.shape[0]}x{probs.shape[1]}"
            )
        offsets = np.concatenate([[0], np.cumsum(sizes)])
        run_rows = _run_rows(chunk_edges)
        # (edge-id start, r0, c0, nc, intra, codes) per non-empty block,
        # blocks concatenated in (i, j), i <= j order.
        blocks = []
        total_m = 0
        for i in range(sizes.size):
            for j in range(i, sizes.size):
                nr, nc = int(sizes[i]), int(sizes[j])
                total = nr * (nr - 1) // 2 if i == j else nr * nc
                block_stream = stream.substream(f"block{i}.{j}")
                m = gaussian_edge_count(total, probs[i, j], block_stream, 0)
                if m == 0:
                    continue
                codes = sample_distinct_codes(
                    total, m, block_stream, spill, run_rows,
                    f"block{i}.{j}",
                )
                blocks.append((total_m, int(offsets[i]), int(offsets[j]),
                               nc, i == j, codes))
                total_m += m
        return EdgeChunkStream(
            self.name, total_m, n, n, False, _BlockEmitter(blocks)
        )

    def expected_edges_for_nodes(self, n):
        probs = self._params.get("probabilities")
        if probs is None:
            raise ValueError("generator not configured")
        probs = np.asarray(probs, dtype=np.float64)
        sizes = self._group_sizes(n).astype(np.float64)
        expected = 0.0
        for i in range(sizes.size):
            expected += probs[i, i] * sizes[i] * (sizes[i] - 1) / 2
            for j in range(i + 1, sizes.size):
                expected += probs[i, j] * sizes[i] * sizes[j]
        return int(expected)
