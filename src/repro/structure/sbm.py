"""Stochastic Block Model structure generator.

The SBM is the theoretical model SBM-Part targets (Section 4.2): nodes
belong to groups, and an edge between two nodes exists with a probability
``delta_ij`` depending only on their groups.  As an SG, it produces
graphs with *known* group structure and *known* joint distribution —
ideal ground truth for validating the matching algorithm (if SBM-Part is
handed a graph actually drawn from the target SBM, it should recover a
near-perfect joint).
"""

from __future__ import annotations

import bisect

import numpy as np

from .base import EdgeChunkStream, StructureGenerator

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

    def __getstate__(self):
        return self.blocks

    def __setstate__(self, blocks):
        self.__init__(blocks)

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
            t, h = StochasticBlockModel._decode_block_codes(
                piece, r0, c0, nc, intra
            )
            tails_parts.append(t)
            heads_parts.append(h)
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

    The per-block edge count is drawn from a Gaussian approximation of
    the binomial and the edges sampled uniformly without replacement
    within the block, mirroring :mod:`repro.structure.erdos_renyi`.
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
        f = np.asarray(fractions, dtype=np.float64)
        f = f / f.sum()
        quota = f * n
        sizes = np.floor(quota).astype(np.int64)
        remainder = n - int(sizes.sum())
        if remainder:
            order = np.argsort(-(quota - sizes), kind="stable")
            sizes[order[:remainder]] += 1
        return sizes

    def group_labels(self, n):
        """Ground-truth group label per node id (ids laid out group by
        group: group 0 gets ids ``0..q0-1``, and so on)."""
        sizes = self._group_sizes(n)
        return np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)

    def _sample_block_codes(self, rows, cols, prob, stream, intra):
        """Sample the linear edge codes of one block (no decoding).

        The code array is the block's only whole-size state, which is
        what emission spills; decoding a slice of it is elementwise and
        therefore chunk-pure.
        """
        r0, r1 = rows
        c0, c1 = cols
        nr, nc = r1 - r0, c1 - c0
        if intra:
            total = nr * (nr - 1) // 2
        else:
            total = nr * nc
        if total == 0 or prob <= 0.0:
            return np.empty(0, dtype=np.int64)
        mean = total * prob
        std = np.sqrt(total * prob * (1.0 - prob))
        z = float(stream.normal(np.int64(0), 0.0, 1.0))
        m = int(round(mean + std * z))
        m = max(0, min(m, total))
        if m == 0:
            return np.empty(0, dtype=np.int64)
        # Sample m distinct linear indices within the block.
        chosen = np.empty(0, dtype=np.int64)
        round_id = 0
        while chosen.size < m:
            need = m - chosen.size
            draw = int(need * 1.3) + 16
            sub = stream.substream(f"round{round_id}")
            codes = (sub.uniform(np.arange(draw, dtype=np.int64))
                     * total).astype(np.int64)
            chosen = np.unique(np.concatenate([chosen, codes]))
            round_id += 1
        if chosen.size > m:
            keys = stream.substream("thin").uniform(chosen)
            chosen = chosen[np.argsort(keys, kind="stable")[:m]]
        return chosen

    @staticmethod
    def _decode_block_codes(chosen, r0, c0, nc, intra):
        """Decode block codes into ``(tails, heads)`` (elementwise)."""
        if intra:
            k = chosen.astype(np.float64)
            u = np.floor((1.0 + np.sqrt(1.0 + 8.0 * k)) / 2.0).astype(np.int64)
            tri = u * (u - 1) // 2
            u[tri > chosen] -= 1
            tri = u * (u - 1) // 2
            u[chosen >= tri + u] += 1
            tri = u * (u - 1) // 2
            v = chosen - tri
            return r0 + v, r0 + u
        u = chosen // nc
        v = chosen % nc
        return r0 + u, c0 + v

    def _block_layout(self, n):
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
        return probs, sizes, offsets

    def _generate_chunked(self, n, stream, chunk_edges, spill):
        probs, sizes, offsets = self._block_layout(n)
        k = sizes.size
        # (edge-id start, r0, c0, nc, intra, codes) per non-empty block,
        # blocks concatenated in (i, j), i <= j order.
        blocks = []
        total_m = 0
        for i in range(k):
            for j in range(i, k):
                block_stream = stream.substream(f"block{i}.{j}")
                chosen = self._sample_block_codes(
                    (offsets[i], offsets[i + 1]),
                    (offsets[j], offsets[j + 1]),
                    probs[i, j],
                    block_stream,
                    intra=(i == j),
                )
                if chosen.size:
                    codes = spill(f"block{i}.{j}", chosen)
                    blocks.append((
                        total_m,
                        int(offsets[i]),
                        int(offsets[j]),
                        int(offsets[j + 1] - offsets[j]),
                        i == j,
                        codes,
                    ))
                    total_m += chosen.size
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
