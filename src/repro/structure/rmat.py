"""R-MAT: the recursive matrix generator (Chakrabarti et al., SDM'04).

R-MAT drops each edge into the adjacency matrix by recursively descending
into one of four quadrants with probabilities ``(a, b, c, d)``; with the
Graph500 defaults ``(0.57, 0.19, 0.19, 0.05)`` this yields a skewed
power-law-ish degree distribution with strong hubs and essentially no
community structure — which is exactly why the paper uses it as the
"hard" structure for SBM-Part (Figures 3 and 4).

Scale ``s`` means ``n = 2^s`` nodes; the Graph500 convention of
``edge_factor`` edges per node (default 16) sets ``m``.
"""

from __future__ import annotations

import numpy as np

from ._ckernel import load_structure_ckernel
from .base import (
    EdgeChunkStream,
    StructureGenerator,
    deduplicated_stream,
    empty_emit,
)

__all__ = ["RMat"]

_DEFAULT_A = 0.57
_DEFAULT_B = 0.19
_DEFAULT_C = 0.19
_DEFAULT_EDGE_FACTOR = 16


class _RawEmitter:
    """Picklable quadrant-descent emitter for the multigraph stream."""

    def __init__(self, plan, scale):
        self.plan = plan
        self.scale = scale

    def __call__(self, lo, hi):
        kernel = load_structure_ckernel()
        if kernel is not None:
            return kernel.rmat_descend(self.plan, lo, hi)
        return RMat._descend(
            self.plan, self.scale, np.arange(lo, hi, dtype=np.int64)
        )


class RMat(StructureGenerator):
    """SG implementing R-MAT / Graph500 Kronecker-style generation.

    Parameters (via ``initialize``)
    -------------------------------
    a, b, c:
        quadrant probabilities; ``d = 1 - a - b - c``.
    edge_factor:
        edges per node (Graph500 default 16).
    noise:
        per-level multiplicative jitter on (a, b, c, d) à la smoothed
        Kronecker ("noisy R-MAT"), default 0 (off).
    simplify:
        collapse duplicates / self loops into a simple undirected graph
        (default True; the matching evaluation uses simple graphs).

    Notes
    -----
    ``run(n)`` requires ``n`` to be a power of two no larger than
    ``2**31`` (:meth:`node_count_problem`); use :meth:`run_scale` for the
    conventional parameterisation.  Raw emission is a pure function of
    the edge-id range; ``simplify`` adds a global dedup through sorted
    runs (:func:`~repro.structure.base.deduplicated_stream`), so both
    configurations chunk.
    """

    name = "rmat"
    emission = "chunkable"
    access = "random"

    def random_access(self, n):
        # simplify=True pages edges from the spilled dedup result, so
        # emission is chunkable but not derivable from (seed, indices)
        # alone — point queries need the materialised table.
        if self._params.get("simplify", True):
            return False
        return super().random_access(n)

    def parameter_names(self):
        return {"a", "b", "c", "edge_factor", "noise", "simplify"}

    def _validate_params(self):
        a = self._params.get("a", _DEFAULT_A)
        b = self._params.get("b", _DEFAULT_B)
        c = self._params.get("c", _DEFAULT_C)
        if min(a, b, c) < 0 or a + b + c > 1.0 + 1e-12:
            raise ValueError(
                f"invalid quadrant probabilities a={a}, b={b}, c={c}"
            )
        noise = self._params.get("noise", 0.0)
        if not 0.0 <= noise < 1.0:
            raise ValueError("noise must lie in [0, 1)")
        ef = self._params.get("edge_factor", _DEFAULT_EDGE_FACTOR)
        if ef <= 0:
            raise ValueError("edge_factor must be positive")

    # -- public conveniences ---------------------------------------------------

    def run_scale(self, scale):
        """Generate with the Graph500 convention: ``n = 2^scale``."""
        return self.run(1 << int(scale))

    # -- generation ------------------------------------------------------------

    def node_count_problem(self, n):
        if n > 1 << 31:  # simplify's int64 pair code lo * n + hi
            return f"needs at most 2**31 nodes (scale 31), got {n}"
        if n == 0 or (n >= 2 and n & (n - 1) == 0):
            return None
        return f"needs a node count that is a power of two, got {n}"

    def _resolve_scale(self, n):
        problem = self.node_count_problem(n)
        if problem:
            raise ValueError(f"{self.name} {problem}")
        return n.bit_length() - 1

    def _level_plan(self, scale, stream):
        """Per-level ``(stream, la, lb, lc, ld)`` — the whole random
        state of a run.  Streams are counter-based, so the plan makes
        edge generation a pure function of the edge-id range."""
        a = self._params.get("a", _DEFAULT_A)
        b = self._params.get("b", _DEFAULT_B)
        c = self._params.get("c", _DEFAULT_C)
        d = 1.0 - a - b - c
        noise = self._params.get("noise", 0.0)
        plan = []
        for level in range(scale):
            level_stream = stream.substream(f"level{level}")
            if noise:
                jitter_stream = stream.substream(f"jitter{level}")
                mu = 1.0 + noise * (
                    2.0 * float(jitter_stream.uniform(np.int64(level))) - 1.0
                )
                la, lb, lc, ld = a * mu, b, c, d
                total = la + lb + lc + ld
                la, lb, lc, ld = la / total, lb / total, lc / total, ld / total
            else:
                la, lb, lc, ld = a, b, c, d
            plan.append((level_stream, la, lb, lc, ld))
        return plan

    @staticmethod
    def _descend(plan, scale, edge_idx):
        """Quadrant descent for the given edge ids (elementwise pure).

        The numpy twin of the structure kernel's ``rmat_descend``,
        which :class:`_RawEmitter` calls when it loads: one vectorised
        pass per level here, one edge through every level there, the
        same bits (``tests/test_structure_kernel.py`` holds them equal).
        """
        tails = np.zeros(edge_idx.size, dtype=np.int64)
        heads = np.zeros(edge_idx.size, dtype=np.int64)
        for level, (level_stream, la, lb, lc, ld) in enumerate(plan):
            u = level_stream.uniform(edge_idx)
            # Quadrant choice: 0 -> (0,0), 1 -> (0,1), 2 -> (1,0), 3 -> (1,1)
            right = (u >= la) & (u < la + lb) | (u >= la + lb + lc)
            down = u >= la + lb
            bit = np.int64(1 << (scale - 1 - level))
            tails += down.astype(np.int64) * bit
            heads += right.astype(np.int64) * bit
        return tails, heads

    def _generate_chunked(self, n, stream, chunk_edges, spill):
        if n == 0:
            return EdgeChunkStream(
                self.name, 0, 0, 0, False, empty_emit
            )
        scale = self._resolve_scale(n)
        edge_factor = self._params.get("edge_factor", _DEFAULT_EDGE_FACTOR)
        m = int(n * edge_factor)
        plan = self._level_plan(scale, stream)
        raw = EdgeChunkStream(
            self.name, m, n, n, False, _RawEmitter(plan, scale)
        )
        if self._params.get("simplify", True):
            return deduplicated_stream(raw, chunk_edges, spill)
        return raw

    def expected_edges_for_nodes(self, n):
        edge_factor = self._params.get("edge_factor", _DEFAULT_EDGE_FACTOR)
        # Deduplication erases a scale-dependent fraction; the raw count
        # is the conventional scale measure and a fine upper bound for
        # get_num_nodes inversion.
        return int(n * edge_factor)
