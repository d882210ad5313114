"""Stochastic Kronecker graphs (general initiator matrices).

R-MAT is the special case of a 2x2 initiator; the general model
(Leskovec et al.) raises an ``s x s`` probability initiator to the
k-th Kronecker power and samples edges from the resulting matrix.
Sampling follows the standard R-MAT-style recursive descent — per
edge, one cell of the initiator is drawn per level — which is exact
for edge placement proportional to the Kronecker product.
"""

from __future__ import annotations

import numpy as np

from .base import StructureGenerator
from ..tables import EdgeTable

__all__ = ["KroneckerGenerator"]


class KroneckerGenerator(StructureGenerator):
    """SG sampling a stochastic Kronecker graph.

    Parameters (via ``initialize``)
    -------------------------------
    initiator:
        ``(s, s)`` nonnegative weight matrix (normalised internally).
    edge_factor:
        edges per node (default 16, Graph500-style).
    simplify:
        drop loops/duplicates (default True).

    ``run(n)`` requires ``n`` to be a power of ``s``.
    """

    name = "kronecker"

    def parameter_names(self):
        return {"initiator", "edge_factor", "simplify"}

    def _validate_params(self):
        initiator = self._params.get("initiator")
        if initiator is not None:
            matrix = np.asarray(initiator, dtype=np.float64)
            if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
                raise ValueError("initiator must be square")
            if matrix.shape[0] < 2:
                raise ValueError("initiator must be at least 2x2")
            if (matrix < 0).any() or matrix.sum() <= 0:
                raise ValueError(
                    "initiator must be nonnegative with positive mass"
                )
        edge_factor = self._params.get("edge_factor", 16)
        if edge_factor <= 0:
            raise ValueError("edge_factor must be positive")

    def node_count_problem(self, n):
        initiator = self._params.get("initiator")
        side = 0 if initiator is None else len(initiator)
        size = 1
        while 1 < side and size < n:
            size *= side
        if side and n and size != n:
            return f"needs a node count that is a power of {side}, got {n}"
        return None

    def _levels_for(self, n, side):
        levels = 0
        size = 1
        while size < n:
            size *= side
            levels += 1
        if size != n:
            raise ValueError(
                f"Kronecker requires n to be a power of {side}, got {n}"
            )
        return levels

    def _generate(self, n, stream):
        initiator = self._params.get("initiator")
        if initiator is None:
            raise ValueError("KroneckerGenerator needs 'initiator'")
        matrix = np.asarray(initiator, dtype=np.float64)
        matrix = matrix / matrix.sum()
        side = matrix.shape[0]
        if n == 0:
            return EdgeTable(self.name, [], [], num_tail_nodes=0)
        levels = self._levels_for(n, side)
        m = int(n * self._params.get("edge_factor", 16))

        flat = matrix.ravel()
        cdf = np.cumsum(flat)
        tails = np.zeros(m, dtype=np.int64)
        heads = np.zeros(m, dtype=np.int64)
        edge_idx = np.arange(m, dtype=np.int64)
        for level in range(levels):
            level_stream = stream.substream(f"level{level}")
            u = level_stream.uniform(edge_idx)
            cells = np.searchsorted(cdf, u, side="right")
            cells = np.minimum(cells, flat.size - 1)
            rows = cells // side
            cols = cells % side
            tails = tails * side + rows
            heads = heads * side + cols
        table = EdgeTable(
            self.name, tails, heads, num_tail_nodes=n, num_head_nodes=n
        )
        if self._params.get("simplify", True):
            table = table.deduplicated()
        return table

    def expected_edges_for_nodes(self, n):
        return int(n * self._params.get("edge_factor", 16))
