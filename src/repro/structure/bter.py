"""BTER: Block Two-level Erdős–Rényi (Kolda, Pinar, Plantenga, Seshadhri).

BTER reproduces a target degree distribution *and* a target clustering
coefficient per degree (the ``accd`` column of the paper's Table 1).  It
works in two phases:

Phase 1 (affinity blocks)
    Nodes sorted by degree are grouped into blocks of ``d + 1`` nodes,
    where ``d`` is the smallest degree in the block.  Each block is an
    Erdős–Rényi graph with connection probability
    ``rho = cbrt(ccd(d))`` — within a block, the probability that two
    neighbours of a node are themselves connected is ``rho``... giving
    local clustering ``≈ rho^3 = ccd(d)`` for block-internal wedges.

Phase 2 (excess degree)
    Whatever degree phase 1 does not supply is wired with a Chung–Lu
    model on the *excess* degrees ``e_i = d_i - rho (block_size - 1)``.

Degree-one nodes skip phase 1 (they cannot close triangles), as in the
reference implementation.  Both phases are :func:`two_level_blocks`,
which Darwini calls too, with finer blocks.
"""

from __future__ import annotations

import numpy as np

from .base import StructureGenerator, edge_table_from_pairs
from .degree_sequences import degree_sequence_problem, sample_degrees
from ..tables import EdgeTable

__all__ = ["BTER", "chung_lu_pairs", "two_level_blocks"]


def chung_lu_pairs(weights, stream):
    """Chung–Lu edges: endpoints drawn proportionally to ``weights``.

    The number of edges is ``sum(weights) / 2``; both endpoints of each
    edge are drawn independently from the weight distribution, then loops
    and duplicates are erased.  Deterministic given ``stream``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if (w < 0).any():
        raise ValueError("weights must be nonnegative")
    total = w.sum()
    m = int(round(total / 2.0))
    if m == 0 or total <= 0:
        return np.empty((0, 2), dtype=np.int64)
    cdf = np.cumsum(w) / total
    idx = np.arange(m, dtype=np.int64)
    tails = np.searchsorted(
        cdf, stream.substream("tails").uniform(idx), side="right"
    ).astype(np.int64)
    heads = np.searchsorted(
        cdf, stream.substream("heads").uniform(idx), side="right"
    ).astype(np.int64)
    simple = EdgeTable("chung_lu", tails, heads, num_tail_nodes=w.size,
                       num_head_nodes=w.size).deduplicated()
    return np.stack([simple.tails, simple.heads], axis=1)


def two_level_blocks(name, degrees, order, target, stream, keys=None):
    """BTER's two phases over ``degrees`` — the block builder of BTER
    and Darwini.

    Phase 1 walks the nodes of degree >= 2 in ``order`` and cuts them
    into blocks of ``d + 1`` nodes, ``d`` the degree of the block's
    first (lead) node; with ``keys``, a block also ends where the key
    changes.  Each block of two or more nodes is an Erdős–Rényi graph
    with ``rho = cbrt(target[lead])``, which spends ``rho (size - 1)``
    of every member's degree.  Phase 2 wires the leftover degree with
    :func:`chung_lu_pairs`.  Returns the union, deduplicated, as an
    :class:`~repro.tables.EdgeTable` named ``name``.
    """
    eligible = order[degrees[order] >= 2]
    excess = degrees.astype(np.float64)
    chunks = []
    pos = 0
    block_id = 0
    while pos < eligible.size:
        lead = eligible[pos]
        end = min(pos + int(degrees[lead]) + 1, eligible.size)
        if keys is not None:
            changed = keys[eligible[pos:end]] != keys[lead]
            if changed.any():
                end = pos + int(changed.argmax())
        members = eligible[pos:end]
        pos = end
        size = members.size
        if size < 2:
            continue
        rho = float(np.cbrt(target[lead]))
        if rho > 0.0:
            block_stream = stream.substream(f"block{block_id}")
            iu, ju = np.triu_indices(size, k=1)
            u = block_stream.uniform(np.arange(iu.size, dtype=np.int64))
            take = u < rho
            if take.any():
                chunks.append(
                    np.stack([members[iu[take]], members[ju[take]]], axis=1)
                )
            excess[members] -= rho * (size - 1)
        block_id += 1

    np.maximum(excess, 0.0, out=excess)
    chunks.append(chung_lu_pairs(excess, stream.substream("phase2")))
    pairs = np.concatenate(chunks, axis=0)
    return edge_table_from_pairs(name, pairs, degrees.size).deduplicated()


def _resolve_ccd(ccd, max_degree):
    """Normalise the clustering-per-degree input to a lookup array.

    Accepts a scalar (constant target), an array indexed by degree, or a
    callable ``degree -> cc``.
    """
    degrees = np.arange(max_degree + 1)
    if callable(ccd):
        values = np.array([float(ccd(int(d))) for d in degrees])
    elif np.isscalar(ccd):
        values = np.full(max_degree + 1, float(ccd))
    else:
        arr = np.asarray(ccd, dtype=np.float64)
        if arr.ndim != 1:
            raise ValueError("ccd array must be 1-D (indexed by degree)")
        values = np.zeros(max_degree + 1)
        upto = min(arr.size, max_degree + 1)
        values[:upto] = arr[:upto]
        if arr.size < max_degree + 1 and arr.size > 0:
            values[arr.size:] = arr[-1]
    if (values < 0).any() or (values > 1).any():
        raise ValueError("clustering coefficients must lie in [0, 1]")
    return values


class BTER(StructureGenerator):
    """SG implementing the BTER model.

    Parameters (via ``initialize``)
    -------------------------------
    degrees:
        explicit degree sequence, or
    avg_degree, max_degree, gamma:
        power-law sampling parameters for the sequence (defaults
        20 / 50 / 2, matching the evaluation's LFR-like regime).
    ccd:
        clustering coefficient per degree: scalar, per-degree array, or
        callable (default ``0.95 * exp(-(d - 2) / 15)``, a decaying
        profile similar to real social graphs).
    """

    name = "bter"

    @staticmethod
    def default_ccd(degree):
        """Default decaying clustering-per-degree profile."""
        if degree < 2:
            return 0.0
        return float(0.95 * np.exp(-(degree - 2) / 15.0))

    def parameter_names(self):
        return {"degrees", "avg_degree", "max_degree", "gamma", "ccd"}

    def node_count_problem(self, n):
        return degree_sequence_problem(self._params, n)

    def _generate(self, n, stream):
        if n == 0:
            return EdgeTable(self.name, [], [], num_tail_nodes=0)
        degrees = sample_degrees(self._params, n, stream)
        max_degree = int(degrees.max()) if degrees.size else 0
        ccd = _resolve_ccd(
            self._params.get("ccd", self.default_ccd), max_degree
        )
        return two_level_blocks(
            self.name, degrees, np.argsort(degrees, kind="stable"),
            ccd[degrees], stream,
        )

    def expected_edges_for_nodes(self, n):
        if "degrees" in self._params:
            return int(np.asarray(self._params["degrees"]).sum() // 2)
        return int(n * self._params.get("avg_degree", 20) / 2)
