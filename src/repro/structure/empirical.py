"""Empirical structure generator: mimic an observed graph.

The requirements section assumes users can supply *empirical* inputs
("a file with an empirical degree distribution").  This SG takes a real
graph (as an edge table, an edge-list file, or a raw degree sequence),
extracts its degree distribution, and generates a configuration-model
graph of any requested size reproducing that distribution — the
standard "scale a real dataset up" workflow of benchmark design.
"""

from __future__ import annotations

import numpy as np

from .base import StructureGenerator, edge_table_from_pairs, ensure_even_sum
from .configuration import pair_stubs_with_repair
from ..stats import empirical_degree_distribution

__all__ = ["EmpiricalDegreeGenerator"]


class EmpiricalDegreeGenerator(StructureGenerator):
    """SG resampling an observed degree distribution at any scale.

    Parameters (via ``initialize``)
    -------------------------------
    source:
        an :class:`~repro.tables.EdgeTable` whose degree distribution
        to mimic, or
    degrees:
        a raw observed degree sequence (any length — it is resampled
        to the requested ``n``), or
    path:
        an edge-list file to load the source graph from.
    """

    name = "empirical_degrees"

    def parameter_names(self):
        return {"source", "degrees", "path"}

    def _observed_degrees(self):
        if "degrees" in self._params:
            return np.asarray(self._params["degrees"], dtype=np.int64)
        if "source" in self._params:
            return self._params["source"].degrees()
        if "path" in self._params:
            from ..io import read_edgelist

            return read_edgelist(self._params["path"]).degrees()
        raise ValueError(
            "EmpiricalDegreeGenerator needs 'source', 'degrees' or "
            "'path'"
        )

    def _generate(self, n, stream):
        observed = self._observed_degrees()
        if observed.size == 0:
            return edge_table_from_pairs(
                self.name, np.empty((0, 2), dtype=np.int64), n
            )
        distribution = empirical_degree_distribution(observed)
        degrees = ensure_even_sum(distribution.sample(
            stream.substream("degrees"), np.arange(n, dtype=np.int64)
        ), stream)
        pairs = pair_stubs_with_repair(
            degrees, stream.substream("pairing")
        )
        return edge_table_from_pairs(self.name, pairs, n)

    def expected_edges_for_nodes(self, n):
        observed = self._observed_degrees()
        if observed.size == 0:
            return 0
        return int(n * observed.mean() / 2)
