"""The evaluation protocol of Figures 3 and 4 (Section 4.2).

Verbatim from the paper:

1. generate a graph ``g`` with LFR (avg degree 20, max degree 50,
   community sizes 10..50, mu 0.1) or R-MAT (defaults);
2. partition ``g`` into ``k`` groups with LDG, group sizes proportional
   to ``max(geo(0.4, i), 1/k)`` (the truncated geometric);
3. assign property value ``i`` to the nodes of partition ``i`` and
   measure the empirical joint ``P(X, Y)``;
4. build a PT with as many rows of value ``i`` as the size of
   partition ``i``;
5. run SBM-Part on (PT, P, g) with nodes arriving in random order;
6. compare the expected and observed CDFs over value pairs sorted by
   decreasing expected probability.

:func:`run_protocol` executes the whole pipeline for one configuration
and returns a :class:`ProtocolResult` with the comparison series and
the matching's wall-clock.  It is the one protocol: every Figure 3/4
cell and the ablations of :mod:`repro.experiments.report` are a call to
it, on a graph of its own making or a prebuilt one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..core.matching import (greedy_label_match, ldg_degree_match,
                             random_match, sbm_part_match)
from ..partitioning import arrival_order, ldg_partition
from ..prng import RandomStream, derive_seed
from ..stats import (CdfComparison, TruncatedGeometric, compare_joints,
                     empirical_joint)
from ..structure import LFR, RMat
from ..tables import PropertyTable

__all__ = ["ProtocolResult", "make_graph", "run_protocol", "MATCHERS"]

#: Matcher registry for the matcher ablation (A1).
MATCHERS = ("sbm_part", "random", "ldg", "greedy")


@dataclass
class ProtocolResult:
    """One Figure-3/4 cell.

    Attributes
    ----------
    label:
        e.g. ``"LFR(10k, 16)"`` — the subplot title in the paper.
    comparison:
        :class:`~repro.stats.CdfComparison` of expected vs observed.
    seconds_matching:
        wall-clock of the matching step alone (the paper's in-text
        performance claim concerns this number).
    num_nodes, num_edges, k:
        configuration echo.
    """

    label: str
    comparison: CdfComparison
    seconds_matching: float
    num_nodes: int
    num_edges: int
    k: int

    def row(self):
        """Summary dict for printed tables (no wall-clock)."""
        metrics = self.comparison.summary()
        return {
            "label": self.label, "n": self.num_nodes, "m": self.num_edges,
            "k": self.k, "ks": round(metrics["ks"], 4),
            "l1": round(metrics["l1"], 4), "js": round(metrics["js"], 5),
        }


def make_graph(kind, size, seed):
    """Generate the evaluation input graph.

    ``kind`` is "lfr" (size = node count) or "rmat" (size = scale,
    n = 2^scale).  Parameters follow the paper exactly.
    """
    if kind == "lfr":
        return LFR(seed=seed, avg_degree=20, max_degree=50,
                   min_community=10, max_community=50, mu=0.1).run(size)
    if kind == "rmat":
        return RMat(seed=seed).run_scale(size)
    raise ValueError(f"unknown graph kind {kind!r}; use 'lfr' or 'rmat'")


def _match(matcher, ptable, joint, graph, order, seed, options):
    if matcher == "random":
        return random_match(ptable, graph, seed=seed, **options)
    place = {"sbm_part": sbm_part_match, "ldg": ldg_degree_match,
             "greedy": greedy_label_match}.get(matcher)
    if place is None:
        raise ValueError(
            f"unknown matcher {matcher!r}; choose from {MATCHERS}"
        )
    return place(ptable, joint, graph, order=order, **options).mapping


def run_protocol(kind, size, k, seed=0, matcher="sbm_part",
                 order_kind="random", geometric_p=0.4, label=None,
                 graph=None, **options):
    """Run the full Figure-3/4 protocol for one configuration.

    Parameters
    ----------
    kind, size:
        graph family and size (see :func:`make_graph`); with ``graph``
        given they only name the result.
    k:
        number of distinct property values.
    seed:
        root seed (derives graph, LDG tie, arrival and matcher seeds).
    matcher:
        one of :data:`MATCHERS` — "sbm_part" is the paper's algorithm,
        the others are ablation baselines (A1).
    order_kind:
        node arrival order for the matcher stream; the paper uses
        "random" (ablation A2 varies this).
    geometric_p:
        the truncated-geometric parameter (paper: 0.4).
    graph:
        a prebuilt :class:`~repro.tables.EdgeTable` to run on instead
        of ``make_graph(kind, size, derive_seed(seed, "graph"))``.
    options:
        passed to the matcher, e.g. SBM-Part's ``capacity_weighting``,
        ``cold_start`` and ``negative_gain`` (ablations A3 and A5).
    """
    if graph is None:
        graph = make_graph(kind, size, derive_seed(seed, "graph"))
    n = graph.num_nodes

    # Step 2: ground-truth partitioning with LDG.
    sizes = TruncatedGeometric(geometric_p, k).sizes(n)
    labels = ldg_partition(graph, sizes, tie_stream=RandomStream(
        derive_seed(seed, "ldg-ties")))

    # Step 3: measure the target joint.
    expected = empirical_joint(graph.tails, graph.heads, labels, k=k)

    # Step 4: the property table (value i repeated size_i times).
    observed_sizes = np.bincount(labels, minlength=k)
    ptable = PropertyTable(
        "protocol.value",
        np.repeat(np.arange(k, dtype=np.int64), observed_sizes),
    )

    # Step 5: match with the requested algorithm, random arrivals.
    order = arrival_order(graph, order_kind, stream=RandomStream(
        derive_seed(seed, "arrival")))
    start = time.perf_counter()
    mapping = _match(
        matcher, ptable, expected, graph, order,
        derive_seed(seed, "matcher"), options,
    )
    elapsed = time.perf_counter() - start

    # Step 6: observed joint and CDF comparison.
    matched_values = ptable.values[mapping]
    observed = empirical_joint(
        graph.tails, graph.heads, matched_values, k=k
    )
    comparison = compare_joints(expected, observed)
    if label is None:
        size_text = f"{size}" if kind == "rmat" else f"{size // 1000}k"
        label = f"{kind.upper()}({size_text},{k})"
    return ProtocolResult(label=label, comparison=comparison,
                          seconds_matching=elapsed, num_nodes=n,
                          num_edges=graph.num_edges, k=k)
