"""A6 — structure zoo: matching quality across eight graph families.

Extends Figures 3/4 to answer the paper's §5 question ("understanding
... the relation between the graph structure and the provided joint
probability distribution") empirically: the same matching protocol on
eight structurally different graphs of comparable size, from strongly
clustered (LFR, Watts-Strogatz, Forest Fire) to hub-dominated (R-MAT,
Kronecker, Barabási–Albert) to structureless (Erdős–Rényi).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.matching import sbm_part_match
from repro.partitioning import arrival_order, ldg_partition
from repro.prng import RandomStream, derive_seed
from repro.stats import (
    TruncatedGeometric,
    compare_joints,
    empirical_joint,
)
from repro.structure import create_generator
from repro.tables import PropertyTable
from conftest import print_table

N = 4096  # power of two so rmat/kronecker fit too
K = 16

ZOO = {
    "lfr": {"avg_degree": 16, "max_degree": 40, "mu": 0.1},
    "watts_strogatz": {"k": 16, "beta": 0.1},
    "forest_fire": {"p": 0.37},
    "bter": {"avg_degree": 16, "max_degree": 40},
    "darwini": {"avg_degree": 16, "max_degree": 40},
    "rmat": {"edge_factor": 8},
    "kronecker": {
        "initiator": [[0.9, 0.5], [0.5, 0.2]], "edge_factor": 8,
    },
    "erdos_renyi_m": {"edges_per_node": 8},
}


def _protocol_on(name, params, seed=0):
    generator = create_generator(
        name, seed=derive_seed(seed, name), **params
    )
    graph = generator.run(N)
    sizes = TruncatedGeometric(0.4, K).sizes(graph.num_nodes)
    labels = ldg_partition(graph, sizes)
    expected = empirical_joint(graph.tails, graph.heads, labels, k=K)
    ptable = PropertyTable(
        "zoo.value",
        np.repeat(np.arange(K, dtype=np.int64),
                  np.bincount(labels, minlength=K)),
    )
    order = arrival_order(
        graph, "random",
        stream=RandomStream(derive_seed(seed, f"{name}.arrival")),
    )
    match = sbm_part_match(ptable, expected, graph, order=order)
    observed = empirical_joint(
        graph.tails, graph.heads, ptable.values[match.mapping], k=K
    )
    comparison = compare_joints(expected, observed)
    # Cheap structural covariates for the table.
    degrees = graph.degrees()
    skew = float(degrees.max() / max(degrees.mean(), 1e-9))
    return {
        "structure": name,
        "m": graph.num_edges,
        "degree_skew": round(skew, 1),
        "ks": round(comparison.ks, 4),
        "l1": round(comparison.l1, 4),
    }


@pytest.fixture(scope="module")
def rows():
    return [_protocol_on(name, params) for name, params in ZOO.items()]


def test_structure_zoo(benchmark, rows):
    benchmark.pedantic(
        lambda: _protocol_on("erdos_renyi_m", ZOO["erdos_renyi_m"]),
        rounds=1, iterations=1,
    )
    ordered = sorted(rows, key=lambda row: row["ks"])
    print_table(
        "A6 — matching quality across the structure zoo "
        f"(n={N}, k={K})", ordered,
    )

    by_name = {row["structure"]: row for row in rows}
    # Clustered families must beat the hub-dominated ones.
    clustered = min(
        by_name["lfr"]["ks"], by_name["watts_strogatz"]["ks"]
    )
    hubby = min(by_name["rmat"]["ks"], by_name["kronecker"]["ks"])
    assert clustered < hubby
    # Everything beats a coin flip against the sorted-CDF metric.
    for row in rows:
        assert row["ks"] < 0.6, row

    benchmark.extra_info.update(
        {row["structure"]: row["ks"] for row in rows}
    )
