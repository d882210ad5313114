"""Regenerate the structure-generator golden digests.

Run from the repository root::

    PYTHONPATH=src python tests/golden/structure/regenerate.py

The fixture pins the exact edges every registered structure generator
produces: for each case and seed, ``digests.json`` holds the sha256 of
``run(n)`` and, where the configuration is chunkable, of
``run_chunked(n, 37)`` read back 37 edges at a time.  Each digest
covers the tail and head columns, both id-space sizes, the
orientation and the table name.  ``tests/test_structure_golden.py``
recomputes every digest with the compiled kernels and with
``REPRO_NO_CKERNEL=1``, so a change to any sampler — draw order,
dedup rule, block layout, chunk slicing — fails loudly instead of
silently regenerating every downstream graph differently.

Only rerun this script when an edge change is *intended*; the fixture
diff then documents exactly which generators changed.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

GOLDEN_DIR = Path(__file__).resolve().parent
FIXTURE_PATH = GOLDEN_DIR / "digests.json"

SEEDS = (5, 2017)
CHUNK_EDGES = 37

#: The A6 structure-zoo parameters (``repro report``), at its n = 4096.
A6 = {
    "lfr": {"avg_degree": 16, "max_degree": 40, "mu": 0.1},
    "watts_strogatz": {"k": 16, "beta": 0.1},
    "forest_fire": {"p": 0.37},
    "bter": {"avg_degree": 16, "max_degree": 40},
    "darwini": {"avg_degree": 16, "max_degree": 40},
    "rmat": {"edge_factor": 8},
    "kronecker": {"initiator": [[0.9, 0.5], [0.5, 0.2]], "edge_factor": 8},
    "erdos_renyi_m": {"edges_per_node": 8},
}


def cases():
    """case name -> ``(generator name, params, n)``.

    Every registered generator appears at least once.
    """
    from repro.stats import TruncatedGeometric, Zipf, homophily_joint

    table = {f"a6_{name}": (name, params, 4096)
             for name, params in A6.items()}
    table.update({
        "rmat_simplify": ("rmat", {"edge_factor": 6}, 512),
        "rmat_raw": ("rmat", {"edge_factor": 4, "simplify": False}, 256),
        "rmat_noise": ("rmat", {"edge_factor": 6, "noise": 0.2,
                                "a": 0.45, "b": 0.2, "c": 0.25}, 512),
        "lfr_small": ("lfr", {"avg_degree": 8, "max_degree": 20,
                              "min_community": 8, "max_community": 30,
                              "mu": 0.3}, 600),
        "bter_degrees": ("bter", {"degrees": [1, 2, 2, 3, 3, 3, 4, 4, 5,
                                              6, 2, 7, 3, 1, 8, 2, 4, 5],
                                  "ccd": 0.5}, 18),
        "bter_ccd_array": ("bter", {"avg_degree": 6, "max_degree": 15,
                                    "ccd": [0.0, 0.0, 0.9, 0.7, 0.5]},
                           700),
        "darwini_bins": ("darwini", {"avg_degree": 6, "max_degree": 15,
                                     "cc_bins": 3}, 700),
        "empirical_degrees": ("empirical_degrees",
                              {"degrees": [1, 1, 2, 2, 2, 3, 4, 6, 9]},
                              500),
        "erdos_renyi": ("erdos_renyi", {"p": 0.02}, 700),
        "erdos_renyi_dense": ("erdos_renyi", {"p": 0.9}, 40),
        "erdos_renyi_m_exact": ("erdos_renyi_m", {"m": 300}, 60),
        "erdos_renyi_m_full": ("erdos_renyi_m", {"m": 45}, 10),
        "configuration": ("configuration",
                          {"distribution": Zipf(1.2, 15)}, 500),
        "configuration_multigraph": ("configuration",
                                     {"distribution": Zipf(0.8, 10),
                                      "simplify": False}, 300),
        "kronecker_3x3": ("kronecker",
                          {"initiator": [[0.7, 0.3, 0.2], [0.3, 0.5, 0.1],
                                         [0.2, 0.1, 0.4]],
                           "edge_factor": 5}, 243),
        "hyperbolic": ("hyperbolic", {"avg_degree": 8, "gamma": 2.7}, 400),
        "barabasi_albert": ("barabasi_albert", {"m": 3}, 500),
        "sbm_sizes": ("sbm", {"sizes": [150, 90, 60],
                              "probabilities": [[0.1, 0.02, 0.0],
                                                [0.02, 0.2, 0.05],
                                                [0.0, 0.05, 0.3]]}, 300),
        "sbm_fractions": ("sbm", {"fractions": [0.5, 0.3, 0.2],
                                  "probabilities": [[0.05, 0.01, 0.01],
                                                    [0.01, 0.08, 0.02],
                                                    [0.01, 0.02, 0.1]]},
                          1000),
        # Full blocks: every code is drawn, so no thinning round runs.
        "sbm_full_blocks": ("sbm", {"sizes": [12, 7, 1],
                                    "probabilities": [[1.0, 1.0, 0.5],
                                                      [1.0, 0.0, 1.0],
                                                      [0.5, 1.0, 1.0]]},
                            20),
        "attributed_sbm": ("attributed_sbm", {
            "joint": homophily_joint(TruncatedGeometric(0.4, 6).pmf(),
                                     0.7),
            "avg_degree": 12}, 800),
        "one_to_many": ("one_to_many", {"degree_distribution": Zipf(1.1, 9),
                                        "degree_offset": 1}, 400),
        "one_to_one": ("one_to_one", {}, 300),
        "one_to_one_identity": ("one_to_one", {"shuffled": False}, 50),
        "bipartite_configuration": ("bipartite_configuration", {
            "tail_distribution": Zipf(0.7, 12),
            "head_distribution": Zipf(0.9, 8),
            "tail_offset": 1}, 600),
        "bipartite_square": ("bipartite_configuration", {
            "tail_distribution": Zipf(0.7, 6),
            "head_distribution": Zipf(0.7, 6),
            "head_nodes": 200}, 200),
        "cascade_forest": ("cascade_forest", {"num_cascades": 20,
                                              "depth_bias": 0.5}, 500),
    })
    return table


def table_digest(table):
    """sha256 of the edges, id spaces, orientation and name."""
    h = hashlib.sha256()
    h.update(str(table.name).encode())
    h.update(f"|{table.num_tail_nodes}|{table.num_head_nodes}"
             f"|{bool(table.directed)}|".encode())
    h.update(np.ascontiguousarray(table.tails, dtype="<i8").tobytes())
    h.update(b"|")
    h.update(np.ascontiguousarray(table.heads, dtype="<i8").tobytes())
    return h.hexdigest()


def _stream_digest(stream):
    from repro.tables import EdgeTable

    tails, heads = [np.empty(0, dtype=np.int64)], [
        np.empty(0, dtype=np.int64)]
    for _lo, t, h in stream.iter_chunks(CHUNK_EDGES):
        tails.append(t)
        heads.append(h)
    return table_digest(EdgeTable(
        stream.name, np.concatenate(tails), np.concatenate(heads),
        num_tail_nodes=stream.num_tail_nodes,
        num_head_nodes=stream.num_head_nodes,
        directed=stream.directed,
    ))


def case_digests(name, params, n, seed):
    """``{"run": digest[, "chunked": digest]}`` for one case and seed."""
    from repro.structure import create_generator

    gen = create_generator(name, seed=seed, **params)
    digests = {"run": table_digest(gen.run(n))}
    if gen.chunkable(n):
        digests["chunked"] = _stream_digest(gen.run_chunked(n, CHUNK_EDGES))
    return digests


def compute_all():
    return {
        case: {str(seed): case_digests(name, params, n, seed)
               for seed in SEEDS}
        for case, (name, params, n) in sorted(cases().items())
    }


def regenerate():
    FIXTURE_PATH.write_text(json.dumps(compute_all(), indent=1,
                                       sort_keys=True) + "\n")
    return FIXTURE_PATH


if __name__ == "__main__":
    print(f"wrote {regenerate()}")
