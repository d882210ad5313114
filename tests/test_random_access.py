"""The random-access protocol: ``properties_of`` / ``neighbors_of``.

Pins the serving-mode contract (docs/serving.md):

* every builtin PG declares ``access = "random"`` and its
  ``properties_of(ids)`` returns exactly the rows of a full run —
  chained to the **golden fixtures**, so the guarantee is byte-level
  against the frozen pre-rewrite values, for arbitrary scattered
  subsets;
* the chunk stream of a random-access SG answers ``neighbors_of`` /
  ``edge_exists`` (the :class:`~repro.tables.ranged.EdgeRows` scans)
  in exact agreement with the materialised edge table;
* sequential generators refuse chunked emission with ``TypeError``
  (the serving layer maps this to 501);
* empty id sets round-trip with the correct dtype.
"""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from repro.prng import RandomStream
from repro.properties import (
    available_property_generators,
    create_property_generator,
)
from repro.properties.base import PropertyGenerator
from repro.structure import create_generator

GOLDEN_DIR = Path(__file__).resolve().parent / "golden" / "properties"

_spec = importlib.util.spec_from_file_location(
    "properties_golden_regenerate", GOLDEN_DIR / "regenerate.py"
)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

FIXTURES = json.loads(
    (GOLDEN_DIR / "fixtures.json").read_text(encoding="utf-8")
)

CASE_SEEDS = [
    (case, seed)
    for case in sorted(golden.CASES)
    for seed in golden.SEEDS
]

#: scattered, unsorted, repeated positions inside the golden N rows.
SUBSETS = [
    [0],
    [golden.N - 1, 0],
    [7, 2, 2, 41, 19],
    list(range(0, golden.N, 5))[::-1],
]


class TestPropertyRandomAccess:
    def test_every_builtin_declares_random_access(self):
        for name in available_property_generators():
            generator = _minimal_generator(name)
            assert generator.access == "random", name
            assert generator.random_access(), name

    @pytest.mark.parametrize("case,seed", CASE_SEEDS)
    def test_properties_of_matches_golden_subsets(self, case, seed):
        """Scattered subsets equal the pinned full-run rows."""
        name, params, ids, stream, deps = golden.case_inputs(case, seed)
        generator = create_property_generator(name, **params)
        full = generator.run_many(ids, stream, *deps)
        # Chain to the frozen fixture, then gather against it.
        fixture = FIXTURES["cases"][case]["seeds"][str(seed)]
        assert golden.encode_values(full) == fixture
        for positions in SUBSETS:
            pos = np.asarray(positions, dtype=np.int64)
            sub = generator.properties_of(
                ids[pos], stream, *(dep[pos] for dep in deps)
            )
            assert sub.dtype == full.dtype, (case, positions)
            expected = full[pos]
            if expected.dtype.kind == "f":
                assert (
                    np.array_equal(sub, expected, equal_nan=True)
                ), (case, positions)
            else:
                assert (sub == expected).all(), (case, positions)

    @pytest.mark.parametrize("case,seed", [(c, golden.SEEDS[0])
                                           for c in sorted(golden.CASES)])
    def test_properties_of_empty_ids(self, case, seed):
        """Empty subsets keep the column dtype (empty pages/shards)."""
        name, params, ids, stream, deps = golden.case_inputs(case, seed)
        generator = create_property_generator(name, **params)
        full = generator.run_many(ids, stream, *deps)
        empty = np.empty(0, dtype=np.int64)
        sub = generator.properties_of(
            empty, stream, *(dep[:0] for dep in deps)
        )
        assert sub.shape == (0,)
        assert sub.dtype == full.dtype, case

    def test_sequential_generator_refuses(self):
        class Sequential(PropertyGenerator):
            name = "sequential_only_test"
            access = "sequential"

            def run_many(self, ids, stream, *deps):
                return np.zeros(len(ids), dtype=np.int64)

        generator = Sequential()
        assert not generator.random_access()
        with pytest.raises(TypeError, match="sequential"):
            generator.properties_of(
                np.array([1, 2]), RandomStream(1, "x")
            )


def _minimal_generator(name):
    """A constructible instance of each registered PG.

    Parameters come from the golden-fixture harness, which covers
    every registered generator with known-good configurations.
    """
    for case in sorted(golden.CASES):
        case_name, params, _, _, _ = golden.case_inputs(
            case, golden.SEEDS[0]
        )
        if case_name == name:
            return create_property_generator(name, **params)
    raise AssertionError(f"no golden case covers {name!r}")


def _zipf():
    from repro.stats import Zipf

    return Zipf(1.2, 8)


RANDOM_ACCESS_SGS = [
    ("erdos_renyi", {"p": 0.05}, 64),
    ("erdos_renyi_m", {"m": 200}, 64),
    ("sbm", {"fractions": [0.5, 0.5],
             "probabilities": [[0.2, 0.02], [0.02, 0.2]]}, 60),
    ("rmat", {"edge_factor": 4, "simplify": False}, 64),
    ("one_to_many", {"degree_distribution": _zipf(),
                     "degree_offset": 1}, 50),
]


def _neighbor_oracle(table, node_id, direction):
    """Reference neighbourhood from the materialised edge table."""
    tails = np.asarray(table.tails)
    heads = np.asarray(table.heads)
    parts = []
    if direction in ("out", "both"):
        parts.append(heads[tails == node_id])
    if direction in ("in", "both"):
        mask = heads == node_id
        if direction == "both":
            mask &= tails != heads
        parts.append(tails[mask])
    return np.sort(np.concatenate(parts))


class TestStructureRandomAccess:
    @pytest.mark.parametrize("name,params,n", RANDOM_ACCESS_SGS)
    def test_declares_random_access(self, name, params, n):
        generator = create_generator(name, seed=5, **params)
        assert generator.access == "random"
        assert generator.random_access(n)

    def test_rmat_simplify_gates_random_access(self):
        simplified = create_generator("rmat", seed=5, edge_factor=4)
        assert simplified.access == "random"
        assert not simplified.random_access(64)
        # Chunkable all the same: the dedup pass is spilled, not
        # refused; it is the serving layer that reads the flag.
        assert simplified.run_chunked(64, 19).num_edges > 0

    def test_sequential_generator_refuses(self):
        ba = create_generator("barabasi_albert", seed=5, m=2)
        assert ba.access == "sequential"
        assert not ba.random_access(64)
        with pytest.raises(TypeError, match="sequential"):
            ba.run_chunked(64, 19)

    @pytest.mark.parametrize("name,params,n", RANDOM_ACCESS_SGS)
    @pytest.mark.parametrize("seed", [3, 11])
    def test_neighbors_match_materialised_table(self, name, params,
                                                n, seed):
        generator = create_generator(name, seed=seed, **params)
        table = generator.run(n)
        probe = sorted({
            int(table.tails[0]), int(table.heads[-1]),
            int(table.tails[len(table) // 2]),
        })
        stream = generator.run_chunked(n, 19)
        spaces = {
            "out": table.num_tail_nodes, "in": table.num_head_nodes,
            "both": max(table.num_tail_nodes, table.num_head_nodes),
        }
        for direction in ("out", "in", "both"):
            for node_id in probe:
                if node_id >= spaces[direction]:
                    # one_to_many: a head id past the last tail id.
                    with pytest.raises(IndexError, match="out of range"):
                        stream.neighbors_of(node_id, direction, 17)
                    continue
                got = stream.neighbors_of(node_id, direction, 17)
                assert got.dtype == np.int64
                assert (
                    np.sort(got)
                    == _neighbor_oracle(table, node_id, direction)
                ).all(), (name, direction, node_id)

    @pytest.mark.parametrize("name,params,n", RANDOM_ACCESS_SGS)
    def test_edge_exists_matches_materialised_table(self, name,
                                                    params, n):
        generator = create_generator(name, seed=7, **params)
        table = generator.run(n)
        stream = generator.run_chunked(n, 19)
        pairs = set(zip(table.tails.tolist(), table.heads.tolist()))
        # Present edges, in stored orientation.
        for src, dst in list(pairs)[:5]:
            assert stream.edge_exists(src, dst, 19)
        # Undirected tables accept the reversed orientation too.
        if not table.directed:
            src, dst = next(iter(pairs))
            assert stream.edge_exists(dst, src, 19)
        # An absent pair.
        absent = None
        for src in range(table.num_tail_nodes):
            for dst in range(table.num_head_nodes):
                if (src, dst) not in pairs and (
                    table.directed or (dst, src) not in pairs
                ):
                    absent = (src, dst)
                    break
            if absent:
                break
        if absent is not None:
            assert not stream.edge_exists(*absent, 19)

    def test_neighbors_of_isolated_and_out_of_range_nodes(self):
        """An isolated node inside the id space has an empty
        neighbourhood; one outside it is refused before the scan."""
        generator = create_generator("one_to_many", seed=5,
                                     degree_distribution=_zipf())
        table = generator.run(40)
        stream = generator.run_chunked(40, 19)
        childless = sorted(set(range(40)) - set(table.tails.tolist()))
        assert childless  # Zipf(1.2, 8) without an offset draws zeros
        got = stream.neighbors_of(childless[0], "out")
        assert got.size == 0 and got.dtype == np.int64
        with pytest.raises(IndexError, match=r"out of range \[0, 40\)"):
            stream.neighbors_of(table.num_head_nodes + 40, "out")

    def test_read_range_is_public_and_validates(self):
        generator = create_generator("erdos_renyi_m", seed=5, m=100)
        stream = generator.run_chunked(64, 16)
        tails, heads = stream.read_range(5, 25)
        assert tails.shape == heads.shape == (20,)
        full = stream.to_edge_table()
        assert (tails == full.tails[5:25]).all()
        assert (heads == full.heads[5:25]).all()
        empty = stream.read_range(3, 3)
        assert (empty[0].size, empty[1].size) == (0, 0)
        with pytest.raises(IndexError):
            stream.read_range(-1, 4)
        with pytest.raises(IndexError):
            stream.read_range(0, stream.num_edges + 1)
        with pytest.raises(IndexError):
            stream.read_range(9, 3)
        with pytest.raises(ValueError, match="chunk_edges must be >= 1"):
            generator.run_chunked(64, 0)
