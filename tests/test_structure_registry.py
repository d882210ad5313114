"""Tests for the SG registry and the Table 1 capability matrix."""

from __future__ import annotations

import numpy as np
import pytest

from repro.structure import (
    EXTERNAL_SYSTEMS,
    Capability,
    GeneratorInfo,
    available_generators,
    capability_matrix,
    create_generator,
    register_generator,
)
from repro.structure.base import EdgeChunkStream, StructureGenerator


class TestRegistry:
    def test_all_builtins_present(self):
        names = set(available_generators())
        assert {
            "rmat", "lfr", "bter", "darwini", "erdos_renyi",
            "configuration", "sbm", "one_to_many", "one_to_one",
            "watts_strogatz", "barabasi_albert",
            "bipartite_configuration", "cascade_forest",
        } <= names

    def test_create_by_name(self):
        generator = create_generator("erdos_renyi_m", seed=1, m=10)
        assert generator.run(10).num_edges == 10

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError, match="unknown structure generator"):
            create_generator("nope")

    def test_register_custom(self, registries):
        class Null(StructureGenerator):
            name = "null_test_sg"

            def _generate(self, n, stream):
                from repro.tables import EdgeTable

                return EdgeTable("null", [], [], num_tail_nodes=n)

        register_generator(
            GeneratorInfo("null_test_sg", Null, Capability())
        )
        assert create_generator("null_test_sg").run(5).num_edges == 0

    def test_chunkable_plugin_implements_only_its_stream(self, registries):
        """A chunkable generator has one emission path: ``run(n)`` is
        its chunk stream, materialised."""

        class Ring(StructureGenerator):
            name = "ring_test_sg"
            emission = "chunkable"

            def _generate_chunked(self, n, stream, chunk_edges, spill):
                def emit(lo, hi):
                    tails = np.arange(lo, hi, dtype=np.int64)
                    return tails, (tails + 1) % n

                return EdgeChunkStream(self.name, n, n, n, False, emit)

        register_generator(
            GeneratorInfo("ring_test_sg", Ring, Capability())
        )
        generator = create_generator("ring_test_sg", seed=3)
        table = generator.run(10)
        assert table == generator.run_chunked(10, 3).to_edge_table()
        assert table.heads.tolist() == [1, 2, 3, 4, 5, 6, 7, 8, 9, 0]


class TestCapabilityMatrix:
    def test_paper_rows_present(self):
        rows = dict(capability_matrix())
        for system in ("LDBC-SNB", "Myriad", "RMat", "LFR", "BTER",
                       "Darwini"):
            assert system in rows

    def test_table1_ldbc_row(self):
        """Spot-check against the paper's Table 1: LDBC-SNB has
        property-structure correlation and dd, cc structure."""
        rows = dict(capability_matrix())
        ldbc = rows["LDBC-SNB"]
        assert ldbc["property structure correlation"] == "x"
        assert "dd" in ldbc["structure"]
        assert "cc" in ldbc["structure"]
        assert ldbc["edge type"] == ""

    def test_table1_myriad_row(self):
        rows = dict(capability_matrix())
        myriad = rows["Myriad"]
        assert myriad["node type"] == "x"
        assert myriad["edge cardinality"] == "x"
        assert myriad["property structure correlation"] == ""

    def test_table1_bter_darwini_structure(self):
        rows = dict(capability_matrix())
        assert "accd" in rows["BTER"]["structure"]
        assert "ccdd" in rows["Darwini"]["structure"]

    def test_datasynth_row_dominates(self):
        """The reproduced framework covers every column (the point of
        the paper)."""
        rows = dict(capability_matrix())
        datasynth = rows["DataSynth (this work)"]
        for column, cell in datasynth.items():
            if column == "structure":
                continue
            assert cell == "x", f"missing capability: {column}"

    def test_internal_rows_prefixed(self):
        names = [name for name, _row in capability_matrix()]
        assert any(name.startswith("repro:") for name in names)

    def test_exclude_external(self):
        names = [
            name
            for name, _row in capability_matrix(include_external=False)
        ]
        assert all(name.startswith("repro:") for name in names)

    def test_capability_row_rendering(self):
        row = Capability(node_types=True, structure=("dd",)).row()
        assert row["node type"] == "x"
        assert row["structure"] == "dd"
        assert row["edge type"] == ""
