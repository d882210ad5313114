"""Tests for the Kronecker and Forest Fire generators."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graphstats import average_clustering
from repro.structure import (
    ForestFire,
    KroneckerGenerator,
    RMat,
    create_generator,
)


class TestKronecker:
    INITIATOR = [[0.9, 0.5], [0.5, 0.2]]

    def test_power_of_side_required(self):
        generator = KroneckerGenerator(
            seed=0, initiator=self.INITIATOR
        )
        with pytest.raises(ValueError, match="power of 2"):
            generator.run(1000)

    def test_runs_at_power_of_two(self):
        generator = KroneckerGenerator(
            seed=0, initiator=self.INITIATOR, edge_factor=8
        )
        table = generator.run(512)
        assert table.num_tail_nodes == 512
        assert table.num_edges > 0

    def test_three_by_three_initiator(self):
        initiator = np.full((3, 3), 1.0 / 9)
        generator = KroneckerGenerator(
            seed=1, initiator=initiator, edge_factor=4
        )
        table = generator.run(81)  # 3^4
        assert table.num_tail_nodes == 81

    def test_uniform_initiator_like_er(self):
        """A uniform initiator gives near-uniform degrees (no hubs)."""
        initiator = np.full((2, 2), 0.25)
        generator = KroneckerGenerator(
            seed=1, initiator=initiator, edge_factor=8
        )
        degrees = generator.run(1024).degrees()
        assert degrees.max() < 6 * max(degrees.mean(), 1)

    def test_skewed_initiator_makes_hubs(self):
        generator = KroneckerGenerator(
            seed=1, initiator=self.INITIATOR, edge_factor=8
        )
        degrees = generator.run(1024).degrees()
        assert degrees.max() > 8 * degrees.mean()

    def test_numpy_initiator_through_graph_generator(self):
        """An ndarray initiator (a library spec, or a live value in a
        recipe dict) sizes and generates like the equal nested list."""
        from repro.core import (
            EdgeType,
            GeneratorSpec,
            GraphGenerator,
            NodeType,
            Schema,
        )

        def knows(initiator):
            schema = Schema(
                node_types=[NodeType("Person")],
                edge_types=[EdgeType("knows", "Person", "Person",
                                     structure=GeneratorSpec(
                                         "kronecker",
                                         {"initiator": initiator,
                                          "edge_factor": 4}))],
            )
            graph = GraphGenerator(schema, {"Person": 64}, seed=2)
            return graph.generate().edges("knows")

        table = knows(np.array(self.INITIATOR))
        assert table.num_edges > 0
        assert table == knows(self.INITIATOR)

    def test_validates_initiator(self):
        with pytest.raises(ValueError, match="square"):
            KroneckerGenerator(seed=0, initiator=[[0.5, 0.5]])
        with pytest.raises(ValueError):
            KroneckerGenerator(seed=0, initiator=[[1.0]])
        with pytest.raises(ValueError):
            KroneckerGenerator(
                seed=0, initiator=[[-1.0, 1.0], [1.0, 1.0]]
            )

    def test_deterministic(self):
        a = KroneckerGenerator(
            seed=3, initiator=self.INITIATOR
        ).run(256)
        b = KroneckerGenerator(
            seed=3, initiator=self.INITIATOR
        ).run(256)
        assert a == b

    def test_registered(self):
        generator = create_generator(
            "kronecker", seed=0, initiator=self.INITIATOR
        )
        assert generator.run(64).num_edges > 0

    def test_rmat_is_special_case_shape(self):
        """A 2x2 Kronecker with R-MAT weights produces a similar degree
        profile to RMat itself (not identical draws — different
        sampling streams — but the same heavy-tail shape)."""
        initiator = [[0.57, 0.19], [0.19, 0.05]]
        kron = KroneckerGenerator(
            seed=4, initiator=initiator, edge_factor=16
        ).run(1024)
        rmat = RMat(seed=4).run_scale(10)
        from repro.stats import fit_power_law_exponent

        gamma_k = fit_power_law_exponent(kron.degrees(), xmin=4)
        gamma_r = fit_power_law_exponent(rmat.degrees(), xmin=4)
        assert abs(gamma_k - gamma_r) < 0.8


class TestForestFire:
    def test_connected_growth(self):
        table = ForestFire(seed=1, p=0.3).run(500)
        from repro.graphstats import largest_component_fraction

        assert largest_component_fraction(table) == 1.0

    def test_clustering_present(self):
        table = ForestFire(seed=1, p=0.35).run(800)
        assert average_clustering(table) > 0.15

    def test_heavier_burning_denser(self):
        sparse = ForestFire(seed=2, p=0.2).run(600)
        dense = ForestFire(seed=2, p=0.45).run(600)
        assert dense.num_edges > sparse.num_edges

    def test_max_burn_cap(self):
        capped = ForestFire(seed=3, p=0.45, max_burn=3).run(600)
        # Each arriving node adds at most max_burn edges.
        assert capped.num_edges <= 3 * 600

    def test_validates_p(self):
        with pytest.raises(ValueError):
            ForestFire(seed=0, p=1.0)

    def test_deterministic(self):
        a = ForestFire(seed=5, p=0.3).run(300)
        b = ForestFire(seed=5, p=0.3).run(300)
        assert a == b

    def test_tiny_graphs(self):
        assert ForestFire(seed=0).run(0).num_edges == 0
        assert ForestFire(seed=0).run(1).num_edges == 0
        assert ForestFire(seed=0).run(2).num_edges == 1

    def test_registered(self):
        generator = create_generator("forest_fire", seed=0, p=0.3)
        assert generator.run(100).num_edges >= 99


class TestHyperbolic:
    from repro.structure import HyperbolicGenerator

    @pytest.fixture(scope="class")
    def graph(self):
        from repro.structure import HyperbolicGenerator

        return HyperbolicGenerator(
            seed=1, avg_degree=10, gamma=2.5
        ).run(1500)

    def test_geometry_induces_clustering(self, graph):
        assert average_clustering(graph) > 0.4

    def test_heavy_tail(self, graph):
        from repro.stats import fit_power_law_exponent

        degrees = graph.degrees()
        assert degrees.max() > 10 * degrees.mean()
        gamma = fit_power_law_exponent(degrees, xmin=3)
        assert 1.8 < gamma < 3.5

    def test_mean_degree_calibration(self, graph):
        # Pilot calibration is rough; within a factor ~2 of target.
        mean = graph.degrees().mean()
        assert 4 <= mean <= 20

    def test_deterministic(self):
        from repro.structure import HyperbolicGenerator

        a = HyperbolicGenerator(seed=2, avg_degree=8).run(400)
        b = HyperbolicGenerator(seed=2, avg_degree=8).run(400)
        assert a == b

    def test_rejects_bad_gamma(self):
        from repro.structure import HyperbolicGenerator

        with pytest.raises(ValueError, match="gamma"):
            HyperbolicGenerator(seed=0, gamma=2.0)

    def test_tiny(self):
        from repro.structure import HyperbolicGenerator

        assert HyperbolicGenerator(seed=0).run(1).num_edges == 0

    def test_registered(self):
        generator = create_generator("hyperbolic", seed=0, avg_degree=6)
        assert generator.run(300).num_edges > 0
