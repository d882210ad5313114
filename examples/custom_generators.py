"""Extending the framework: custom SGs and PGs, used from the DSL.

The paper's design is explicitly pluggable — "SGs can be provided by
users to customize the generation of the graph structure" and PGs "are
pluggable objects that can be referenced from the DSL".  This example
registers:

* a custom structure generator producing a 2D grid (mobility-planning
  style road network — another domain from the requirements section);
* a custom property generator emitting geo coordinates snapped to the
  grid;

and then drives both from DSL text.

A structure generator implements exactly one emission path:

* a *sequential* generator, like ``GridGenerator`` below, overrides
  ``_generate(n, stream)`` and returns the whole ``EdgeTable``; the
  out-of-core executor materialises it once and spills it;
* a *chunkable* generator sets ``emission = "chunkable"`` and
  overrides ``_generate_chunked(n, stream, chunk_edges, spill)``
  instead, returning a ``repro.structure.base.EdgeChunkStream`` whose
  ``emit(lo, hi)`` derives the ``(tails, heads)`` of any edge-id range
  as a pure function of the range (whole-table state, if any, goes
  through ``spill(name, array)``).  ``run(n)`` is that stream
  materialised, and the sharded executor and ``repro serve`` page it
  without ever holding the whole table.  Add ``access = "random"``
  when a range follows from the seed alone.

Run:  python examples/custom_generators.py
"""

import numpy as np

from repro.core import GraphGenerator
from repro.core.dsl import load_schema
from repro.properties import (
    PropertyGenerator,
    register_property_generator,
)
from repro.structure import (
    Capability,
    GeneratorInfo,
    StructureGenerator,
    register_generator,
)
from repro.tables import EdgeTable


class GridGenerator(StructureGenerator):
    """4-connected 2D grid: the classic road-network approximation."""

    name = "grid2d"

    def parameter_names(self):
        return {"wrap"}

    def _generate(self, n, stream):
        side = int(np.floor(np.sqrt(n)))
        if side < 1:
            return EdgeTable(self.name, [], [], num_tail_nodes=n)
        wrap = bool(self._params.get("wrap", False))
        tails, heads = [], []
        for row in range(side):
            for col in range(side):
                node = row * side + col
                right = row * side + (col + 1) % side
                down = ((row + 1) % side) * side + col
                if col + 1 < side or wrap:
                    tails.append(node)
                    heads.append(right)
                if row + 1 < side or wrap:
                    tails.append(node)
                    heads.append(down)
        return EdgeTable(
            self.name, tails, heads, num_tail_nodes=n,
            num_head_nodes=n,
        )

    def expected_edges_for_nodes(self, n):
        side = int(np.floor(np.sqrt(n)))
        return 2 * side * side  # wrap upper bound


class GridCoordinateGenerator(PropertyGenerator):
    """Geo coordinates: grid position plus deterministic jitter."""

    name = "grid_coordinate"

    def parameter_names(self):
        return {"side", "jitter"}

    def run_many(self, ids, stream, *dependency_arrays):
        side = int(self._params.get("side", 100))
        jitter = float(self._params.get("jitter", 0.1))
        ids = np.asarray(ids, dtype=np.int64)
        rows = (ids // side).astype(np.float64)
        cols = (ids % side).astype(np.float64)
        dx = (stream.substream("x").uniform(ids) - 0.5) * jitter
        dy = (stream.substream("y").uniform(ids) - 0.5) * jitter
        out = np.empty(ids.size, dtype=object)
        for i in range(ids.size):
            out[i] = f"{rows[i] + dx[i]:.3f},{cols[i] + dy[i]:.3f}"
        return out


DSL = """
graph mobility {
  node Junction {
    coordinate: string = grid_coordinate(side=50, jitter=0.2)
    capacity:   long   = zipf_int(exponent=1.5, k=8)
  }
  edge road: Junction -- Junction [*..*] {
    structure = grid2d(wrap=false)
    speed_limit: long = uniform_int(low=30, high=121)
  }
  scale { Junction = 2500 }
}
"""


def main():
    register_generator(
        GeneratorInfo(
            "grid2d",
            GridGenerator,
            Capability(scale_by_nodes=True),
            "4-connected 2D grid",
        )
    )
    register_property_generator(GridCoordinateGenerator)

    schema, scale, name = load_schema(DSL)
    graph = GraphGenerator(schema, scale, seed=21).generate()
    print(f"generated graph {name!r}:", graph.summary())

    roads = graph.edges("road")
    degrees = roads.degrees()
    print(f"junction degrees: min={degrees.min()} "
          f"max={degrees.max()} (grid interior = 4)")

    coordinates = graph.node_property("Junction", "coordinate").values
    print("sample junctions:", list(coordinates[:3]))

    speeds = graph.edge_property("road", "speed_limit").values
    print(f"speed limits: {speeds.min()}..{speeds.max()} km/h, "
          f"mean {speeds.mean():.0f}")

    from repro.graphstats import approximate_diameter

    print(f"approximate diameter: {approximate_diameter(roads)} "
          "(grid: ~2 * side)")

    # Registered generators are equally reachable from declarative
    # scenario recipes (docs/scenarios.md) — same registries.
    from repro.scenarios import compile_scenario, run_scenario

    recipe = """
scenario: mobility_recipe
description: the same mobility network, as a recipe
seed: 21
nodes:
  Junction:
    properties:
      coordinate: {generator: grid_coordinate,
                   params: {side: 50, jitter: 0.2}}
edges:
  road:
    tail: Junction
    head: Junction
    structure: {generator: grid2d, params: {wrap: false}}
scale: {Junction: 2500}
"""
    graph2, report, _ = run_scenario(compile_scenario(recipe),
                                     validate=True)
    print("\nsame workload from a recipe:", graph2.summary())
    roads2 = graph2.edges("road")
    assert (roads2.tails == roads.tails).all() \
        and (roads2.heads == roads.heads).all()
    print("recipe output identical to the imperative run: ok")


if __name__ == "__main__":
    main()
