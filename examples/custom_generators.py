"""Extending the framework: custom SGs and PGs, used from a recipe.

The paper's design is explicitly pluggable — "SGs can be provided by
users to customize the generation of the graph structure" and PGs "are
pluggable objects that can be referenced from the DSL" (here: from a
scenario recipe, by registered name).  This example registers:

* a custom structure generator producing a 2D grid (mobility-planning
  style road network — another domain from the requirements section);
* a custom property generator emitting geo coordinates snapped to the
  grid;

and then drives both from recipe text.

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

from repro.properties import (
    PropertyGenerator,
    register_property_generator,
)
from repro.scenarios import compile_scenario, run_scenario
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


RECIPE = """
scenario: mobility
description: a grid road network with snapped geo coordinates
seed: 21
nodes:
  Junction:
    properties:
      coordinate: {generator: grid_coordinate,
                   params: {side: 50, jitter: 0.2}}
      capacity: {dtype: long, generator: zipf_int,
                 params: {exponent: 1.5, k: 8}}
edges:
  road:
    tail: Junction
    head: Junction
    structure: {generator: grid2d, params: {wrap: false}}
    properties:
      speed_limit: {dtype: long, generator: uniform_int,
                    params: {low: 30, high: 121}}
scale: {Junction: 2500}
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

    graph, _, _ = run_scenario(compile_scenario(RECIPE), validate=False)
    print("generated scenario 'mobility':", graph.summary())

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


if __name__ == "__main__":
    main()
