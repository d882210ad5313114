"""Ground-truth pattern planting.

Generated graphs double as *evaluation suites*: a plant embeds a known
template subgraph into the generated world with a recorded node map
and optional seeded noise, and the exporters emit the
``(template, world, ground_truth)`` triple a subgraph-matching
benchmark instance needs (the shape of
``matching_problem.ground_truth_provided`` in the UCLA subgraph
matching codebase).  The baseline matcher in
:mod:`repro.graphstats.matching` closes the loop: at zero noise it
must recover every plant exactly.

See ``docs/planting.md`` for the template spec, the noise model, and
the ground-truth manifest format.
"""

from .overlay import (
    AppendedPropertyTable,
    OverlayEdgeTable,
    OverlayPropertyTable,
    PlantedGraph,
    plant_world,
    planted_graph,
)
from .plant import (
    CompiledPlant,
    PlantInstance,
    PlantPlan,
    compile_plants,
    plan_plants,
)
from .templates import (
    TEMPLATE_KINDS,
    PlantingError,
    Template,
    make_template,
)

__all__ = [
    "AppendedPropertyTable",
    "CompiledPlant",
    "OverlayEdgeTable",
    "OverlayPropertyTable",
    "PlantInstance",
    "PlantPlan",
    "PlantedGraph",
    "PlantingError",
    "TEMPLATE_KINDS",
    "Template",
    "compile_plants",
    "make_template",
    "plan_plants",
    "plant_world",
    "planted_graph",
]
