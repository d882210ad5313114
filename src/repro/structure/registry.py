"""Structure generator registry and capability matrix.

Recipes refer to SGs by name; this registry resolves those names.  Each
entry also carries the capability flags of the paper's Table 1 (which
schema / structure / distribution aspects the generator can be
explicitly configured for), from which the Table 1 benchmark regenerates
the related-work summary — including rows for external systems
(LDBC-SNB, Myriad) that are frameworks rather than single SGs and are
represented here as documented capability sets.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .attributed import AttributedSbmGenerator
from .barabasi_albert import BarabasiAlbert
from .bipartite import BipartiteConfiguration
from .bter import BTER
from .cardinality import OneToManyGenerator, OneToOneGenerator
from .cascade import CascadeForest
from .configuration import ConfigurationModel
from .darwini import Darwini
from .empirical import EmpiricalDegreeGenerator
from .erdos_renyi import ErdosRenyi, ErdosRenyiM
from .forest_fire import ForestFire
from .hyperbolic import HyperbolicGenerator
from .kronecker import KroneckerGenerator
from .lfr import LFR
from .rmat import RMat
from .sbm import StochasticBlockModel
from .watts_strogatz import WattsStrogatz

__all__ = [
    "Capability",
    "GeneratorInfo",
    "available_generators",
    "capability_matrix",
    "create_generator",
    "register_generator",
    "EXTERNAL_SYSTEMS",
]


@dataclass(frozen=True)
class Capability:
    """Capability flags mirroring the columns of the paper's Table 1."""

    node_types: bool = False
    node_properties: bool = False
    edge_types: bool = False
    edge_properties: bool = False
    edge_cardinality: bool = False
    structure: tuple = ()  # e.g. ("dd", "cc", "pl", "c", "accd", "ccdd")
    property_value_distributions: bool = False
    property_structure_correlation: bool = False
    scale_by_nodes: bool = False
    scale_by_edges: bool = False
    scale_by_nodes_plus_edges: bool = False
    scalable: bool = False

    def row(self):
        """Render as the x/abbreviation cells of Table 1."""

        def mark(flag):
            return "x" if flag else ""

        return {
            "node type": mark(self.node_types),
            "node prop.": mark(self.node_properties),
            "edge type": mark(self.edge_types),
            "edge prop.": mark(self.edge_properties),
            "edge cardinality": mark(self.edge_cardinality),
            "structure": ", ".join(self.structure),
            "property values distribution": mark(
                self.property_value_distributions
            ),
            "property structure correlation": mark(
                self.property_structure_correlation
            ),
            "node": mark(self.scale_by_nodes),
            "edge": mark(self.scale_by_edges),
            "node+edge": mark(self.scale_by_nodes_plus_edges),
            "scalability": mark(self.scalable),
        }


@dataclass
class GeneratorInfo:
    """Registry entry: constructor plus capability flags."""

    name: str
    factory: type
    capability: Capability
    description: str = ""


_REGISTRY: dict[str, GeneratorInfo] = {}


def register_generator(info):
    """Register (or replace) a generator entry."""
    _REGISTRY[info.name] = info


def available_generators():
    """Mapping of name -> :class:`GeneratorInfo` (copy)."""
    return dict(_REGISTRY)


def create_generator(name, seed=0, **params):
    """Instantiate a registered SG by name."""
    if name not in _REGISTRY:
        raise KeyError(
            f"unknown structure generator {name!r}; "
            f"available: {sorted(_REGISTRY)}"
        )
    return _REGISTRY[name].factory(seed=seed, **params)


def _builtin(name, factory, structure, description, scalable=True,
             cardinality=False):
    register_generator(
        GeneratorInfo(
            name=name,
            factory=factory,
            capability=Capability(
                structure=structure,
                edge_cardinality=cardinality,
                scale_by_nodes=True,
                scale_by_edges=True,  # via get_num_nodes
                scalable=scalable,
            ),
            description=description,
        )
    )


_builtin("rmat", RMat, ("pl", "dd"),
         "Recursive matrix generator (Graph500)")
_builtin("lfr", LFR, ("pl", "dd", "c"),
         "LFR community benchmark graphs")
_builtin("bter", BTER, ("dd", "accd"),
         "Block two-level Erdos-Renyi")
_builtin("darwini", Darwini, ("dd", "ccdd"),
         "Darwini: per-degree clustering distribution")
_builtin("empirical_degrees", EmpiricalDegreeGenerator, ("dd",),
         "Configuration model over an observed degree distribution")
_builtin("erdos_renyi", ErdosRenyi, (),
         "G(n, p) uniform random graph")
_builtin("erdos_renyi_m", ErdosRenyiM, (),
         "G(n, m) uniform random graph")
_builtin("configuration", ConfigurationModel, ("dd",),
         "Configuration model over a degree sequence")
_builtin("kronecker", KroneckerGenerator, ("pl", "dd"),
         "Stochastic Kronecker graphs (general initiator)")
_builtin("forest_fire", ForestFire, ("pl", "dd", "cc"),
         "Forest Fire model (densification, clustering)",
         scalable=False)
_builtin("hyperbolic", HyperbolicGenerator, ("pl", "dd", "cc"),
         "Random hyperbolic graphs (geometry-induced clustering)",
         scalable=False)
_builtin("barabasi_albert", BarabasiAlbert, ("pl", "dd"),
         "Preferential attachment", scalable=False)
_builtin("watts_strogatz", WattsStrogatz, ("cc",),
         "Small-world ring lattice")
_builtin("sbm", StochasticBlockModel, ("c",),
         "Stochastic block model")
register_generator(
    GeneratorInfo(
        name="attributed_sbm",
        factory=AttributedSbmGenerator,
        capability=Capability(
            structure=("c",),
            property_structure_correlation=True,
            scale_by_nodes=True,
            scale_by_edges=True,
            scalable=True,
        ),
        description="Structure + correlated labels in one step (§5)",
    )
)
_builtin("one_to_many", OneToManyGenerator, ("dd",),
         "Strict 1-to-many cardinality operator", cardinality=True)
_builtin("one_to_one", OneToOneGenerator, (),
         "Strict 1-to-1 cardinality operator", cardinality=True)
_builtin("bipartite_configuration", BipartiteConfiguration, ("dd",),
         "Bipartite configuration model", cardinality=True)
_builtin("cascade_forest", CascadeForest, (),
         "Reply-tree cascade forest", cardinality=True)


#: Documented capability rows for the external systems of Table 1 (these
#: are *not* runnable here; they anchor the reproduced comparison table).
EXTERNAL_SYSTEMS = {
    "LDBC-SNB": Capability(
        node_properties=True,
        structure=("dd", "cc"),
        property_value_distributions=True,
        property_structure_correlation=True,
        scale_by_nodes_plus_edges=True,
        scalable=True,
    ),
    "Myriad": Capability(
        node_types=True,
        node_properties=True,
        edge_types=True,
        edge_cardinality=True,  # 1-to-1 and 1-to-many only
        structure=("dd",),
        property_value_distributions=True,
        scale_by_nodes=True,
        scalable=True,
    ),
    "RMat": Capability(
        structure=("pl", "dd"),
        scale_by_nodes=True,
        scale_by_edges=True,
    ),
    "LFR": Capability(
        structure=("pl", "dd", "c"),
        scale_by_nodes=True,
    ),
    "BTER": Capability(
        structure=("dd", "accd"),
        scale_by_nodes=True,
        scalable=True,
    ),
    "Darwini": Capability(
        structure=("dd", "ccdd"),
        scale_by_nodes=True,
        scalable=True,
    ),
    "DataSynth (this work)": Capability(
        node_types=True,
        node_properties=True,
        edge_types=True,
        edge_properties=True,
        edge_cardinality=True,
        structure=("dd", "cc", "pl", "c", "accd", "ccdd"),
        property_value_distributions=True,
        property_structure_correlation=True,
        scale_by_nodes=True,
        scale_by_edges=True,
        scale_by_nodes_plus_edges=True,
        scalable=True,
    ),
}


def capability_matrix(include_external=True):
    """Rows of the reproduced Table 1.

    Returns a list of ``(system_name, row_dict)``; internal SGs are
    derived from their registered capabilities, external systems from
    :data:`EXTERNAL_SYSTEMS`.
    """
    rows = []
    if include_external:
        for name, cap in EXTERNAL_SYSTEMS.items():
            rows.append((name, cap.row()))
    for name, info in sorted(_REGISTRY.items()):
        rows.append((f"repro:{name}", info.capability.row()))
    return rows
