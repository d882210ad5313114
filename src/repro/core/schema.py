"""Property graph schema model (the *schema* requirement of Section 2).

A schema declares node types, edge types, their properties, and edge
cardinalities, mirroring the running example of Figure 1:

    Person  (name, country, interest, sex, creationDate)
    Message (topic, text)
    knows:   Person *--* Person   (creationDate)
    creates: Person 1--* Message  (creationDate)

Property declarations bind a generator spec (the PG and its parameters,
plus the properties it depends on); edge declarations bind a structure
generator spec and optionally a property-structure correlation (the
property whose joint with itself — or with the other endpoint type's
property for bipartite edges — must be reproduced by matching).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

__all__ = [
    "Cardinality",
    "CorrelationSpec",
    "EdgeType",
    "GeneratorSpec",
    "NodeType",
    "PropertyDef",
    "Schema",
    "SchemaError",
]


class SchemaError(ValueError):
    """Raised for inconsistent schema declarations."""


class Cardinality(Enum):
    """Edge cardinality classes of the paper (1→1, 1→*, *→*)."""

    ONE_TO_ONE = "1..1"
    ONE_TO_MANY = "1..*"
    MANY_TO_MANY = "*..*"

    @classmethod
    def parse(cls, text):
        """Parse ``"1..1" | "1..*" | "*..*"`` (also accepts ``->`` arrows)."""
        normalized = str(text).strip().replace("->", "..").replace("→", "..")
        for member in cls:
            if member.value == normalized:
                return member
        raise SchemaError(f"unknown cardinality {text!r}")


@dataclass
class GeneratorSpec:
    """A named generator binding: ``name`` resolved in a registry plus
    keyword parameters."""

    name: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if not self.name:
            raise SchemaError("generator spec needs a name")


@dataclass
class PropertyDef:
    """A property of a node or edge type.

    Attributes
    ----------
    name:
        property name, unique within its owner type.
    dtype:
        logical type tag ("string", "long", "double", "date", "bool").
    generator:
        :class:`GeneratorSpec` of the PG producing the values.
    depends_on:
        names of sibling properties whose values feed the PG's ``run``
        as the optional trailing arguments (conditional distributions:
        ``P(name | sex, country)`` in the running example).
    """

    name: str
    dtype: str = "string"
    generator: GeneratorSpec | None = None
    depends_on: tuple = ()

    _VALID_DTYPES = ("string", "long", "double", "date", "bool")

    def __post_init__(self):
        if not self.name:
            raise SchemaError("property needs a name")
        if self.dtype not in self._VALID_DTYPES:
            raise SchemaError(
                f"property {self.name!r}: unknown dtype {self.dtype!r}; "
                f"expected one of {self._VALID_DTYPES}"
            )
        self.depends_on = tuple(self.depends_on)


@dataclass
class NodeType:
    """A node type with its property list."""

    name: str
    properties: list = field(default_factory=list)

    def __post_init__(self):
        if not self.name:
            raise SchemaError("node type needs a name")
        seen = set()
        for prop in self.properties:
            if prop.name in seen:
                raise SchemaError(
                    f"node type {self.name!r}: duplicate property "
                    f"{prop.name!r}"
                )
            seen.add(prop.name)

    def property_named(self, name):
        for prop in self.properties:
            if prop.name == name:
                return prop
        raise SchemaError(
            f"node type {self.name!r} has no property {name!r}"
        )

    def property_names(self):
        return [prop.name for prop in self.properties]


@dataclass
class CorrelationSpec:
    """Property-structure correlation request for an edge type.

    ``tail_property`` (and ``head_property`` for bipartite edges) name
    endpoint-type properties; ``joint`` is a
    :class:`~repro.stats.JointDistribution` (monopartite) or a raw
    ``(k_tail, k_head)`` matrix (bipartite).  The category order of the
    joint is the *sorted unique values* of the property table unless
    ``values`` pins an explicit order.
    """

    tail_property: str
    joint: object
    head_property: str | None = None
    values: tuple | None = None
    head_values: tuple | None = None


@dataclass
class EdgeType:
    """An edge type: endpoints, cardinality, SG binding, properties."""

    name: str
    tail_type: str
    head_type: str
    cardinality: Cardinality = Cardinality.MANY_TO_MANY
    structure: GeneratorSpec | None = None
    properties: list = field(default_factory=list)
    correlation: CorrelationSpec | None = None
    directed: bool = False

    def __post_init__(self):
        if not self.name:
            raise SchemaError("edge type needs a name")
        seen = set()
        for prop in self.properties:
            if prop.name in seen:
                raise SchemaError(
                    f"edge type {self.name!r}: duplicate property "
                    f"{prop.name!r}"
                )
            seen.add(prop.name)

    @property
    def is_monopartite(self):
        return self.tail_type == self.head_type

    @property
    def is_strict(self):
        """1→* / 1→1 cardinality: the structure's heads *define* the
        head instances, so matching keeps them as they are."""
        return self.cardinality in (
            Cardinality.ONE_TO_MANY, Cardinality.ONE_TO_ONE
        )

    def property_named(self, name):
        for prop in self.properties:
            if prop.name == name:
                return prop
        raise SchemaError(
            f"edge type {self.name!r} has no property {name!r}"
        )

    def dependency_ref(self, dep):
        """Resolve one ``depends_on`` entry of an edge property.

        Returns ``(side, owner, prop)``: ``tail.x`` / ``head.x`` name
        property ``x`` of the endpoint node type (``side`` says which
        endpoint column to gather through); anything else is a sibling
        property of this edge type (``side`` is ``None``).  Either way
        the referenced table is ``f"{owner}.{prop}"``.
        """
        side, dot, prop = dep.partition(".")
        if dot and side == "tail":
            return side, self.tail_type, prop
        if dot and side == "head":
            return side, self.head_type, prop
        return None, self.name, dep


class Schema:
    """A validated property-graph schema.

    Parameters
    ----------
    node_types, edge_types:
        declarations; validated for referential integrity (edge endpoint
        types exist, dependency references exist, no dependency cycles
        within a type's properties).
    """

    def __init__(self, node_types=(), edge_types=()):
        self.node_types = {}
        self.edge_types = {}
        for node_type in node_types:
            self.add_node_type(node_type)
        for edge_type in edge_types:
            self.add_edge_type(edge_type)

    # -- construction -----------------------------------------------------

    def add_node_type(self, node_type):
        if node_type.name in self.node_types:
            raise SchemaError(f"duplicate node type {node_type.name!r}")
        if node_type.name in self.edge_types:
            raise SchemaError(
                f"{node_type.name!r} already names an edge type"
            )
        self._check_property_dependencies(node_type)
        self.node_types[node_type.name] = node_type
        return node_type

    def add_edge_type(self, edge_type):
        if edge_type.name in self.edge_types:
            raise SchemaError(f"duplicate edge type {edge_type.name!r}")
        if edge_type.name in self.node_types:
            raise SchemaError(
                f"{edge_type.name!r} already names a node type"
            )
        for side, type_name in (
            ("tail", edge_type.tail_type),
            ("head", edge_type.head_type),
        ):
            if type_name not in self.node_types:
                raise SchemaError(
                    f"edge type {edge_type.name!r}: {side} type "
                    f"{type_name!r} is not declared"
                )
        if edge_type.correlation is not None:
            corr = edge_type.correlation
            tail = self.node_types[edge_type.tail_type]
            tail.property_named(corr.tail_property)
            if corr.head_property is not None:
                head = self.node_types[edge_type.head_type]
                head.property_named(corr.head_property)
            elif not edge_type.is_monopartite:
                raise SchemaError(
                    f"edge type {edge_type.name!r}: bipartite correlation "
                    "needs both tail_property and head_property"
                )
        self.edge_types[edge_type.name] = edge_type
        return edge_type

    @staticmethod
    def _check_property_dependencies(owner):
        """Reject missing or cyclic intra-type property dependencies."""
        names = {prop.name for prop in owner.properties}
        for prop in owner.properties:
            for dep in prop.depends_on:
                if dep not in names:
                    raise SchemaError(
                        f"{owner.name}.{prop.name} depends on unknown "
                        f"property {dep!r}"
                    )
        # Cycle detection by iterative colouring.
        state = {}  # name -> 0 visiting, 1 done
        graph = {
            prop.name: list(prop.depends_on) for prop in owner.properties
        }

        def visit(name, stack):
            if state.get(name) == 1:
                return
            if state.get(name) == 0:
                cycle = " -> ".join(stack + [name])
                raise SchemaError(
                    f"{owner.name}: property dependency cycle: {cycle}"
                )
            state[name] = 0
            for dep in graph[name]:
                visit(dep, stack + [name])
            state[name] = 1

        for prop in owner.properties:
            visit(prop.name, [])

    # -- lookups -------------------------------------------------------------

    def node_type(self, name):
        if name not in self.node_types:
            raise SchemaError(f"unknown node type {name!r}")
        return self.node_types[name]

    def edge_type(self, name):
        if name not in self.edge_types:
            raise SchemaError(f"unknown edge type {name!r}")
        return self.edge_types[name]

    def validate(self):
        """Re-run all cross-references; returns self for chaining."""
        for edge_type in self.edge_types.values():
            if edge_type.tail_type not in self.node_types:
                raise SchemaError(
                    f"edge {edge_type.name!r}: missing tail type"
                )
            if edge_type.head_type not in self.node_types:
                raise SchemaError(
                    f"edge {edge_type.name!r}: missing head type"
                )
        for node_type in self.node_types.values():
            self._check_property_dependencies(node_type)
        return self

    def __repr__(self):
        return (
            f"Schema(nodes={sorted(self.node_types)}, "
            f"edges={sorted(self.edge_types)})"
        )
