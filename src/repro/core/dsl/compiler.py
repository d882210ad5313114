"""Lower the DSL AST to a :class:`~repro.core.schema.Schema` + scale.

Generator names in calls are validated against the PG / SG registries
at compile time, so typos surface with the offending name rather than
at generation time.  ``@name`` references resolve against a caller-
supplied *environment* dict — the mechanism for passing non-literal
parameters (distribution objects, joint matrices, dictionaries) into
the textual schema.
"""

from __future__ import annotations

from ...properties.registry import available_property_generators
from ...structure.registry import available_generators
from ..schema import (
    Cardinality,
    CorrelationSpec,
    EdgeType,
    GeneratorSpec,
    NodeType,
    PropertyDef,
    Schema,
)
from .ast_nodes import CallNode, ListNode, LiteralNode, RefNode
from .errors import DslCompileError
from .parser import parse

__all__ = ["compile_schema", "load_schema"]


def _evaluate(expr, environment):
    """Evaluate an expression node to a Python value."""
    if isinstance(expr, LiteralNode):
        return expr.value
    if isinstance(expr, RefNode):
        if expr.name not in environment:
            raise DslCompileError(
                f"unresolved reference @{expr.name}; "
                f"available: {sorted(environment)}"
            )
        return environment[expr.name]
    if isinstance(expr, ListNode):
        return [_evaluate(item, environment) for item in expr.items]
    raise DslCompileError(f"cannot evaluate {type(expr).__name__}")


def _compile_call(call, environment, registry, kind):
    if call.name not in registry:
        raise DslCompileError(
            f"unknown {kind} generator {call.name!r}; "
            f"available: {sorted(registry)}"
        )
    params = {
        key: _evaluate(value, environment)
        for key, value in call.kwargs.items()
    }
    return GeneratorSpec(call.name, params)


def _compile_properties(prop_asts, environment, registry):
    """The :class:`PropertyDef` list of one node or edge type."""
    return [
        PropertyDef(
            prop.name, prop.dtype,
            None if prop.generator is None else _compile_call(
                prop.generator, environment, registry, "property"
            ),
            tuple(prop.depends_on),
        )
        for prop in prop_asts
    ]


def compile_schema(ast, environment=None):
    """Compile a parsed AST into ``(schema, scale_dict, graph_name)``."""
    environment = dict(environment or {})
    pg_registry = available_property_generators()
    sg_registry = available_generators()

    node_types = [
        NodeType(node_ast.name, _compile_properties(
            node_ast.properties, environment, pg_registry
        ))
        for node_ast in ast.node_types
    ]

    edge_types = []
    for edge_ast in ast.edge_types:
        structure = None
        if edge_ast.structure is not None:
            structure = _compile_call(
                edge_ast.structure, environment, sg_registry, "structure"
            )
        correlation = None
        if edge_ast.correlation is not None:
            corr_ast = edge_ast.correlation
            joint = _evaluate(corr_ast.joint, environment)
            values = (
                tuple(_evaluate(corr_ast.values, environment))
                if corr_ast.values is not None
                else None
            )
            correlation = CorrelationSpec(
                tail_property=corr_ast.tail_property,
                joint=joint,
                head_property=corr_ast.head_property,
                values=values,
            )
        edge_types.append(
            EdgeType(
                edge_ast.name,
                tail_type=edge_ast.tail_type,
                head_type=edge_ast.head_type,
                cardinality=Cardinality.parse(edge_ast.cardinality),
                structure=structure,
                properties=_compile_properties(
                    edge_ast.properties, environment, pg_registry
                ),
                correlation=correlation,
                directed=edge_ast.directed,
            )
        )

    schema = Schema(node_types=node_types, edge_types=edge_types)
    scale = dict(ast.scale.entries) if ast.scale else {}
    for name in scale:
        if name not in schema.node_types and name not in schema.edge_types:
            raise DslCompileError(
                f"scale entry {name!r} names no declared type"
            )
    return schema, scale, ast.name


def load_schema(text, environment=None):
    """Parse + compile DSL source text.

    Returns ``(schema, scale, graph_name)``.
    """
    return compile_schema(parse(text), environment)
