"""Scenario recipe documents: parsing, validation, and the key registry.

A *scenario recipe* is a declarative YAML (or JSON) document describing
a complete workload: node/edge types with bound generators, scale
anchors, export settings, and graded validation thresholds.  This
module is deliberately **stdlib-only** — recipes parse with no
third-party dependency:

* :func:`parse_recipe_text` — a small indentation-based parser for the
  YAML subset recipes use (nested mappings, block and inline lists,
  inline mappings, scalars, comments).  JSON documents parse too (the
  text is tried as JSON first).
* :data:`RECIPE_FIELDS` — the registry of every recipe key the
  compiler accepts: path, type, default, and documentation.  It is the
  **single source of truth**: recipe validation, ``repro scenario
  describe`` and the reference table in ``docs/scenarios.md`` are all
  generated from it (``tests/test_scenarios.py`` asserts the doc is in
  sync).
* :func:`validate_recipe` / :func:`load_recipe` — structural
  validation with precise error paths (``edges.knows: unknown key
  'struct'``), returning a :class:`ScenarioSpec`.

Values needing live Python objects (degree distributions, joint
matrices, embedded datasets) are written as single-key ``$constructor``
mappings — ``{$zipf: {exponent: 1.3, max: 30}}`` — resolved later by
:mod:`repro.scenarios.compile`; the parser treats them as plain
mappings.  A recipe dict built in Python may hold the live object
itself in their place.

Examples
--------
>>> recipe = parse_recipe_text('''
... scenario: tiny
... nodes:
...   Person:
...     properties:
...       age: {dtype: long, generator: uniform_int,
...             params: {low: 18, high: 80}}
... scale: {Person: 100}
... ''')
>>> recipe["scenario"]
'tiny'
>>> recipe["nodes"]["Person"]["properties"]["age"]["params"]["high"]
80
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dataclass_field

__all__ = [
    "Field",
    "RECIPE_FIELDS",
    "ScenarioError",
    "ScenarioSpec",
    "load_recipe",
    "parse_recipe_text",
    "recipe_reference_markdown",
    "recipe_reference_rows",
    "validate_recipe",
]


class ScenarioError(ValueError):
    """Raised for unparsable or invalid scenario recipes."""


# ---------------------------------------------------------------------------
# YAML-subset parser
# ---------------------------------------------------------------------------

def _strip_comment(line):
    """Remove a ``#`` comment, respecting quotes.

    As in YAML, ``#`` only starts a comment at the beginning of the
    line or after whitespace — ``a#b`` is a plain scalar.
    """
    quote = None
    for i, ch in enumerate(line):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch == "#" and (i == 0 or line[i - 1] in " \t"):
            return line[:i]
    return line


def _split_top(text, sep=","):
    """Split ``text`` on ``sep`` at bracket/quote depth zero."""
    parts, depth, quote, start = [], 0, None, 0
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def _find_colon(text):
    """Index of the first ``:`` key separator at depth zero (or -1).

    A colon only separates a key when it ends the text or is followed
    by whitespace — so plain scalars like ``"*..*"`` or URLs survive.
    """
    depth, quote = 0, None
    for i, ch in enumerate(text):
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
        elif ch == ":" and depth == 0:
            if i + 1 == len(text) or text[i + 1] in " \t":
                return i
    return -1


def _parse_scalar(text):
    text = text.strip()
    if not text:
        return None
    if text[0] in "'\"":
        if len(text) < 2 or text[-1] != text[0]:
            raise ScenarioError(f"unterminated string: {text!r}")
        return text[1:-1]
    low = text.lower()
    if low in ("null", "~", "none"):
        return None
    if low == "true":
        return True
    if low == "false":
        return False
    try:
        return int(text, 0)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    return text


def _parse_inline(text):
    """Parse an inline value: list, mapping, or scalar."""
    text = text.strip()
    if text.startswith("["):
        if not text.endswith("]"):
            raise ScenarioError(f"unterminated list: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return []
        return [_parse_inline(part) for part in _split_top(inner)]
    if text.startswith("{"):
        if not text.endswith("}"):
            raise ScenarioError(f"unterminated mapping: {text!r}")
        inner = text[1:-1].strip()
        if not inner:
            return {}
        result = {}
        for part in _split_top(inner):
            colon = _find_colon(part.strip())
            if colon < 0:
                raise ScenarioError(
                    f"inline mapping entry needs 'key: value': {part!r}"
                )
            key = _parse_scalar(part.strip()[:colon])
            if key in result:
                raise ScenarioError(
                    f"duplicate key {key!r} in inline mapping "
                    f"{text!r}"
                )
            result[key] = _parse_inline(part.strip()[colon + 1:])
        return result
    return _parse_scalar(text)


@dataclass
class _Line:
    number: int
    indent: int
    content: str


def _bracket_depth(text):
    """Unclosed ``[``/``{`` depth of ``text`` (quotes respected)."""
    depth, quote = 0, None
    for ch in text:
        if quote:
            if ch == quote:
                quote = None
        elif ch in "'\"":
            quote = ch
        elif ch in "[{":
            depth += 1
        elif ch in "]}":
            depth -= 1
    return depth


def _logical_lines(text):
    """Comment-stripped, non-blank lines; inline values whose brackets
    stay open continue onto the following physical lines."""
    lines = []
    for number, raw in enumerate(text.splitlines(), start=1):
        stripped = _strip_comment(raw).rstrip()
        if not stripped.strip():
            continue
        if "\t" in raw[: len(raw) - len(raw.lstrip())]:
            raise ScenarioError(
                f"line {number}: tabs are not allowed in indentation"
            )
        indent = len(stripped) - len(stripped.lstrip())
        content = stripped.strip()
        if lines and _bracket_depth(lines[-1].content) > 0:
            lines[-1] = _Line(
                lines[-1].number, lines[-1].indent,
                lines[-1].content + " " + content,
            )
            continue
        lines.append(_Line(number, indent, content))
    if lines and _bracket_depth(lines[-1].content) > 0:
        raise ScenarioError(
            f"line {lines[-1].number}: unclosed bracket at end of "
            "document"
        )
    return lines


def _parse_block(lines, pos, indent):
    """Parse the block starting at ``lines[pos]`` with ``indent``."""
    if lines[pos].content.startswith("- ") or lines[pos].content == "-":
        return _parse_list_block(lines, pos, indent)
    return _parse_map_block(lines, pos, indent)


def _parse_list_block(lines, pos, indent):
    items = []
    while pos < len(lines) and lines[pos].indent == indent:
        line = lines[pos]
        if not (line.content.startswith("- ") or line.content == "-"):
            raise ScenarioError(
                f"line {line.number}: expected a '- ' list item"
            )
        rest = line.content[1:].strip()
        pos += 1
        if rest:
            colon = _find_colon(rest)
            if colon >= 0:
                # "- key: value" single-pair mapping item (optionally
                # continued by a deeper block).
                value, pos = _parse_map_entry_value(
                    rest, colon, lines, pos, indent + 2
                )
                item = {_parse_scalar(rest[:colon]): value}
                while pos < len(lines) and lines[pos].indent > indent:
                    extra = lines[pos]
                    ecolon = _find_colon(extra.content)
                    if ecolon < 0:
                        raise ScenarioError(
                            f"line {extra.number}: expected 'key: value'"
                        )
                    value, pos = _parse_map_entry_value(
                        extra.content, ecolon, lines, pos + 1,
                        extra.indent,
                    )
                    item[_parse_scalar(extra.content[:ecolon])] = value
                items.append(item)
            else:
                items.append(_parse_inline(rest))
        else:
            if pos >= len(lines) or lines[pos].indent <= indent:
                items.append(None)
            else:
                item, pos = _parse_block(lines, pos, lines[pos].indent)
                items.append(item)
    if pos < len(lines) and lines[pos].indent > indent:
        raise ScenarioError(
            f"line {lines[pos].number}: unexpected indentation"
        )
    return items, pos


def _parse_map_entry_value(content, colon, lines, pos, indent):
    """Value of ``key: ...`` — inline, or the following deeper block."""
    inline = content[colon + 1:].strip()
    if inline:
        return _parse_inline(inline), pos
    if pos < len(lines) and lines[pos].indent > indent:
        return _parse_block(lines, pos, lines[pos].indent)
    return None, pos


def _parse_map_block(lines, pos, indent):
    mapping = {}
    while pos < len(lines) and lines[pos].indent == indent:
        line = lines[pos]
        colon = _find_colon(line.content)
        if colon < 0:
            raise ScenarioError(
                f"line {line.number}: expected 'key: value', "
                f"got {line.content!r}"
            )
        key = _parse_scalar(line.content[:colon])
        if key in mapping:
            raise ScenarioError(
                f"line {line.number}: duplicate key {key!r}"
            )
        value, pos = _parse_map_entry_value(
            line.content, colon, lines, pos + 1, indent
        )
        mapping[key] = value
    if pos < len(lines) and lines[pos].indent > indent:
        raise ScenarioError(
            f"line {lines[pos].number}: unexpected indentation"
        )
    return mapping, pos


def parse_recipe_text(text):
    """Parse a recipe document (YAML subset or JSON) into plain dicts.

    The YAML subset: indentation-nested mappings, ``- item`` list
    blocks, inline ``[a, b]`` lists and ``{k: v}`` mappings, scalars
    (int, float, bool, null, quoted/unquoted strings), ``#`` comments.
    No anchors, no multi-document streams, no block scalars.

    >>> parse_recipe_text("a: 1\\nb: [x, y]")
    {'a': 1, 'b': ['x', 'y']}
    >>> parse_recipe_text('{"a": 1}')
    {'a': 1}
    """
    stripped = text.lstrip()
    if stripped.startswith("{"):
        try:
            return json.loads(text)
        except json.JSONDecodeError:
            pass  # fall through to the YAML-subset parser
    lines = _logical_lines(text)
    if not lines:
        raise ScenarioError("empty recipe document")
    root_indent = lines[0].indent
    value, pos = _parse_block(lines, 0, root_indent)
    if pos != len(lines):
        raise ScenarioError(
            f"line {lines[pos].number}: content outside the root block"
        )
    return value


# ---------------------------------------------------------------------------
# Recipe key registry (single source of truth for validation + docs)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Field:
    """One recipe key: dotted path (``<x>`` marks user-named segments),
    accepted type(s), default, and documentation."""

    path: str
    type: str
    default: object = None
    required: bool = False
    description: str = ""
    choices: tuple = ()

    def segments(self):
        return tuple(self.path.split("."))


def _property_fields(owner, depends_on):
    """The keys of one property definition under ``owner`` (node and
    edge properties take the same four)."""
    prop = f"{owner}.properties.<prop>"
    return (
        Field(prop, "map", required=True,
              description="One property definition."),
        Field(f"{prop}.dtype", "str", default="string",
              choices=("string", "long", "double", "date", "bool"),
              description="Logical value type."),
        Field(f"{prop}.generator", "str", required=True,
              description="Property-generator name from "
                          "`repro.properties.registry` (e.g. "
                          "categorical, uniform_int, date_range, "
                          "template)."),
        Field(f"{prop}.params", "map", default={},
              description="Generator parameters; values may use "
                          "$constructors ($zipf, $dataset, ...)."),
        Field(f"{prop}.depends_on", "list[str]", default=[],
              description=depends_on),
    )


RECIPE_FIELDS = (
    Field("scenario", "str", required=True,
          description="Scenario name (identifier; names output files "
                      "and reports)."),
    Field("description", "str", default="",
          description="One-line human description, shown by "
                      "`scenario list` / `describe`."),
    Field("seed", "int", default=0,
          description="Default root seed; `--seed` overrides."),
    Field("tags", "list[str]", default=[],
          description="Free-form labels, shown by `scenario list`."),
    Field("nodes", "map", required=True,
          description="Node types: maps each type name to its spec."),
    Field("nodes.<type>", "map", required=True,
          description="One node type."),
    Field("nodes.<type>.properties", "map", default={},
          description="Properties of the node type, by name."),
    *_property_fields(
        "nodes.<type>",
        "Sibling properties fed to the generator (conditional "
        "distributions).",
    ),
    Field("edges", "map", default={},
          description="Edge types: maps each edge name to its spec."),
    Field("edges.<edge>", "map", required=True,
          description="One edge type."),
    Field("edges.<edge>.tail", "str", required=True,
          description="Tail node type (must be declared under "
                      "`nodes`)."),
    Field("edges.<edge>.head", "str", required=True,
          description="Head node type (must be declared under "
                      "`nodes`)."),
    Field("edges.<edge>.cardinality", "str", default="*..*",
          choices=("1..1", "1..*", "*..*"),
          description="Edge cardinality class."),
    Field("edges.<edge>.directed", "bool", default=False,
          description="Directed edge type (affects exports only)."),
    Field("edges.<edge>.structure", "map", required=True,
          description="Structure-generator binding."),
    Field("edges.<edge>.structure.generator", "str", required=True,
          description="SG name from `repro.structure.registry` (e.g. "
                      "lfr, rmat, bter, one_to_many, "
                      "bipartite_configuration, cascade_forest)."),
    Field("edges.<edge>.structure.params", "map", default={},
          description="SG parameters; values may use $constructors."),
    Field("edges.<edge>.correlation", "map", default=None,
          description="Optional property–structure correlation "
                      "(drives SBM-Part matching)."),
    Field("edges.<edge>.correlation.property", "str", required=True,
          description="Tail-type property whose joint must be "
                      "reproduced."),
    Field("edges.<edge>.correlation.head_property", "str",
          default=None,
          description="Head-type property (bipartite edges only)."),
    Field("edges.<edge>.correlation.joint", "map", required=True,
          description="Target joint: {$homophily: {affinity: A}}, "
                      "{$affinity: {affinity: A}} (bipartite) or "
                      "{$matrix: [[...], ...]}."),
    Field("edges.<edge>.correlation.values", "list", default=None,
          description="Explicit category order; defaults to the "
                      "categorical generator's `values`."),
    Field("edges.<edge>.properties", "map", default={},
          description="Edge properties, by name."),
    *_property_fields(
        "edges.<edge>",
        "Sibling edge properties, or endpoint properties as "
        "tail.<prop> / head.<prop>, fed to the generator.",
    ),
    Field("plants", "map", default={},
          description="Ground-truth pattern plants: maps each plant "
                      "name to its spec (see docs/planting.md)."),
    Field("plants.<plant>", "map", required=True,
          description="One plant: a template injected into the "
                      "generated world with a recorded node map."),
    Field("plants.<plant>.edge", "str", required=True,
          description="Target edge type the template edges are "
                      "appended to (must be monopartite)."),
    Field("plants.<plant>.template", "map", required=True,
          description="Template spec: a grown motif or an explicit "
                      "edge list."),
    Field("plants.<plant>.template.kind", "str", required=True,
          choices=("ring", "star", "clique", "path", "tree", "edges"),
          description="Template shape; `tree` grows a seeded random "
                      "recursive tree, `edges` takes an explicit "
                      "list."),
    Field("plants.<plant>.template.size", "int", default=None,
          description="Node count of a grown motif (not valid with "
                      "kind `edges`)."),
    Field("plants.<plant>.template.edges", "list", default=None,
          description="Explicit [tail, head] pairs over dense local "
                      "ids 0..k-1 (kind `edges` only)."),
    Field("plants.<plant>.count", "int", default=1,
          description="Number of disjoint copies to inject."),
    Field("plants.<plant>.attributes", "map", default={},
          description="Forced node-property values on every plant "
                      "node (candidate-narrowing labels)."),
    Field("plants.<plant>.noise", "map", default={},
          description="Seeded noise rates applied per injected copy."),
    Field("plants.<plant>.noise.delete", "float", default=0.0,
          description="Probability a template edge is dropped."),
    Field("plants.<plant>.noise.rewire", "float", default=0.0,
          description="Probability a surviving edge's head is "
                      "redirected to a random world node."),
    Field("plants.<plant>.noise.corrupt", "float", default=0.0,
          description="Probability a forced attribute is withheld on "
                      "a plant node."),
    Field("scale", "map", required=True,
          description="Scale anchors: node type → count and/or edge "
                      "type → edge count; `--scale` overrides."),
    Field("export", "map", default={},
          description="Default export settings for `scenario run`."),
    Field("export.formats", "list[str]", default=["csv"],
          description="Export formats, first is primary (csv, jsonl, "
                      "edgelist, graphml)."),
    Field("export.chunk_size", "int", default=65536,
          description="Rows per streamed export chunk."),
    Field("export.compress", "bool", default=False,
          description="Gzip the exported files."),
    Field("validation", "map", default={},
          description="Graded-validation thresholds (see "
                      "docs/scenarios.md §Validation)."),
    Field("validation.joint_ks", "map", default={},
          description="KS thresholds for correlated edges: "
                      "{warn: W, fail: F}."),
    Field("validation.joint_ks.warn", "float", default=0.35,
          description="Joint KS above this grades WARN."),
    Field("validation.joint_ks.fail", "float", default=0.6,
          description="Joint KS above this grades FAIL."),
    Field("validation.marginal_tv", "map", default={},
          description="Total-variation thresholds for categorical "
                      "marginals: {warn: W, fail: F}."),
    Field("validation.marginal_tv.warn", "float", default=0.05,
          description="Marginal TV above this grades WARN."),
    Field("validation.marginal_tv.fail", "float", default=0.12,
          description="Marginal TV above this grades FAIL."),
    Field("validation.degrees", "map", default={},
          description="Per-edge degree bands: maps edge name to "
                      "bounds."),
    Field("validation.degrees.<edge>", "map", required=True,
          description="Degree bounds of one edge type."),
    Field("validation.degrees.<edge>.min_mean", "float", default=None,
          description="Mean degree below this grades FAIL."),
    Field("validation.degrees.<edge>.max_mean", "float", default=None,
          description="Mean degree above this grades FAIL."),
    Field("validation.degrees.<edge>.max_degree", "int", default=None,
          description="Peak degree above this grades FAIL."),
    Field("validation.degrees.<edge>.warn_min_mean", "float",
          default=None,
          description="Mean degree below this grades WARN."),
    Field("validation.degrees.<edge>.warn_max_mean", "float",
          default=None,
          description="Mean degree above this grades WARN."),
    Field("validation.unique", "list[str]", default=[],
          description="Type.property columns that must hold unique "
                      "values."),
)

_TYPE_CHECKS = {
    "str": lambda v: isinstance(v, str),
    "int": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "float": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "bool": lambda v: isinstance(v, bool),
    "map": lambda v: isinstance(v, dict),
    "list": lambda v: isinstance(v, list),
    "list[str]": lambda v: isinstance(v, list)
    and all(isinstance(x, str) for x in v),
}


def _field_index():
    """Map of path-tuple -> Field, and of parent -> child key names."""
    by_path = {}
    children = {}
    for field in RECIPE_FIELDS:
        segs = field.segments()
        by_path[segs] = field
        children.setdefault(segs[:-1], set()).add(segs[-1])
    return by_path, children


_BY_PATH, _CHILDREN = _field_index()


def _candidates(segs):
    """Registry paths a concrete path may mean (wildcards)."""
    candidates = [()]
    for actual in segs:
        candidates = [
            cand + (declared,)
            for cand in candidates
            for declared in _CHILDREN.get(cand, ())
            if declared == actual or declared.startswith("<")
        ]
    return candidates


def _lookup(segs):
    """Resolve a concrete path against the registry (wildcards)."""
    for cand in _candidates(segs):
        if cand in _BY_PATH:
            return _BY_PATH[cand]
    return None


def _declared_children(segs):
    """Declared child key names at a concrete path (for errors)."""
    names = set()
    for cand in _candidates(segs):
        names.update(_CHILDREN.get(cand, ()))
    return names


def _validate_node(value, segs, errors):
    path = ".".join(segs) or "<root>"
    field = _lookup(segs) if segs else None
    if field is not None:
        if value is None and field.default is None \
                and not field.required:
            return  # an optional key whose default is null
        check = _TYPE_CHECKS.get(field.type)
        if check is not None and not check(value):
            errors.append(
                f"{path}: expected {field.type}, "
                f"got {type(value).__name__}"
            )
            return
        if field.choices and value not in field.choices:
            errors.append(
                f"{path}: {value!r} is not one of "
                f"{list(field.choices)}"
            )
    if not isinstance(value, dict):
        return
    declared = _declared_children(segs)
    if not declared:
        return  # free-form mapping (params, scale, ...)
    wildcard = any(name.startswith("<") for name in declared)
    for key, sub in value.items():
        if not wildcard and key not in declared:
            errors.append(
                f"{path}: unknown key {key!r}; "
                f"valid: {sorted(declared)}"
            )
            continue
        _validate_node(sub, segs + (str(key),), errors)
    if not wildcard:
        for name in declared:
            child = _lookup(segs + (name,))
            if child is not None and child.required \
                    and name not in value:
                errors.append(f"{path}: missing required key {name!r}")


def validate_recipe(recipe):
    """Validate a parsed recipe dict against :data:`RECIPE_FIELDS`.

    Raises :class:`ScenarioError` listing *every* problem found, each
    prefixed with its dotted key path.

    >>> validate_recipe({"scenario": "x"})
    ... # doctest: +IGNORE_EXCEPTION_DETAIL
    Traceback (most recent call last):
    ScenarioError: invalid recipe: <root>: missing required key 'nodes'
    """
    if not isinstance(recipe, dict):
        raise ScenarioError(
            f"recipe must be a mapping, got {type(recipe).__name__}"
        )
    errors = []
    _validate_node(recipe, (), errors)
    # Cross-references the registry cannot express.
    nodes = recipe.get("nodes")
    node_names = set(nodes) if isinstance(nodes, dict) else set()
    edges = recipe.get("edges")
    if isinstance(edges, dict):
        for name, edge in edges.items():
            if not isinstance(edge, dict):
                continue
            for side in ("tail", "head"):
                ref = edge.get(side)
                if isinstance(ref, str) and ref not in node_names:
                    errors.append(
                        f"edges.{name}.{side}: {ref!r} is not a "
                        f"declared node type "
                        f"(declared: {sorted(node_names)})"
                    )
    plants = recipe.get("plants")
    if isinstance(plants, dict) and isinstance(edges, dict):
        for name, plant in plants.items():
            if not isinstance(plant, dict):
                continue
            ref = plant.get("edge")
            if isinstance(ref, str) and ref not in edges:
                errors.append(
                    f"plants.{name}.edge: {ref!r} is not a declared "
                    f"edge type (declared: {sorted(edges)})"
                )
    scale = recipe.get("scale")
    if isinstance(scale, dict):
        known = node_names | (
            set(edges) if isinstance(edges, dict) else set()
        )
        for key, count in scale.items():
            if key not in known:
                errors.append(
                    f"scale: {key!r} names no node or edge type"
                )
            elif not isinstance(count, int) or isinstance(count, bool) \
                    or count < 1:
                errors.append(
                    f"scale.{key}: expected a positive int, "
                    f"got {count!r}"
                )
    for group in ("joint_ks", "marginal_tv"):
        warn, fail = (
            _get(recipe, f"validation.{group}.{level}",
                 _BY_PATH["validation", group, level].default)
            for level in ("warn", "fail")
        )
        if all(map(_TYPE_CHECKS["float"], (warn, fail))) and warn > fail:
            errors.append(
                f"validation.{group}: warn threshold {warn} is looser "
                f"than fail threshold {fail}, so it could never warn"
            )
    if errors:
        raise ScenarioError(
            "invalid recipe: " + "; ".join(errors)
        )
    return recipe


def _get(recipe, path, default):
    node = recipe
    for seg in path.split("."):
        if not isinstance(node, dict) or seg not in node:
            return default
        node = node[seg]
    return node if node is not None else default


@dataclass
class ScenarioSpec:
    """A validated recipe, with defaults applied.

    ``raw`` keeps the parsed document verbatim; the typed attributes
    cover everything the compiler and CLI need.

    >>> spec = ScenarioSpec.from_text(
    ...     "scenario: t\\n"
    ...     "nodes:\\n"
    ...     "  N:\\n"
    ...     "    properties:\\n"
    ...     "      v: {generator: uniform_int,"
    ...     " params: {low: 0, high: 2}}\\n"
    ...     "scale: {N: 10}\\n")
    >>> spec.name, spec.seed, spec.export_formats
    ('t', 0, ['csv'])
    """

    raw: dict
    name: str = ""
    description: str = ""
    seed: int = 0
    tags: list = dataclass_field(default_factory=list)
    nodes: dict = dataclass_field(default_factory=dict)
    edges: dict = dataclass_field(default_factory=dict)
    scale: dict = dataclass_field(default_factory=dict)
    export_formats: list = dataclass_field(default_factory=list)
    export_chunk_size: int = 65536
    export_compress: bool = False
    validation: dict = dataclass_field(default_factory=dict)
    plants: dict = dataclass_field(default_factory=dict)

    @classmethod
    def from_dict(cls, recipe):
        validate_recipe(recipe)
        return cls(
            raw=recipe,
            name=recipe["scenario"],
            description=_get(recipe, "description", ""),
            seed=int(_get(recipe, "seed", 0)),
            tags=list(_get(recipe, "tags", [])),
            nodes=dict(recipe["nodes"]),
            edges=dict(_get(recipe, "edges", {})),
            scale=dict(_get(recipe, "scale", {})),
            export_formats=list(
                _get(recipe, "export.formats", ["csv"])
            ),
            export_chunk_size=int(
                _get(recipe, "export.chunk_size", 65536)
            ),
            export_compress=bool(
                _get(recipe, "export.compress", False)
            ),
            validation=dict(_get(recipe, "validation", {})),
            plants=dict(_get(recipe, "plants", {})),
        )

    @classmethod
    def from_text(cls, text):
        return cls.from_dict(parse_recipe_text(text))

    def threshold(self, group, level):
        """A validation threshold with registry defaults applied.

        >>> ScenarioSpec.from_text(
        ...     "scenario: t\\nnodes: {N: {}}\\nscale: {N: 1}"
        ... ).threshold("joint_ks", "fail")
        0.6
        """
        return float(_get(
            self.validation, f"{group}.{level}",
            _BY_PATH["validation", group, level].default,
        ))


def load_recipe(path):
    """Read, parse and validate a recipe file.

    Accepts ``.yaml`` / ``.yml`` / ``.json``; the format is detected
    from the content, not the suffix.
    """
    with open(path, encoding="utf-8") as handle:
        text = handle.read()
    try:
        return ScenarioSpec.from_text(text)
    except ScenarioError as exc:
        raise ScenarioError(f"{path}: {exc}") from None


def recipe_reference_rows():
    """Rows of the recipe-key reference table, in declaration order.

    Each row is ``(path, type, required, default, description)`` —
    this is what ``docs/scenarios.md`` embeds and
    ``repro scenario describe`` prints.

    >>> rows = recipe_reference_rows()
    >>> rows[0][:3]
    ('scenario', 'str', 'yes')
    """
    rows = []
    for field in RECIPE_FIELDS:
        if field.required:
            default = ""
        elif field.default in (None, [], {}):
            default = "—" if field.default is None else repr(
                field.default
            )
        else:
            default = repr(field.default)
        description = field.description
        if field.choices:
            description += (
                " One of: " + ", ".join(
                    f"`{c}`" for c in field.choices
                ) + "."
            )
        rows.append((
            field.path,
            field.type,
            "yes" if field.required else "",
            default,
            description,
        ))
    return rows


def recipe_reference_markdown():
    """The recipe-key reference as a GitHub-flavoured markdown table.

    ``docs/scenarios.md`` embeds this table verbatim;
    ``tests/test_scenarios.py::TestDocSync`` asserts it stays in sync.
    Regenerate with::

        PYTHONPATH=src python -m repro.scenarios.spec
    """
    lines = [
        "| Key | Type | Required | Default | Description |",
        "| --- | --- | --- | --- | --- |",
    ]
    for path, type_, required, default, description in \
            recipe_reference_rows():
        cells = (
            f"`{path}`", type_, required,
            f"`{default}`" if default and default != "—" else default,
            description.replace("\n", " "),
        )
        lines.append("| " + " | ".join(cells) + " |")
    return "\n".join(lines) + "\n"


if __name__ == "__main__":  # pragma: no cover - docs regeneration
    print(recipe_reference_markdown(), end="")
