"""Lower scenario recipes onto the core schema/engine objects.

The compiler turns a validated :class:`~repro.scenarios.spec.
ScenarioSpec` into the exact objects the imperative API uses — a
:class:`~repro.core.schema.Schema`, a scale dict, and a list of
:class:`~repro.validation.Check` carrying the recipe's warn/fail
bands — so a recipe and a hand-built script drive *the same* engine:

    recipe (YAML) ──compile_scenario──► CompiledScenario
        .schema  : core Schema (nodes, edges, correlations)
        .scale   : scale anchors (recipe ∪ overrides)
        .graded_checks : the audit derived from schema + thresholds
    run_scenario(compiled, out_dir=...) ──► (graph, report)

``$constructor`` values — the recipe-side escape hatch for live Python
objects — are resolved here:

``{$zipf: {exponent, max}}`` and friends
    degree distributions (:mod:`repro.stats.distributions`);
``{$homophily: {affinity}}`` / ``{$affinity: {affinity}}`` /
``{$matrix: [[...], ...]}``
    joint distributions for correlations and ``attributed_sbm``,
    with marginals taken from the correlated categorical property;
``{$dataset: {name, limit}}``
    embedded value tables (countries, names, interests, ...);
``{$scale: Type}``
    the *final* scale anchor of a node type (recipe ∪ overrides) —
    for structure parameters that must track a count, e.g. a
    bipartite ``head_nodes`` tied to the head type's anchor, so
    rescaled runs (smoke clamps, ``--scale`` overrides) stay
    consistent without editing the recipe.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..core.engine import GraphGenerator
from ..core.run import RunOptions
from ..core.schema import (
    Cardinality,
    CorrelationSpec,
    EdgeType,
    GeneratorSpec,
    NodeType,
    PropertyDef,
    Schema,
    SchemaError,
)
from ..validation import (
    DegreeDistributionCheck,
    UniquenessCheck,
    run_graded,
    standard_checks,
)
from .spec import ScenarioError, ScenarioSpec

__all__ = [
    "CompiledScenario",
    "compile_scenario",
    "run_scenario",
]


# ---------------------------------------------------------------------------
# $constructor resolution
# ---------------------------------------------------------------------------

def _require_args(kind, args, where, required, optional=None):
    """The arguments of ``{$kind: args}`` at recipe path ``where``,
    checked then converted: ``required`` and ``optional`` map each
    argument name to its converter (``float``, ``int``, ...).  A
    missing, unknown or unconvertible argument is a
    :class:`ScenarioError` naming its path."""
    where = f"{where}.${kind}"
    if not isinstance(args, dict):
        raise ScenarioError(
            f"{where}: expects a mapping of arguments, got {args!r}"
        )
    takes = {**required, **(optional or {})}
    missing = [key for key in required if key not in args]
    unknown = [key for key in args if key not in takes]
    if missing or unknown:
        problems = []
        if missing:
            problems.append(f"missing {missing}")
        if unknown:
            problems.append(f"unknown {unknown}")
        raise ScenarioError(
            f"{where}: {'; '.join(problems)} (takes {sorted(takes)})"
        )
    converted = {}
    for key, value in args.items():
        try:
            converted[key] = takes[key](value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ScenarioError(
                f"{where}.{key}: {exc} (got {value!r})"
            ) from None
    return converted


def _marginal(weights):
    """``weights`` normalised to a probability vector; ``ValueError``
    unless they are a non-empty 1-D list of finite nonnegative numbers
    with a positive sum."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.ndim != 1 or not weights.size \
            or not np.isfinite(weights).all() or (weights < 0).any() \
            or weights.sum() <= 0:
        raise ValueError(
            "expected a non-empty list of finite nonnegative weights "
            "with a positive sum"
        )
    return weights / weights.sum()


def _categorical_domain(params, where):
    """``(values, marginal)`` of a categorical generator's ``params``
    (uniform without ``weights``), checked before anything uses them."""
    values = params.get("values")
    weights = params.get("weights")
    try:
        if not isinstance(values, (list, tuple, np.ndarray)) \
                or not len(values):
            raise ValueError(
                f"values must be a non-empty list, got {values!r}"
            )
        marginal = _marginal(
            [1.0] * len(values) if weights is None else weights
        )
        if marginal.size != len(values):
            raise ValueError(
                f"{marginal.size} weights for {len(values)} values"
            )
    except (TypeError, ValueError) as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    return list(values), marginal


def _make_distribution(kind, args, where):
    from ..stats import (
        Constant,
        Geometric,
        Poisson,
        PowerLaw,
        TruncatedGeometric,
        Uniform,
        Zipf,
    )

    if kind == "zipf":
        args = _require_args(kind, args, where,
                             {"exponent": float, "max": int})
        return Zipf(args["exponent"], args["max"])
    if kind == "uniform_degree":
        args = _require_args(kind, args, where, {"max": int})
        return Uniform(args["max"])
    if kind == "geometric":
        args = _require_args(kind, args, where, {"p": float, "max": int},
                             optional={"truncated": bool})
        cls = (
            TruncatedGeometric if args.get("truncated", True)
            else Geometric
        )
        return cls(args["p"], args["max"])
    if kind == "poisson":
        args = _require_args(kind, args, where,
                             {"lam": float, "max": int})
        return Poisson(args["lam"], args["max"])
    if kind == "powerlaw":
        args = _require_args(kind, args, where, {
            "gamma": float, "xmin": int, "xmax": int,
        })
        return PowerLaw(args["gamma"], args["xmin"], args["xmax"])
    if kind == "constant_degree":
        args = _require_args(kind, args, where, {"value": int},
                             optional={"max": int})
        return Constant(args["value"], args.get("max", args["value"]))
    return None


def _make_dataset(args, where):
    from ..datasets import (
        INTERESTS,
        TOPICS,
        VOCABULARY,
        conditional_name_table,
        country_names,
        country_weights,
    )

    args = _require_args("dataset", args, where, {"name": str},
                         optional={"limit": int})
    name = args["name"]
    tables = {
        "countries": country_names,
        "country_weights": country_weights,
        "interests": lambda: list(INTERESTS),
        "topics": lambda: list(TOPICS),
        "vocabulary": lambda: list(VOCABULARY),
        "name_table": conditional_name_table,
    }
    if name not in tables:
        raise ScenarioError(
            f"{where}.$dataset: unknown dataset {name!r}; "
            f"available: {sorted(tables)}"
        )
    value = tables[name]()
    limit = args.get("limit")
    if limit is not None:
        if name == "name_table":
            raise ScenarioError(
                f"{where}.$dataset: name_table takes no limit"
            )
        value = value[:limit]
    return value


class _JointContext:
    """Marginal lookup for $homophily/$affinity inside an edge spec."""

    def __init__(self, spec, edge_name):
        self.spec = spec
        self.edge_name = edge_name

    def _categorical(self, type_name, prop_name, where):
        nodes = self.spec.nodes
        prop = (
            nodes.get(type_name, {})
            .get("properties", {})
            .get(prop_name)
        )
        if not prop or prop.get("generator") != "categorical":
            raise ScenarioError(
                f"{where}: property {type_name}.{prop_name} must be "
                "a 'categorical' generator with values/weights to "
                "derive a joint marginal"
            )
        path = f"nodes.{type_name}.properties.{prop_name}.params"
        params = _resolve_value(
            prop.get("params", {}), self.spec, path, self.edge_name
        )
        return _categorical_domain(params, path)

    def tail_marginal(self, where):
        edge = self.spec.edges[self.edge_name]
        corr = edge.get("correlation") or {}
        prop = corr.get("property")
        if prop is None:
            raise ScenarioError(
                f"{where}: needs `correlation.property` on edge "
                f"{self.edge_name!r} to derive the marginal"
            )
        return self._categorical(edge["tail"], prop, where)

    def head_marginal(self, where):
        edge = self.spec.edges[self.edge_name]
        corr = edge.get("correlation") or {}
        prop = corr.get("head_property") or corr.get("property")
        return self._categorical(edge["head"], prop, where)


def _make_joint(kind, args, spec, edge_name, bipartite, where):
    from ..stats import JointDistribution, homophily_joint

    context = _JointContext(spec, edge_name)
    if kind == "homophily":
        args = _require_args(kind, args, where, {"affinity": float},
                             optional={"weights": _marginal})
        where = f"{where}.${kind}"
        if bipartite:
            # A homophilous joint is square, so both endpoint domains
            # must agree — catch the mismatch here with a recipe path
            # instead of deep inside the matching step.
            tail_values, _ = context.tail_marginal(where)
            head_values, _ = context.head_marginal(where)
            if list(tail_values) != list(head_values):
                raise ScenarioError(
                    f"{where}: tail and head categories differ "
                    f"({len(tail_values)} vs {len(head_values)} "
                    "values); use $matrix for asymmetric domains"
                )
        if "weights" in args:
            marginal = args["weights"]
        else:
            _, marginal = context.tail_marginal(where)
        joint = homophily_joint(marginal, args["affinity"])
        return joint.matrix if bipartite else joint
    if kind == "affinity":
        a = _require_args(kind, args, where,
                          {"affinity": float})["affinity"]
        if not 0.0 <= a <= 1.0:
            raise ValueError("affinity must lie in [0, 1]")
        where = f"{where}.${kind}"
        tail_values, tail_m = context.tail_marginal(where)
        head_values, head_m = context.head_marginal(where)
        if list(tail_values) != list(head_values):
            raise ScenarioError(
                f"{where}: tail and head categories differ; use "
                "$matrix for asymmetric domains"
            )
        matrix = (
            a * np.diag(tail_m)
            + (1.0 - a) * np.outer(tail_m, head_m)
        )
        matrix = matrix / matrix.sum()
        if bipartite:
            return matrix
        return JointDistribution((matrix + matrix.T) / 2.0)
    if kind == "matrix":
        try:
            matrix = np.asarray(args, dtype=np.float64)
        except TypeError as exc:
            raise ValueError(exc) from None
        if matrix.ndim != 2:
            raise ValueError("needs a 2-D list of rows")
        if bipartite:
            return matrix / matrix.sum()
        return JointDistribution(matrix)
    return None


_DISTRIBUTION_KINDS = (
    "zipf", "uniform_degree", "geometric", "poisson", "powerlaw",
    "constant_degree",
)
_JOINT_KINDS = ("homophily", "affinity", "matrix")


def _make_scale_ref(args, scale, where):
    """``{$scale: Type}`` — the final scale anchor of a node type."""
    if isinstance(args, dict):
        args = _require_args("scale", args, where, {"type": str})["type"]
    where = f"{where}.$scale"
    if not isinstance(args, str):
        raise ScenarioError(
            f"{where}: expects a node-type name, got {args!r}"
        )
    if scale is None:
        raise ScenarioError(
            f"{where}: only valid where the final scale is known "
            "(structure / property params)"
        )
    if args not in scale:
        raise ScenarioError(
            f"{where}: no scale anchor for {args!r} "
            f"(anchors: {sorted(scale)})"
        )
    return int(scale[args])


def _construct(kind, args, spec, where, edge_name, bipartite, scale):
    """The live object ``{$kind: args}`` at recipe path ``where``."""
    if kind in _DISTRIBUTION_KINDS:
        return _make_distribution(kind, args, where)
    if kind == "dataset":
        return _make_dataset(args, where)
    if kind == "scale":
        return _make_scale_ref(args, scale, where)
    if kind in _JOINT_KINDS:
        if edge_name is None:
            raise ScenarioError(
                f"{where}: ${kind} is only valid inside an edge spec"
            )
        if kind == "matrix":
            args = _resolve_value(args, spec, f"{where}.$matrix",
                                  edge_name, bipartite, scale)
        return _make_joint(kind, args, spec, edge_name, bipartite, where)
    raise ScenarioError(
        f"{where}: unknown constructor ${kind}; available: "
        f"{sorted(('dataset', 'scale') + _DISTRIBUTION_KINDS + _JOINT_KINDS)}"
    )


def _resolve_value(value, spec, where, edge_name=None, bipartite=False,
                   scale=None):
    """Recursively resolve ``$constructor`` mappings inside ``value``,
    found at recipe path ``where``.  Anything else — a live Python
    object in a recipe dict included — passes through unchanged."""
    if isinstance(value, list):
        return [
            _resolve_value(v, spec, f"{where}[{i}]", edge_name,
                           bipartite, scale)
            for i, v in enumerate(value)
        ]
    if not isinstance(value, dict):
        return value
    if len(value) == 1:
        (key, args), = value.items()
        if isinstance(key, str) and key.startswith("$"):
            try:
                return _construct(key[1:], args, spec, where, edge_name,
                                  bipartite, scale)
            except ScenarioError:
                raise
            except ValueError as exc:  # the built object refuses a value
                raise ScenarioError(f"{where}.{key}: {exc}") from None
    return {
        k: _resolve_value(v, spec, f"{where}.{k}", edge_name, bipartite,
                          scale)
        for k, v in value.items()
    }


# ---------------------------------------------------------------------------
# Lowering to the core schema
# ---------------------------------------------------------------------------

def _check_generator_names(spec):
    from ..properties.registry import available_property_generators
    from ..structure.registry import available_generators

    pg_names = available_property_generators()
    sg_names = available_generators()
    problems = []
    for type_name, node in spec.nodes.items():
        for prop, body in (node or {}).get("properties", {}).items():
            name = body.get("generator")
            if name not in pg_names:
                problems.append(
                    f"nodes.{type_name}.properties.{prop}: unknown "
                    f"property generator {name!r}"
                )
    for edge_name, edge in spec.edges.items():
        name = edge.get("structure", {}).get("generator")
        if name not in sg_names:
            problems.append(
                f"edges.{edge_name}.structure: unknown structure "
                f"generator {name!r}"
            )
        for prop, body in edge.get("properties", {}).items():
            pg = body.get("generator")
            if pg not in pg_names:
                problems.append(
                    f"edges.{edge_name}.properties.{prop}: unknown "
                    f"property generator {pg!r}"
                )
    if problems:
        raise ScenarioError(
            "invalid recipe: " + "; ".join(problems)
        )


def _compile_properties(owner_path, properties, spec, edge_name=None,
                        scale=None):
    compiled = []
    for name, body in properties.items():
        where = f"{owner_path}.properties.{name}.params"
        params = _resolve_value(
            body.get("params", {}), spec, where, edge_name, scale=scale
        )
        if body["generator"] == "categorical":
            _categorical_domain(params, where)
        compiled.append(
            PropertyDef(
                name,
                body.get("dtype", "string"),
                GeneratorSpec(body["generator"], params),
                depends_on=tuple(body.get("depends_on", [])),
            )
        )
    return compiled


def _compile_edge(name, edge, spec, scale=None):
    bipartite = edge["tail"] != edge["head"]
    structure = edge["structure"]
    structure_params = _resolve_value(
        structure.get("params", {}), spec, f"edges.{name}.structure.params",
        name, bipartite, scale,
    )
    correlation = None
    corr = edge.get("correlation")
    if corr:
        joint = _resolve_value(
            corr["joint"], spec, f"edges.{name}.correlation.joint", name,
            bipartite,
        )
        if isinstance(joint, dict):
            raise ScenarioError(
                f"edges.{name}.correlation.joint must be a "
                "$homophily / $affinity / $matrix constructor"
            )
        values = corr.get("values")
        if values is None:
            context = _JointContext(spec, name)
            values, _ = context.tail_marginal(
                f"edges.{name}.correlation"
            )
        head_values = None
        if bipartite:
            context = _JointContext(spec, name)
            head_values, _ = context.head_marginal(
                f"edges.{name}.correlation"
            )
        correlation = CorrelationSpec(
            tail_property=corr["property"],
            joint=joint,
            head_property=corr.get("head_property"),
            values=tuple(values) if values is not None else None,
            head_values=(
                tuple(head_values) if head_values is not None
                else None
            ),
        )
    return EdgeType(
        name,
        tail_type=edge["tail"],
        head_type=edge["head"],
        cardinality=Cardinality.parse(
            edge.get("cardinality", "*..*")
        ),
        structure=GeneratorSpec(
            structure["generator"], structure_params
        ),
        properties=_compile_properties(
            f"edges.{name}", edge.get("properties", {}), spec, name,
            scale=scale,
        ),
        correlation=correlation,
        directed=bool(edge.get("directed", False)),
    )


@dataclass
class CompiledScenario:
    """A recipe lowered onto the core objects, ready to run."""

    spec: ScenarioSpec
    schema: Schema
    scale: dict
    seed: int
    name: str = ""
    description: str = ""
    graded_checks: list = field(default_factory=list)
    plants: list = field(default_factory=list)

    def generator(self, workers=1):
        """A :class:`~repro.core.engine.GraphGenerator` for this
        scenario.  ``workers`` is accepted and unused: an in-memory
        run's shards run inline, and the benchmark harness still
        passes it."""
        return GraphGenerator(self.schema, self.scale, seed=self.seed)


def _graded_checks(spec, schema):
    """The audit: the schema's standard checks at the recipe's bands,
    plus the recipe-declared degree and uniqueness checks (a dangling
    reference fails here, not in the audit of a finished run)."""
    checks = standard_checks(
        schema,
        joint_max_ks=spec.threshold("joint_ks", "fail"),
        joint_warn_ks=spec.threshold("joint_ks", "warn"),
        marginal_tolerance=spec.threshold("marginal_tv", "fail"),
        marginal_warn_tolerance=spec.threshold("marginal_tv", "warn"),
    )
    try:
        for edge_name, bounds in (
            spec.validation.get("degrees") or {}
        ).items():
            path = f"validation.degrees.{edge_name}"
            schema.edge_type(edge_name)
            checks.append(DegreeDistributionCheck(edge_name, **bounds))
        for index, column in enumerate(
            spec.validation.get("unique") or []
        ):
            path = f"validation.unique[{index}]"
            type_name, _, prop_name = column.partition(".")
            schema.node_type(type_name).property_named(prop_name)
            checks.append(UniquenessCheck(type_name, prop_name))
    except SchemaError as exc:
        raise ScenarioError(f"{path}: {exc}") from None
    return checks


def compile_scenario(spec, scale=None, seed=None):
    """Lower ``spec`` (a :class:`ScenarioSpec`, recipe dict, or recipe
    text) to a :class:`CompiledScenario`.

    ``scale`` entries override the recipe's anchors; ``seed`` overrides
    the recipe's seed.
    """
    if isinstance(spec, str):
        spec = ScenarioSpec.from_text(spec)
    elif isinstance(spec, dict):
        spec = ScenarioSpec.from_dict(spec)
    _check_generator_names(spec)
    final_scale = dict(spec.scale)
    if scale:
        final_scale.update(scale)
    if not final_scale:
        raise ScenarioError(
            f"scenario {spec.name!r} has no scale anchors; add a "
            "`scale:` block or pass --scale TYPE=COUNT"
        )
    node_types = [
        NodeType(
            name,
            properties=_compile_properties(
                f"nodes.{name}",
                (node or {}).get("properties", {}),
                spec,
                scale=final_scale,
            ),
        )
        for name, node in spec.nodes.items()
    ]
    schema = Schema(node_types=node_types)
    for name, edge in spec.edges.items():
        schema.add_edge_type(
            _compile_edge(name, edge, spec, scale=final_scale)
        )
    final_seed = spec.seed if seed is None else int(seed)
    plants = []
    if spec.plants:
        from ..planting import PlantingError, compile_plants

        try:
            plants = compile_plants(
                spec.plants, schema, final_seed, final_scale
            )
        except PlantingError as exc:
            raise ScenarioError(f"invalid recipe: {exc}") from None
    return CompiledScenario(
        spec=spec,
        schema=schema,
        scale=final_scale,
        seed=final_seed,
        name=spec.name,
        description=spec.description,
        graded_checks=_graded_checks(spec, schema),
        plants=plants,
    )


def run_scenario(compiled, out_dir=None, formats=None, chunk_size=None,
                 compress=None, validate=True, **run_options):
    """Generate, export, and grade a compiled scenario.

    Parameters
    ----------
    compiled:
        a :class:`CompiledScenario` (or anything
        :func:`compile_scenario` accepts).
    out_dir:
        export directory; ``None`` skips export.  The first format
        streams *during* generation, remaining formats export from the
        finished graph — all byte-identical to a serial run.
    formats, chunk_size, compress:
        override the recipe's ``export`` block.
    validate:
        run the graded audit (returns ``None`` report when False).
    **run_options:
        the :class:`~repro.core.run.RunOptions` fields, by keyword:
        ``workers``, ``backend``, ``shard_rows``, ``memory_budget``,
        ``spool_dir``, ``resume``, ``retries`` and ``faults``.
        ``workers`` sizes the out-of-core pool, or in memory the
        threads running independent tasks: the same bytes either way.
        ``shard_rows``, ``memory_budget`` or ``resume=True`` switch to
        the out-of-core run: the whole pipeline runs per id-range shard
        with disk-spooled tables, so peak memory is bounded by the
        shard size instead of the graph size (byte-identical output;
        see docs/scaling.md and docs/robustness.md).  ``backend`` and
        ``spool_dir`` only apply there and raise ``ValueError``
        elsewhere; ``retries`` and ``faults`` apply in memory too.
        The graded audit materialises the graph, so pass
        ``validate=False`` for graphs that genuinely do not fit in
        memory.

    Returns ``(graph, report, written)`` — the generated
    :class:`~repro.core.result.PropertyGraph` (under the plant
    overlay when the recipe declares plants), the
    :class:`~repro.validation.GradedReport` (or ``None``), and
    the list of written export paths.
    """
    import os

    from ..io import export_graph, make_sink

    options = RunOptions(**run_options)
    if not isinstance(compiled, CompiledScenario):
        compiled = compile_scenario(compiled)
    spec = compiled.spec
    formats = list(formats or spec.export_formats or ["csv"])
    chunk_size = options.export_chunk_size(
        spec.export_chunk_size if chunk_size is None else chunk_size
    )
    compress = (
        spec.export_compress if compress is None else compress
    )
    plants = list(getattr(compiled, "plants", []) or [])
    written = []

    def sink_for(fmt):
        return make_sink(
            fmt,
            os.path.join(out_dir, fmt) if len(formats) > 1 else out_dir,
            chunk_size=chunk_size, compress=compress,
        )

    sink = None
    if out_dir is not None and not plants:
        # Plants append edges after the generated block, so planted
        # runs cannot stream the primary format mid-generation; they
        # export from the finished overlay graph below instead.
        sink = sink_for(formats[0])
    graph = compiled.generator().generate(sink, options)
    if plants:
        from ..planting import plant_world

        graph, plan = plant_world(graph, plants, compiled.seed)
        if out_dir is not None:
            import json

            os.makedirs(out_dir, exist_ok=True)
            gt_path = os.path.join(out_dir, "ground_truth.json")
            with open(gt_path, "w", encoding="utf-8") as handle:
                json.dump(plan.to_dict(), handle, indent=2,
                          sort_keys=True)
                handle.write("\n")
            written.append(gt_path)
            extra_manifest = {"planting": plan.to_dict()}
            for fmt in formats:
                fmt_sink = sink_for(fmt)
                fmt_sink.extra_manifest = extra_manifest
                written.extend(export_graph(graph, fmt_sink))
    if sink is not None:
        written.extend(sink.written)
        for extra in formats[1:]:
            written.extend(export_graph(graph, sink_for(extra)))
    report = None
    if validate:
        # The audit computes whole-table statistics (joints, degree
        # histograms) over in-memory tables; resident ones are shared.
        report = run_graded(
            graph.materialize(), compiled.graded_checks,
            scenario=compiled.name, seed=compiled.seed,
            scale=compiled.scale,
        )
    return graph, report, written
