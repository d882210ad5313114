"""Command-line interface.

The catalog-driven entry point is the ``scenario`` subcommand — run a
named workload from the zoo (or any recipe file) end-to-end: generate,
stream-export, and emit a graded validation report::

    datasynth scenario list
    datasynth scenario describe social_network
    datasynth scenario run social_network --out out/
    datasynth scenario validate lfr_benchmark --scale Node=1000

``datasynth generate`` is the same command as ``scenario run``: it
takes a zoo name or a recipe path, generates the graph, streams it to
disk as it is generated (chunked, memory-bounded export; see
docs/io.md) and grades it::

    datasynth generate social_network --scale Person=10000 --out data/

Add ``--chunk-size N`` / ``--compress`` to tune the export, or
``--shard-rows N`` / ``--memory-budget SIZE`` to run out of core with
``--workers N`` filling shards on a pool — output bytes are identical
for every combination.  A further subcommand runs the paper's
evaluation protocol for quick inspection::

    datasynth protocol --kind lfr --size 10000 --k 16
"""

from __future__ import annotations

import argparse
import sys

__all__ = ["main", "build_parser"]


def _int_at_least(minimum, maximum=None):
    """argparse ``type``: an integer ``>= minimum`` (and ``<= maximum``
    when given; argparse itself names the offending flag in the error
    it prints)."""
    def integer(text):
        value = int(text)  # ValueError -> "invalid integer value"
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}"
            )
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(
                f"must be <= {maximum}, got {value}"
            )
        return value
    return integer


_positive_int = _int_at_least(1)

_WORKERS_HELP = (
    "worker-pool size of an out-of-core run (--shard-rows, "
    "--memory-budget or --resume); in memory, the threads that run "
    "independent tasks at once; the same bytes for any N"
)


def _positive_seconds(text):
    """argparse ``type``: a finite number of seconds ``> 0``."""
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(
            f"must be a number of seconds > 0, got {text!r}"
        )
    return value


def _add_sharding_args(cmd):
    cmd.add_argument(
        "--shard-rows", type=_positive_int, default=None, metavar="N",
        help="out-of-core mode: run the whole pipeline per N-row "
             "id-range shard with disk-spooled tables (byte-identical "
             "output, peak memory bounded by the shard size; see "
             "docs/scaling.md)",
    )
    cmd.add_argument(
        "--memory-budget", default=None, metavar="SIZE",
        help="out-of-core mode with the shard size derived from a "
             "memory budget, e.g. 512MB or 2G",
    )
    cmd.add_argument(
        "--backend", choices=("thread", "process"), default="thread",
        help="worker backend for out-of-core mode: 'thread' shares "
             "the GIL (low overhead, good for spool-IO-bound runs), "
             "'process' runs the shard kernels on a forked worker "
             "pool for CPU-bound pipelines; export is formatted in "
             "the parent (output is byte-identical either way; see "
             "docs/scaling.md)",
    )
    cmd.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="out-of-core spool location (default: a private "
             "temporary directory, removed on failure).  An explicit "
             "directory is preserved when a stage fails, which is "
             "what --resume needs",
    )
    cmd.add_argument(
        "--resume", default=None, metavar="DIR",
        help="resume an interrupted out-of-core run from the "
             "checkpoint.jsonl catalog in DIR: package version and "
             "run fingerprint are validated, verified shards are "
             "skipped, and the export is re-emitted byte-identical to "
             "an uninterrupted run (see docs/robustness.md)",
    )
    cmd.add_argument(
        "--retries", type=_int_at_least(0), default=0, metavar="N",
        help="per-shard retry budget: a failed or killed shard is "
             "re-run (respawning the out-of-core pool if it broke) "
             "with exponential backoff before the run aborts; in "
             "memory each table is one shard, retried inline",
    )
    cmd.add_argument(
        "--inject-faults", default=None, metavar="SPECS",
        help="deterministic fault injection for chaos testing, in "
             "memory or out of core, e.g. 'shard:3:crash' or "
             "'export:2:ioerror,shard:5:slow=2.0' (also honours the "
             "REPRO_FAULTS environment variable; see "
             "docs/robustness.md for the grammar)",
    )


def _add_run_args(cmd, with_export):
    cmd.add_argument(
        "name", help="zoo scenario name or recipe file path"
    )
    cmd.add_argument(
        "--scale", action="append", default=[],
        metavar="TYPE=COUNT",
        help="override the recipe's scale anchors (repeatable)",
    )
    cmd.add_argument(
        "--seed", type=int, default=None,
        help="override the recipe's seed",
    )
    cmd.add_argument(
        "--workers", type=_positive_int, default=1, metavar="N",
        help=_WORKERS_HELP,
    )
    cmd.add_argument(
        "--report-json", default=None, metavar="PATH",
        help="write the graded report as JSON to PATH",
    )
    cmd.add_argument(
        "--plant-report", action="store_true",
        help="run the baseline subgraph matcher over every "
             "planted template and print per-plant recall "
             "(exits 1 unless recall is 1.0; see "
             "docs/planting.md)",
    )
    _add_sharding_args(cmd)
    if with_export:
        cmd.add_argument(
            "--out", default=None,
            help="export directory (streams during generation; "
                 "a validation_report.json lands next to the "
                 "tables)",
        )
        cmd.add_argument(
            "--format", default=None,
            choices=("csv", "jsonl", "edgelist", "graphml"),
            help="override the recipe's export formats",
        )
        cmd.add_argument(
            "--chunk-size", type=_positive_int, default=None,
            metavar="N",
        )
        cmd.add_argument("--compress", action="store_true")
        cmd.add_argument(
            "--no-validate", action="store_true",
            help="skip the graded validation audit",
        )


def _run_options(parser, args):
    """The command line's :class:`~repro.core.run.RunOptions`; an
    inconsistent combination is an argparse error (exit 2) before
    anything runs."""
    from .core import RunOptions

    try:
        return RunOptions(
            workers=args.workers,
            backend=args.backend,
            shard_rows=args.shard_rows,
            memory_budget=args.memory_budget,
            spool_dir=args.resume or args.spool_dir,
            resume=args.resume is not None,
            retries=args.retries,
            faults=args.inject_faults,
        )
    except ValueError as exc:
        parser.error(str(exc))


def build_parser():
    parser = argparse.ArgumentParser(
        prog="datasynth",
        description=(
            "Property graph generator for benchmarking "
            "(reproduction of Prat-Pérez et al., 2017)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate",
        help="run a recipe: generate + export + graded validation "
             "report (the same command as `scenario run`)",
    )
    _add_run_args(generate, with_export=True)
    generate.set_defaults(scenario_command="run")

    protocol = sub.add_parser(
        "protocol",
        help="run the Figure-3/4 matching-quality protocol once",
    )
    protocol.add_argument(
        "--kind", choices=("lfr", "rmat"), default="lfr"
    )
    protocol.add_argument(
        "--size",
        type=_positive_int,
        default=10_000,
        help="node count (lfr) or scale exponent (rmat)",
    )
    protocol.add_argument("--k", type=_positive_int, default=16)
    protocol.add_argument("--seed", type=int, default=0)
    protocol.add_argument(
        "--matcher",
        choices=("sbm_part", "random", "ldg", "greedy"),
        default="sbm_part",
    )
    protocol.add_argument(
        "--points", type=_int_at_least(0), default=20,
        help="CDF sample points to print",
    )

    report = sub.add_parser(
        "report",
        help="run every paper experiment, write the graded markdown "
             "record, exit 1 if a finding fails",
    )
    report.add_argument("--out", default="report.md")
    report.add_argument("--seed", type=int, default=0)

    validate = sub.add_parser(
        "validate",
        help="generate the running example and audit its contracts",
    )
    validate.add_argument("--persons", type=_positive_int, default=2_000)
    validate.add_argument("--seed", type=int, default=0)

    analyze = sub.add_parser(
        "analyze",
        help="print the structural profile of an edge-list file",
    )
    analyze.add_argument("path", help="edge-list file (tail head rows)")
    analyze.add_argument(
        "--no-clustering", action="store_true",
        help="skip the O(m * d) clustering computation",
    )

    example = sub.add_parser(
        "example",
        help="generate the running-example social network",
    )
    example.add_argument("--persons", type=_positive_int, default=10_000)
    example.add_argument("--seed", type=int, default=0)
    example.add_argument("--out", default=None)

    scenario = sub.add_parser(
        "scenario",
        help="run declarative scenario recipes (the zoo) end-to-end",
        description=(
            "Declarative workloads: a recipe (YAML/JSON) names the "
            "schema, scale, export settings and validation "
            "thresholds; `run` generates, streams the export, and "
            "emits a graded pass/warn/fail report (text + JSON). "
            "See docs/scenarios.md."
        ),
    )
    scen_sub = scenario.add_subparsers(dest="scenario_command",
                                       required=True)

    scen_sub.add_parser(
        "list", help="list the built-in scenario zoo"
    )

    describe = scen_sub.add_parser(
        "describe",
        help="show a recipe's schema, knobs, and the recipe-key "
             "reference",
    )
    describe.add_argument(
        "name", help="zoo scenario name or recipe file path"
    )

    run = scen_sub.add_parser(
        "run",
        help="generate + export + graded validation report",
    )
    _add_run_args(run, with_export=True)

    validate_cmd = scen_sub.add_parser(
        "validate",
        help="generate (no export) and emit the graded report",
    )
    _add_run_args(validate_cmd, with_export=False)

    serve = sub.add_parser(
        "serve",
        help="serve a recipe as a random-access virtual graph over "
             "HTTP",
        description=(
            "Boot an HTTP server answering paginated node, property, "
            "edge, neighbourhood and existence queries directly from "
            "a recipe — no materialised graph.  Responses reuse the "
            "export formatters, so a CSV page equals the matching "
            "line range of a `repro generate` export.  See "
            "docs/serving.md."
        ),
    )
    serve.add_argument(
        "name", help="zoo scenario name or recipe file path"
    )
    serve.add_argument(
        "--scale", action="append", default=[], metavar="TYPE=COUNT",
        help="override the recipe's scale anchors (repeatable)",
    )
    serve.add_argument(
        "--seed", type=int, default=None,
        help="override the recipe's seed",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=_int_at_least(0, 65_535), default=8080,
        help="listen port (0 binds an ephemeral port)",
    )
    serve.add_argument(
        "--chunk-rows", type=_positive_int, default=65_536,
        metavar="N",
        help="page/scan granularity — the memory unit of every query",
    )
    serve.add_argument(
        "--spool-dir", default=None, metavar="DIR",
        help="where matching maps and spooled tables land "
             "(default: a private temporary directory)",
    )
    serve.add_argument(
        "--request-timeout", type=_positive_seconds, default=30.0,
        metavar="SECONDS",
        help="per-connection socket timeout — a stalled client is "
             "disconnected instead of pinning a handler thread",
    )
    serve.add_argument(
        "--verbose", action="store_true",
        help="log each request to stderr",
    )
    return parser


def _parse_scale(entries):
    scale = {}
    for entry in entries:
        key, _, count = entry.partition("=")
        # isdecimal: digits only, so "", "abc" and "-5" all fail here
        # instead of deep inside a structure generator.
        if not key.strip() or not count.strip().isdecimal():
            raise SystemExit(
                "--scale expects TYPE=COUNT with a nonnegative "
                f"integer COUNT, got {entry!r}"
            )
        scale[key.strip()] = int(count)
    return scale


def _cmd_protocol(args):
    from .experiments import run_protocol

    try:
        result = run_protocol(
            args.kind, args.size, args.k,
            seed=args.seed, matcher=args.matcher,
        )
    except ValueError as exc:  # a graph or k the protocol cannot make
        raise SystemExit(f"protocol error: {exc}") from None
    print(f"{result.label} matcher={args.matcher}")
    for key, value in result.row().items():
        print(f"  {key}: {value}")
    print(f"  match_seconds: {result.seconds_matching:.2f}")
    idx, expected, observed = result.comparison.series(args.points)
    print("  pair-rank expected-cdf observed-cdf")
    for i, e, o in zip(idx, expected, observed):
        print(f"  {int(i):9d} {e:12.4f} {o:12.4f}")
    return 0


def _running_example(args, num_countries):
    """The running-example social network at ``--persons``; a size the
    schema cannot make is a one-line ``schema error:`` exit."""
    from .core import GraphGenerator, SchemaError
    from .datasets import social_network_schema

    schema = social_network_schema(num_countries=num_countries)
    try:
        return schema, GraphGenerator(
            schema, {"Person": args.persons}, seed=args.seed,
        ).generate()
    except SchemaError as exc:
        raise SystemExit(f"schema error: {exc}") from None


def _cmd_example(args):
    from .io import export_graph, make_sink

    _, graph = _running_example(args, num_countries=16)
    print(f"running example: {graph.summary()}")
    match = graph.match_results.get("knows")
    if match is not None:
        print(f"  knows matching Frobenius error: "
              f"{match.frobenius_error:.1f}")
    if args.out:
        for path in export_graph(graph, make_sink("csv", args.out)):
            print(f"  wrote {path}")
    return 0


def _cmd_analyze(args):
    from .graphstats import structural_summary
    from .io import read_edgelist

    table = read_edgelist(args.path)
    summary = structural_summary(
        table, clustering=not args.no_clustering
    )
    print(f"structural profile of {args.path}:")
    for key, value in summary.items():
        if isinstance(value, float):
            value = round(value, 4)
        print(f"  {key}: {value}")
    return 0


def _cmd_report(args):
    from .experiments import generate_report

    text, findings = generate_report(seed=args.seed)
    with open(args.out, "w") as handle:
        handle.write(text)
    print(f"wrote {args.out}")
    for failure in findings.failures:
        print(failure)
    return 0 if findings.passed else 1


def _cmd_validate(args):
    from .validation import run_graded, standard_checks

    schema, graph = _running_example(args, num_countries=12)
    report = run_graded(graph, standard_checks(schema),
                        scenario="running_example",
                        scale={"Person": args.persons})
    print(report)
    return 0 if report.passed else 1


def _load_scenario_spec(name):
    """Resolve a CLI scenario argument: zoo name or recipe path."""
    import os

    from .scenarios import load_recipe, load_zoo

    if os.path.sep in name or name.endswith(
        (".yaml", ".yml", ".json")
    ):
        return load_recipe(name)
    return load_zoo(name)


def _cmd_scenario_list(args):
    from .scenarios import zoo_specs

    rows = [
        (
            name,
            ", ".join(f"{k}={v}" for k, v in spec.scale.items()),
            spec.description,
        )
        for name, spec in zoo_specs()
    ]
    name_w = max(len(r[0]) for r in rows)
    scale_w = max(len(r[1]) for r in rows)
    print(f"{'scenario':<{name_w}}  {'scale':<{scale_w}}  description")
    for name, scale, description in rows:
        print(f"{name:<{name_w}}  {scale:<{scale_w}}  {description}")
    return 0


def _cmd_scenario_describe(args):
    from .scenarios import recipe_reference_rows

    spec = _load_scenario_spec(args.name)
    print(f"scenario {spec.name!r}: {spec.description}")
    if spec.tags:
        print(f"  tags: {', '.join(spec.tags)}")
    print(f"  seed: {spec.seed}")
    print(f"  scale: "
          + ", ".join(f"{k}={v}" for k, v in spec.scale.items()))
    for type_name, node in spec.nodes.items():
        props = (node or {}).get("properties", {})
        print(f"  node {type_name} ({len(props)} properties)")
        for prop, body in props.items():
            deps = body.get("depends_on") or []
            suffix = f" depends({', '.join(deps)})" if deps else ""
            print(f"    {prop}: {body.get('dtype', 'string')} = "
                  f"{body.get('generator')}(...){suffix}")
    for edge_name, edge in spec.edges.items():
        arrow = "->" if edge.get("directed") else "--"
        corr = edge.get("correlation") or {}
        extra = (
            f", correlated on {corr['property']!r}"
            if corr.get("property") else ""
        )
        print(
            f"  edge {edge_name}: {edge['tail']} {arrow} "
            f"{edge['head']} "
            f"[{edge.get('cardinality', '*..*')}] via "
            f"{edge['structure']['generator']}{extra}"
        )
    print(f"  export: {', '.join(spec.export_formats)}")
    print()
    print("recipe keys (from repro.scenarios.spec.RECIPE_FIELDS; "
          "full reference: docs/scenarios.md):")
    for path, type_, required, default, _desc in \
            recipe_reference_rows():
        marks = []
        if required == "yes":
            marks.append("required")
        if default and default != "—":
            marks.append(f"default {default}")
        suffix = f"  ({'; '.join(marks)})" if marks else ""
        print(f"  {path:<46} {type_}{suffix}")
    return 0


def _cmd_scenario_run(args, export=True):
    import os

    from .scenarios import compile_scenario, run_scenario

    spec = _load_scenario_spec(args.name)
    compiled = compile_scenario(
        spec, scale=_parse_scale(args.scale), seed=args.seed
    )
    out_dir = getattr(args, "out", None) if export else None
    formats = None
    if export and args.format:
        formats = [args.format]
    validate = not (export and args.no_validate)
    graph, report, written = run_scenario(
        compiled,
        out_dir=out_dir,
        formats=formats,
        chunk_size=getattr(args, "chunk_size", None),
        compress=(getattr(args, "compress", False) or None),
        validate=validate,
        **vars(args.run_options),
    )
    summary = graph.summary()
    plant_report = None
    if getattr(args, "plant_report", False):
        plan = getattr(graph, "plan", None)
        if plan is None:
            print(
                f"scenario {compiled.name!r} declares no plants; "
                "--plant-report has nothing to verify"
            )
        else:
            from .graphstats import verify_plants

            plant_report = verify_plants(graph.materialize(), plan)
    if args.run_options.spool_dir is None:
        # An explicitly named spool is the user's to keep (it is what
        # --resume reads); owned temporaries are removed.
        graph.cleanup()
    print(f"scenario {compiled.name!r}: {summary}")
    for path in written:
        print(f"  wrote {path}")
    if plant_report is not None:
        print(
            f"plant report: {plant_report['recovered']}/"
            f"{plant_report['instances']} instances recovered "
            f"(recall {plant_report['recall']:.3f})"
        )
        for name, row in plant_report["plants"].items():
            print(
                f"  plant {name} [{row['edge']}]: "
                f"{row['recovered']}/{row['instances']} recovered, "
                f"{row['matches']} matches, "
                f"{row['rows_per_sec']:.0f} rows/s"
            )
    if report is None:
        return (
            0 if plant_report is None
            else int(plant_report["recall"] < 1.0)
        )
    print(report)
    report_paths = []
    if args.report_json:
        report_paths.append(args.report_json)
    if out_dir is not None:
        report_paths.append(
            os.path.join(out_dir, "validation_report.json")
        )
    for path in report_paths:
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(report.to_json())
        print(f"  wrote {path}")
    return 0 if report.passed else 1


def _cmd_scenario(args):
    from .core import CheckpointError, SchemaError
    from .scenarios import ScenarioError

    handlers = {
        "list": _cmd_scenario_list,
        "describe": _cmd_scenario_describe,
        "run": _cmd_scenario_run,
        "validate": lambda a: _cmd_scenario_run(a, export=False),
    }
    try:
        return handlers[args.scenario_command](args)
    except (ScenarioError, SchemaError, OSError) as exc:
        raise SystemExit(f"scenario error: {exc}") from None
    except CheckpointError as exc:
        raise SystemExit(f"checkpoint error: {exc}") from None


def _cmd_serve(args):
    from .core import SchemaError
    from .scenarios import ScenarioError, compile_scenario
    from .serve import VirtualGraph, serve

    try:
        spec = _load_scenario_spec(args.name)
        compiled = compile_scenario(
            spec, scale=_parse_scale(args.scale), seed=args.seed
        )
        graph = VirtualGraph.from_scenario(
            compiled, spool_dir=args.spool_dir,
            chunk_rows=args.chunk_rows,
        )
    except (ScenarioError, SchemaError, OSError) as exc:
        raise SystemExit(f"scenario error: {exc}") from None
    try:
        serve(
            graph, compiled.name, args.host, args.port,
            verbose=args.verbose, request_timeout=args.request_timeout,
        )
    except RuntimeError as exc:
        raise SystemExit(str(exc)) from None
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "shard_rows"):  # generate, scenario run|validate
        args.run_options = _run_options(parser, args)
    handlers = {
        "generate": _cmd_scenario,
        "protocol": _cmd_protocol,
        "example": _cmd_example,
        "report": _cmd_report,
        "validate": _cmd_validate,
        "analyze": _cmd_analyze,
        "scenario": _cmd_scenario,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    sys.exit(main())
