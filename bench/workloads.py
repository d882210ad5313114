"""The batch and matching workloads, and the measuring loops they share.

Every workload answers two calls: ``measure`` (tracing off, the
end-to-end metrics) and ``traced`` (the per-layer metrics).  ``repro``
is imported inside ``setup`` so that import time is part of
``setup_s``.  Why each workload exists is recorded next to its name in
``BENCHMARK.json`` and at length in ``bench/README.md``.
"""

from __future__ import annotations

import gc
import hashlib
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from dataclasses import dataclass
from pathlib import Path

from . import oracle
from .trace import (
    Tracer,
    busy_by_kind,
    busy_by_layer,
    coverage,
    total,
    traced_wall,
)

#: Workload sizes.  The full sizes are the issue's sizes cut to fit the
#: driver's budget (about 21 s per run for 158 runs): one operation
#: takes 0.4-1.5 s here, so a 10 s run holds 7-25 of them.
SIZES = {
    "full": {
        "person": 20_000, "shard_rows": 16_384,
        "o2m_person": 300_000, "o2m_budget": "32MB",
        "rmat_scale": 16, "k": 64,
        "serve_person": 20_000,
    },
    "quick": {
        "person": 2_000, "shard_rows": 2_048,
        "o2m_person": 20_000, "o2m_budget": "2MB",
        "rmat_scale": 11, "k": 16,
        "serve_person": 2_000,
    },
}
WARMUP_PERSON = 300


@dataclass
class Context:
    """What one invocation hands every workload."""

    seed: int
    quick: bool
    workdir: Path
    root: Path

    @property
    def sizes(self):
        return SIZES["quick" if self.quick else "full"]

    @property
    def min_repeats(self):
        return 1 if self.quick else 3

    @property
    def setup_samples(self):
        return 1 if self.quick else 3

    def scratch(self, name):
        """A fresh, empty path under the workdir."""
        path = self.workdir / name
        shutil.rmtree(path, ignore_errors=True)
        return path


# -- statistics and process accounting ---------------------------------------


def median(values):
    return statistics.median(values)


def spread(values):
    """Interquartile range as a share of the median (0 below 2 values)."""
    if len(values) < 2:
        return 0.0
    first, _, third = statistics.quantiles(values, n=4)
    return (third - first) / median(values)


def sample(values):
    """The sample-count record that goes beside a timing."""
    return {"n": len(values), "spread": spread(values)}


def maxrss_mb(who=resource.RUSAGE_SELF):
    return resource.getrusage(who).ru_maxrss / 1024.0


def cpu_seconds():
    """User + system CPU of this process and its waited-for children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (own.ru_utime + own.ru_stime
            + kids.ru_utime + kids.ru_stime)


def repeat(operation, seconds, min_repeats):
    """Call ``operation(i)`` until another call would overrun
    ``seconds``; returns the list of results.

    Everything ``operation`` does counts against ``seconds``, also
    the work outside its own timed region, such as hashing an export:
    that keeps the whole run bounded.
    """
    results = []
    started = time.perf_counter()
    while True:
        gc.collect()
        results.append(operation(len(results)))
        elapsed = time.perf_counter() - started
        if len(results) >= min_repeats \
                and elapsed + elapsed / len(results) > seconds:
            return results


def timed(function):
    """``(result, seconds)`` of one call, refusing to time under
    tracemalloc (the artefact this benchmark exists to retire)."""
    if tracemalloc.is_tracing():
        raise RuntimeError("tracemalloc is on during a timed run")
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start


def timing_outcome(setups, walls, work, peak_rss, attempted, failures,
                   notes):
    """The outcome of an untraced run whose operations each did
    ``work`` units (edges) in ``walls`` seconds."""
    return {
        "attempted": attempted,
        "failed": min(attempted, len(failures)),
        "failures": failures,
        "metrics": {
            "setup_s": median(setups),
            "throughput_per_s": work / median(walls),
            "op_p50_ms": median(walls) * 1e3,
            "peak_rss_mb": peak_rss,
        },
        "samples": {
            "setup_s": sample(setups),
            "throughput_per_s": sample(walls),
            "op_p50_ms": sample(walls),
            "peak_rss_mb": sample([peak_rss]),
        },
        "notes": notes,
    }


def per_key_median(dicts):
    keys = dicts[0].keys()
    return {key: median([d[key] for d in dicts]) for key in keys}


def rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


# -- layer metrics shared by the batch workloads -----------------------------


def layer_metrics(spans):
    """Per-layer numbers of one traced batch run, from its spans."""
    busy = busy_by_layer(spans)
    kind = busy_by_kind(spans)
    property_rows = total(spans, {"property", "edge_property"}, "rows")
    structure_edges = total(spans, {"structure"}, "rows")
    export_bytes = total(spans, {"export"}, "bytes")
    matching_s = busy.get("matching", 0.0)
    return {
        "properties.busy_s": busy.get("properties", 0.0),
        "properties.rows": property_rows,
        "properties.rows_per_s": rate(
            property_rows, busy.get("properties", 0.0)),
        "structure.busy_s": busy.get("structure", 0.0),
        "structure.edges": structure_edges,
        "structure.edges_per_s": rate(
            structure_edges, busy.get("structure", 0.0)),
        "matching.prepare_s": kind.get("match_prepare", 0.0),
        "matching.place_s": kind.get("match", 0.0),
        "matching.score_s": kind.get("score", 0.0),
        "matching.nodes": total(spans, {"match_prepare"}, "rows"),
        "matching.edges_per_s": rate(
            total(spans, {"match"}, "rows"), matching_s),
        "export.busy_s": busy.get("export", 0.0),
        "export.rows": total(spans, {"export"}, "rows"),
        "export.bytes": export_bytes,
        "export.mb_per_s": rate(
            export_bytes / 1e6, busy.get("export", 0.0)),
        "validation.busy_s": busy.get("validation", 0.0),
        "sharded.generate_spill_s": busy.get("sharded", 0.0),
        # The export half of a split run; 0 when the run is not split.
        "sharded.export_s":
            busy.get("export", 0.0) if "sharded" in busy else 0.0,
        "trace.coverage": coverage(spans),
        "trace.wall_s": traced_wall(spans),
    }


def chunk_probes(graph, chunk_size, path):
    """Re-read, format and write every table of ``graph`` once, each
    step timed on its own: the decomposition of an export.

    Uses the exporter's own chunk geometry and formatters, so the sum
    of the three should land near the export's busy time; what is
    left over is the sink's bookkeeping.
    """
    from repro.io import open_text
    from repro.io.chunks import (
        format_edge_csv_chunk,
        format_property_csv_chunk,
    )

    reread = formatting = writing = 0.0
    rows = read_bytes = 0
    tables = (
        [(t, format_property_csv_chunk)
         for t in graph.node_properties.values()]
        + [(t, format_edge_csv_chunk)
           for t in graph.edge_tables.values()]
        + [(t, format_property_csv_chunk)
           for t in graph.edge_properties.values()]
    )
    handle = open_text(path, "w", None)
    try:
        for table, formatter in tables:
            chunks = table.iter_chunks(chunk_size)
            while True:
                t0 = time.perf_counter()
                chunk = next(chunks, None)
                t1 = time.perf_counter()
                reread += t1 - t0
                if chunk is None:
                    break
                text = formatter(*chunk)
                t2 = time.perf_counter()
                handle.write(text)
                t3 = time.perf_counter()
                formatting += t2 - t1
                writing += t3 - t2
                rows += len(chunk[1])
                read_bytes += sum(
                    getattr(column, "nbytes", 0) for column in chunk[1:]
                )
    finally:
        # Closing flushes the text buffer: that is write time too.
        t0 = time.perf_counter()
        handle.close()
        writing += time.perf_counter() - t0
    os.unlink(path)
    return {
        "chunks.format_s": formatting,
        "chunks.rows_per_s": rate(rows, formatting),
        "chunks.write_s": writing,
        "spool.reread_s": reread,
        "spool.reread_mb_per_s": rate(read_bytes / 1e6, reread),
    }


def edge_count(graph):
    return sum(len(table) for table in graph.edge_tables.values())


def setup_samples(ctx, name, own_setup_s):
    """``setup_s`` samples: this process's own, then fresh
    interpreters that set the same workload up and report their time
    from process start to ready."""
    command = [
        sys.executable, "-m", "bench", "--workload", name,
        "--seed", str(ctx.seed), "--setup-probe",
        "--workdir", str(ctx.scratch("probe")),
    ] + (["--quick"] if ctx.quick else [])
    samples = [own_setup_s]
    for _ in range(ctx.setup_samples - 1):
        done = subprocess.run(
            command, cwd=ctx.root, check=True, capture_output=True,
            text=True, timeout=120,
        )
        samples.append(float(done.stdout.strip().splitlines()[-1]))
    return samples


def export_failures(runs, reference):
    """Failure messages over a list of runs: what each run reported
    itself, plus any export that differs from the ``reference``
    digests in a file name or a byte."""
    failures = []
    for index, run in enumerate(runs):
        failures += [f"run {index}: {f}" for f in run["failures"]]
        differing = oracle.tree_mismatches(reference, run["digests"])
        if differing:
            failures.append(
                f"run {index}: export differs in {differing[:3]}"
            )
    return failures


# -- batch workloads -----------------------------------------------------------


class BatchWorkload:
    """A generate-and-export run, repeated.

    Subclasses give ``prepare`` (build the inputs), ``execute`` (the
    untraced, user-visible run) and ``execute_traced`` (the same work
    with a span around each call into a layer).
    """

    name = None
    #: workers the run uses; above ``nproc`` the run is oversubscribed.
    workers = 1
    #: run the audit (also in the serial reference run).
    validate = False
    #: compare the export with a serial run of the same scenario.
    serial_reference = False

    def __init__(self, ctx):
        self.ctx = ctx
        self.compile_s = 0.0

    # -- set-up ------------------------------------------------------------

    def setup(self):
        """Imports, recipe compile, and one tiny run of the same path
        so that lazily loaded kernels are loaded before timing."""
        self.prepare()
        out = self.ctx.scratch("warmup")
        self.execute(out, warmup=True)
        shutil.rmtree(out, ignore_errors=True)

    def prepare(self):
        """Compile the zoo's social network at the workload's size and
        at warm-up size; the import is not part of the compile time."""
        from repro.scenarios import compile_scenario, load_zoo

        def compile_at(person):
            return compile_scenario(
                load_zoo("social_network"),
                scale={"Person": person}, seed=self.ctx.seed,
            )

        self.compiled, self.compile_s = timed(
            lambda: compile_at(self.ctx.sizes["person"])
        )
        self.tiny = compile_at(WARMUP_PERSON)

    # -- the two runs -------------------------------------------------------

    def run_once(self, index):
        out = self.ctx.scratch(f"out-{index}")
        run, wall = timed(lambda: self.execute(out))
        run["wall"] = wall
        run["digests"] = oracle.tree_digests(out)
        shutil.rmtree(out)
        return run

    def run_serial_reference(self):
        """Export of ``run_scenario(workers=1)`` on the same scenario:
        what every other front end must reproduce byte for byte."""
        from repro.scenarios import run_scenario

        out = self.ctx.scratch("out-serial")
        (graph, report, _), wall = timed(lambda: run_scenario(
            self.compiled, workers=1, out_dir=out, formats=["csv"],
            validate=self.validate,
        ))
        digests = oracle.tree_digests(out)
        shutil.rmtree(out)
        return {"wall": wall, "digests": digests}

    def measure(self, seconds, own_setup_s):
        setups = setup_samples(self.ctx, self.name, own_setup_s)
        runs = repeat(self.run_once, seconds, self.ctx.min_repeats)
        # Read before the reference run, which would raise the mark.
        peak_rss = maxrss_mb()
        attempted = len(runs)
        reference = runs[0]["digests"]
        if self.serial_reference:
            attempted += 1
            reference = self.run_serial_reference()["digests"]
        return timing_outcome(
            setups, [run["wall"] for run in runs], runs[0]["edges"],
            peak_rss, attempted, export_failures(runs, reference),
            self.notes(),
        )

    def traced(self, seconds):
        def pair(index):
            out = self.ctx.scratch(f"out-{index}")
            cpu0 = cpu_seconds()
            plain, plain_wall = timed(lambda: self.execute(out))
            cpu = cpu_seconds() - cpu0
            plain["digests"] = oracle.tree_digests(out)
            shutil.rmtree(out)
            tracer = Tracer(f"{self.name}-{self.ctx.seed}-{index}")
            traced_run = self.execute_traced(tracer, out)
            traced_run["digests"] = oracle.tree_digests(out)
            shutil.rmtree(out)
            layers = layer_metrics(tracer.spans)
            layers.update(traced_run.pop("layers"))
            layers.update({
                "trace.untraced_wall_s": plain_wall,
                "pool.cpu_s": cpu,
                "pool.cpu_over_wall": cpu / plain_wall,
            })
            return {"plain": plain, "traced": traced_run,
                    "layers": layers, "spans": tracer.spans}

        pairs = repeat(pair, seconds, min(2, self.ctx.min_repeats))
        runs = [p["plain"] for p in pairs] + [p["traced"] for p in pairs]
        attempted = len(runs)
        reference = runs[0]["digests"]
        serial = None
        if self.serial_reference:
            attempted += 1
            serial = self.run_serial_reference()
            reference = serial["digests"]
        failures = export_failures(runs, reference)
        layers = per_key_median([p["layers"] for p in pairs])
        layers["scenarios.compile_s"] = self.compile_s
        layers["trace.overhead_pct"] = 100.0 * (
            layers["trace.wall_s"] / layers["trace.untraced_wall_s"] - 1.0
        )
        if self.workers > 1:
            layers["pool.worker_peak_rss_mb"] = maxrss_mb(
                resource.RUSAGE_CHILDREN
            )
        if serial is not None:
            layers.update(self.against_serial(
                serial["wall"], layers["trace.untraced_wall_s"]
            ))
        return {
            "attempted": attempted,
            "failed": min(attempted, len(failures)),
            "failures": failures,
            "metrics": layers,
            "samples": {"trace.wall_s": sample(
                [p["layers"]["trace.wall_s"] for p in pairs])},
            "notes": self.notes(),
            "spans": pairs[-1]["spans"],
        }

    def notes(self):
        cpus = os.cpu_count() or 1
        return {"workers": self.workers, "nproc": cpus,
                "oversubscribed": self.workers > cpus}


class SocialFull(BatchWorkload):
    """Serial engine, every layer busy (the paper's Figure 1)."""

    name = "social_full"
    validate = True

    def execute(self, out, warmup=False):
        from repro.scenarios import run_scenario

        graph, report, _ = run_scenario(
            self.tiny if warmup else self.compiled,
            workers=self.workers, out_dir=out, formats=["csv"],
            validate=self.validate,
        )
        failures = []
        if report is not None and not report.passed:
            failures.append(f"audit grade {report.overall_grade}")
        return {"edges": edge_count(graph), "failures": failures}

    def execute_traced(self, tracer, out):
        """The serial loop of ``GraphGenerator.generate`` and the tail
        of ``run_scenario``, with a span per call."""
        from repro.core.result import PropertyGraph
        from repro.core.tasks import apply_task, export_task_output
        from repro.io import make_sink
        from repro.scenarios import run_graded

        compiled = self.compiled
        spec = compiled.spec
        with tracer.span("run", "root"):
            generator = compiled.generator(workers=1)
            result = PropertyGraph(compiled.schema, compiled.seed)
            structures = {}
            sink = make_sink(
                "csv", out, compress=spec.export_compress,
                **({"chunk_size": spec.export_chunk_size}
                   if spec.export_chunk_size else {}),
            )
            sink.begin(result)
            for task in generator.plan():
                with tracer.span(
                    task.task_id, task.kind, task.subject
                ) as span:
                    apply_task(
                        task, compiled.schema, compiled.scale,
                        compiled.seed, result, structures,
                    )
                    span["rows"] = _task_rows(task, result, structures)
                with tracer.span(
                    f"export:{task.task_id}", "export", task.subject
                ) as span:
                    before = len(sink.written)
                    export_task_output(task, sink)
                    span["bytes"] = _written_bytes(sink, before)
                    if len(sink.written) > before:
                        span["rows"] = _task_rows(task, result, {})
            with tracer.span("export:manifest", "export") as span:
                before = len(sink.written)
                sink.finish()
                span["bytes"] = _written_bytes(sink, before)
            with tracer.span("run_graded", "validation"):
                report = run_graded(
                    result, compiled.graded_checks,
                    scenario=compiled.name, seed=compiled.seed,
                    scale=compiled.scale,
                )
        joint = [r.metric for r in report.results
                 if r.name.startswith("joint[")]
        layers = chunk_probes(
            result, sink.chunk_size, self.ctx.scratch("probe.csv")
        )
        layers["validation.joint_ks"] = max(joint) if joint else 0.0
        layers["matching.impl_c"] = _matching_impl_c()
        failures = [] if report.passed else [
            f"audit grade {report.overall_grade}"
        ]
        return {"edges": edge_count(result), "failures": failures,
                "layers": layers}


def _task_rows(task, result, structures):
    """The work one finished task did, as a row count."""
    if task.kind == "property":
        return len(result.node_properties[task.subject])
    if task.kind == "edge_property":
        return len(result.edge_properties[task.subject])
    if task.kind == "structure":
        return structures[task.subject].num_edges
    if task.kind == "match_prepare":
        return structures[task.subject].num_tail_nodes
    if task.kind == "match":
        return len(result.edge_tables[task.subject])
    return 0


def _written_bytes(sink, before):
    return sum(
        os.path.getsize(path) for path in sink.written[before:]
    )


def _matching_impl_c():
    from repro.core.matching import available_impls

    return 1 if available_impls()[0] == "c" else 0


class SocialDagP2(SocialFull):
    """Same scenario through the process-pool DAG executor."""

    name = "social_dag_p2"
    workers = 2
    serial_reference = True

    def against_serial(self, serial_wall, wall):
        return {"pool.speedup_x": serial_wall / wall}

    def execute_traced(self, tracer, out):
        """No inner spans: the work happens in pool workers, which
        this package does not instrument.  CPU accounting is taken
        around the untraced run by the caller."""
        with tracer.span("run", "root"):
            with tracer.span("run_scenario", "pool") as span:
                run = self.execute(out)
                span["rows"] = run["edges"]
        run["layers"] = {}
        return run


class ShardedWorkload(BatchWorkload):
    """Out-of-core run: streamed when timed, split when traced."""

    backend = "thread"

    def make_executor(self, spool_dir, warmup=False):
        raise NotImplementedError

    def make_sink(self, out, executor):
        from repro.io import make_sink

        return make_sink("csv", out, chunk_size=executor.shard_rows)

    def execute(self, out, warmup=False):
        spool = self.ctx.scratch("spool")
        executor = self.make_executor(spool, warmup)
        result = executor.run(sink=self.make_sink(out, executor))
        edges = edge_count(result)
        result.cleanup()
        return {"edges": edges, "failures": []}

    def execute_traced(self, tracer, out):
        """Generate into the spool, then export from it: the two
        halves of a sharded run as two spans, then the export's own
        three steps probed over the same spooled tables."""
        from repro.io import export_graph

        spool = self.ctx.scratch("spool")
        executor = self.make_executor(spool)
        sink = self.make_sink(out, executor)
        with tracer.span("run", "root"):
            with tracer.span(
                "ShardedExecutor.run", "generate_spill"
            ) as span:
                result = executor.run(sink=None)
                span["rows"] = edge_count(result)
            with tracer.span("export_graph", "export") as span:
                export_graph(result, sink)
                span["bytes"] = _written_bytes(sink, 0)
                span["rows"] = sum(
                    len(table) for group in (
                        result.node_properties, result.edge_tables,
                        result.edge_properties,
                    ) for table in group.values()
                )
        layers = chunk_probes(
            result, sink.chunk_size, self.ctx.scratch("probe.csv")
        )
        layers["spool.disk_bytes"] = oracle.tree_bytes(spool)
        layers["sharded.shards"] = max(
            math.ceil(len(table) / executor.shard_rows)
            for table in result.edge_tables.values()
        )
        edges = edge_count(result)
        result.cleanup()
        return {"edges": edges, "failures": [], "layers": layers}


class ShardedSocialP2(ShardedWorkload):
    """Same scenario, out of core, two worker processes."""

    name = "sharded_social_p2"
    workers = 2
    backend = "process"
    validate = False
    serial_reference = True

    def against_serial(self, serial_wall, wall):
        return {"sharded.overhead_x": wall / serial_wall}

    def make_executor(self, spool_dir, warmup=False):
        from repro.core import ShardedExecutor

        compiled = self.tiny if warmup else self.compiled
        return ShardedExecutor(
            compiled.schema, compiled.scale, seed=compiled.seed,
            shard_rows=self.ctx.sizes["shard_rows"],
            workers=self.workers, backend=self.backend,
            spool_dir=spool_dir,
        )

    def execute(self, out, warmup=False):
        """The user-visible call: ``run_scenario`` in sharded mode."""
        from repro.scenarios import run_scenario

        graph, _, _ = run_scenario(
            self.tiny if warmup else self.compiled,
            workers=self.workers, out_dir=out, formats=["csv"],
            validate=False, shard_rows=self.ctx.sizes["shard_rows"],
            backend=self.backend, spool_dir=self.ctx.scratch("spool"),
        )
        edges = edge_count(graph)
        graph.cleanup()
        return {"edges": edges, "failures": []}


class ShardedO2M(ShardedWorkload):
    """One-to-many edges only: trivial structure and matching, so the
    spool round trip and text formatting do the work."""

    name = "sharded_o2m"

    def prepare(self):
        from repro.core.schema import (
            Cardinality,
            EdgeType,
            GeneratorSpec,
            NodeType,
            Schema,
        )
        from repro.stats import Zipf

        start = time.perf_counter()
        schema = Schema(node_types=[
            NodeType("Person"), NodeType("Message"),
        ])
        schema.add_edge_type(EdgeType(
            "creates", tail_type="Person", head_type="Message",
            cardinality=Cardinality.ONE_TO_MANY, directed=True,
            structure=GeneratorSpec("one_to_many", {
                "degree_distribution": Zipf(0.6, 10),
                "degree_offset": 1,
            }),
        ))
        self.schema = schema.validate()
        self.compile_s = time.perf_counter() - start

    def make_executor(self, spool_dir, warmup=False):
        from repro.core import ShardedExecutor

        person = WARMUP_PERSON if warmup else self.ctx.sizes["o2m_person"]
        return ShardedExecutor(
            self.schema, {"Person": person}, seed=self.ctx.seed,
            memory_budget=self.ctx.sizes["o2m_budget"],
            workers=self.workers, backend=self.backend,
            spool_dir=spool_dir,
        )


# -- the matching workload ----------------------------------------------------


class MatchRmat:
    """The paper's Figure-3/4 protocol: SBM-Part on an R-MAT graph
    whose ground truth is an LDG partition, random arrivals."""

    name = "match_rmat16_k64"

    def __init__(self, ctx):
        self.ctx = ctx

    def setup(self):
        self.build()
        self.match(Tracer("warmup"))

    def build(self):
        """Graph, LDG ground truth, target joint, PT and arrivals —
        steps 1-4 of ``repro.experiments.figure34.run_protocol``."""
        import numpy as np

        from repro.experiments.figure34 import make_graph
        from repro.partitioning import arrival_order, ldg_partition
        from repro.prng import RandomStream, derive_seed
        from repro.stats import TruncatedGeometric, empirical_joint
        from repro.tables import PropertyTable

        seed, k = self.ctx.seed, self.ctx.sizes["k"]
        graph = make_graph(
            "rmat", self.ctx.sizes["rmat_scale"],
            derive_seed(seed, "graph"),
        )
        labels = ldg_partition(
            graph,
            TruncatedGeometric(0.4, k).sizes(graph.num_nodes),
            tie_stream=RandomStream(derive_seed(seed, "ldg-ties")),
        )
        self.graph = graph
        self.expected = empirical_joint(
            graph.tails, graph.heads, labels, k=k
        )
        self.ptable = PropertyTable(
            "protocol.value",
            np.repeat(
                np.arange(k, dtype=np.int64),
                np.bincount(labels, minlength=k),
            ),
        )
        self.order = arrival_order(
            graph, "random",
            stream=RandomStream(derive_seed(seed, "arrival")),
        )

    def match(self, tracer):
        """Steps 5-6: prepare the stream, place, score."""
        from repro.core.matching import (
            prepare_match_stream,
            sbm_part_match,
        )
        from repro.stats import compare_joints, empirical_joint

        graph = self.graph
        with tracer.span("run", "root"):
            with tracer.span(
                "prepare_match_stream", "match_prepare"
            ) as span:
                prep = prepare_match_stream(graph, self.order)
                span["rows"] = graph.num_nodes
            with tracer.span("sbm_part_match", "match") as span:
                result = sbm_part_match(
                    self.ptable, self.expected, graph,
                    order=self.order, prep=prep,
                )
                span["rows"] = graph.num_edges
            with tracer.span("compare_joints", "score") as span:
                observed = empirical_joint(
                    graph.tails, graph.heads,
                    self.ptable.values[result.mapping],
                    k=self.ctx.sizes["k"],
                )
                ks = compare_joints(self.expected, observed).summary()["ks"]
                span["rows"] = graph.num_edges
        return {
            "ks": float(ks),
            "mapping": hashlib.sha256(
                result.mapping.tobytes()
            ).hexdigest(),
        }

    def run_once(self, index):
        tracer = Tracer(f"{self.name}-{self.ctx.seed}-{index}")
        run, wall = timed(lambda: self.match(tracer))
        run["wall"] = wall
        run["spans"] = tracer.spans
        return run

    def check(self, runs):
        """The matching repeats exactly: same KS bits, same mapping."""
        first = runs[0]
        return [
            f"run {index}: matching differs from run 0"
            for index, run in enumerate(runs)
            if (run["ks"], run["mapping"])
            != (first["ks"], first["mapping"])
        ]

    def measure(self, seconds, own_setup_s):
        setups = setup_samples(self.ctx, self.name, own_setup_s)
        runs = repeat(self.run_once, seconds, self.ctx.min_repeats)
        return timing_outcome(
            setups, [run["wall"] for run in runs], self.graph.num_edges,
            maxrss_mb(), len(runs), self.check(runs),
            {"workers": 1, "nproc": os.cpu_count() or 1,
             "oversubscribed": False},
        )

    def traced(self, seconds):
        """The spans here are three timer reads per run, so the traced
        and the untraced run are the same code; the overhead is the
        difference between alternate runs."""
        runs = repeat(self.run_once, seconds, 2 * self.ctx.min_repeats)
        failures = self.check(runs)
        plain = median([run["wall"] for run in runs[0::2]])
        layers = per_key_median(
            [layer_metrics(run["spans"]) for run in runs[1::2]]
        )
        layers["trace.untraced_wall_s"] = plain
        layers["trace.overhead_pct"] = 100.0 * (
            layers["trace.wall_s"] / plain - 1.0
        )
        layers["matching.ks"] = runs[0]["ks"]
        layers["matching.impl_c"] = _matching_impl_c()
        return {
            "attempted": len(runs),
            "failed": len(failures),
            "failures": failures,
            "metrics": layers,
            "samples": {"trace.wall_s": sample(
                [run["wall"] for run in runs[1::2]])},
            "notes": {},
            "spans": runs[-1]["spans"],
        }
