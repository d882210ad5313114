"""The overlapped run: ``RunOptions(workers=N)`` runs independent plan
tasks on ``N`` threads (:func:`repro.core.tasks.walk`), in memory and
out of core, and must be indistinguishable from the serial loop but
for its wall time:

* its export and its result tables are the serial run's, in plan
  order, and independent tasks do run at once — out of core, their
  shards share the pool's one bound of ``workers + 1`` in flight;
* a fault fires on the task it names at ``workers=1``: sites are
  numbered by plan position (and shard index), not by which thread
  reaches them first;
* a failing run raises the serial run's exception after writing the
  serial run's files, whichever site fails; out of core, a crash at
  any site resumes to the uninterrupted bytes;
* every compiled kernel gives the sequential result when threads call
  it at once, as the window does (the contract in
  :mod:`repro.core.ccompile`).

CI runs this file once more with ``REPRO_NO_CKERNEL=1``: the numpy
twins hold the interpreter lock far longer, which changes how the
threads interleave.
"""

from __future__ import annotations

import multiprocessing
import sys
import threading
import time
from collections import Counter
from concurrent.futures import Future, ProcessPoolExecutor, ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from repro.core import (
    EdgeType,
    GeneratorSpec,
    GraphGenerator,
    NodeType,
    PropertyDef,
    RunOptions,
    Schema,
)
from repro.core import ShardedError, sharded
from repro.core.faults import InjectedFault
from repro.core.matching import edge_count_target, sbm_part_assign
from repro.io import make_sink
from repro.io.chunks import format_edge_csv_chunk, format_property_csv_chunk
from repro.prng import RandomStream
from repro.properties.base import PropertyGenerator
from repro.properties.registry import (
    create_property_generator,
    register_property_generator,
)
from repro.scenarios import compile_scenario, load_zoo
from repro.stats import homophily_joint
from repro.structure import create_generator, pair_stubs_with_repair
from repro.tables.strings import StringColumn, as_strings

_SOCIAL = compile_scenario(load_zoo("social_network"), scale={"Person": 400})
_UNIFORM = PropertyDef("x", "long", GeneratorSpec(
    "uniform_int", {"low": 0, "high": 100}
))
_TABLES = (
    "node_counts", "node_properties", "edge_tables", "match_results",
    "edge_properties",
)


def _tree(root):
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(Path(root).rglob("*")) if path.is_file()
    }


@pytest.fixture
def short_switch():
    """A 10 µs interpreter switch interval, so threads interleave far
    more often than they would by default."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def _social(out, workers, fmt="csv", faults=None):
    return GraphGenerator(
        _SOCIAL.schema, _SOCIAL.scale, _SOCIAL.seed
    ).generate(
        make_sink(fmt, out, chunk_size=97),
        RunOptions(workers=workers, faults=faults),
    )


class TestBytes:
    @pytest.mark.usefixtures("short_switch")
    @pytest.mark.parametrize("workers", [2, 4])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_serial_bytes_and_tables_in_plan_order(self, fmt, workers,
                                                   tmp_path):
        serial = _social(tmp_path / "serial", 1, fmt)
        graph = _social(tmp_path / "window", workers, fmt)
        assert _tree(tmp_path / "window") == _tree(tmp_path / "serial")
        for name in _TABLES:
            assert list(getattr(graph, name)) == list(getattr(serial, name))

    def test_independent_tasks_run_at_once(self, registries):
        """Two property tables of one type wait for each other: only a
        run that holds both at once gets past the barrier."""

        class Rendezvous(PropertyGenerator):
            name = "overlap_test_rendezvous"
            barrier = None

            def parameter_names(self):
                return set()

            def run_many(self, ids, stream, *deps):
                Rendezvous.barrier.wait()
                return np.zeros(len(ids), dtype=np.int64)

        register_property_generator(Rendezvous)
        spec = GeneratorSpec(Rendezvous.name, {})
        generator = GraphGenerator(Schema(node_types=[NodeType("T", [
            PropertyDef("a", "long", spec), PropertyDef("b", "long", spec),
        ])]), {"T": 10})
        Rendezvous.barrier = threading.Barrier(2, timeout=30)
        generator.generate(options=RunOptions(workers=2))
        Rendezvous.barrier = threading.Barrier(2, timeout=0.2)
        with pytest.raises(threading.BrokenBarrierError):
            generator.generate()  # workers=1: one task at a time


def _two_structures():
    """``e1`` precedes ``e2`` in the plan, but its structure waits for
    ``count:B``: slow that count and ``e2``'s structure starts first."""
    er = GeneratorSpec("erdos_renyi_m", {"edges_per_node": 3})
    return Schema(
        node_types=[NodeType("A", [_UNIFORM]), NodeType("B", [_UNIFORM])],
        edge_types=[EdgeType("e1", "B", "B", structure=er),
                    EdgeType("e2", "A", "A", structure=er)],
    )


class TestFaults:
    def test_plan_runs_e2_structure_second(self):
        plan = [task.task_id for task in GraphGenerator(
            _two_structures(), {"A": 50, "B": 50}
        ).plan()]
        assert plan.index("structure:e1") < plan.index("structure:e2")
        assert plan.index("count:A") < plan.index("count:B")

    @pytest.mark.parametrize("faults", [
        "structure:1:crash",
        "count:1:slow=0.3,structure:1:crash",
        "count:1:slow=0.3,structure:0:crash",
        "count:1:crash",
        "count:1:slow=0.3,property:1:crash",
    ])
    def test_a_fault_fails_the_same_task(self, faults, monkeypatch):
        apply_task, outcomes = sharded.apply_task, []
        for workers in (1, 2):
            failed = []

            def apply(task, *args):
                try:
                    return apply_task(task, *args)
                except InjectedFault:
                    failed.append(task.task_id)
                    raise

            monkeypatch.setattr(sharded, "apply_task", apply)
            with pytest.raises(InjectedFault) as info:
                GraphGenerator(
                    _two_structures(), {"A": 300, "B": 300}, 3
                ).generate(options=RunOptions(
                    workers=workers, faults=faults
                ))
            outcomes.append((failed, str(info.value)))
        assert len(outcomes[0][0]) == 1
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("fault", [
        "count:0:crash", "count:1:crash", "structure:0:crash",
        "structure:1:crash", "property:0:crash", "property:4:crash",
        "property:8:crash", "match:0:crash", "match:1:crash",
        "shard:6:crash", "export:0:ioerror", "export:7:ioerror",
    ])
    def test_a_failing_run_fails_as_the_serial_run(self, fault, tmp_path):
        """The serial run's exception, and the serial run's files with
        their bytes, at every in-memory fault site."""
        outcomes = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            with pytest.raises((InjectedFault, OSError)) as info:
                _social(out, workers, faults=fault)
            outcomes.append((type(info.value), str(info.value), _tree(out)))
        assert outcomes[1] == outcomes[0]

    def test_first_failure_in_plan_order_wins(self, registries, tmp_path):
        """``p1`` fails slowly, ``p2`` at once: the run raises ``p1``'s
        error, as the serial loop would, after exporting ``p0``, and
        ``p3``, after both, never starts."""
        ran = []

        class Scripted(PropertyGenerator):
            name = "overlap_test_scripted"

            def parameter_names(self):
                return {"tag", "delay", "error"}

            def run_many(self, ids, stream, *deps):
                ran.append(self._params["tag"])
                time.sleep(self._params.get("delay", 0))
                if self._params.get("error"):
                    raise RuntimeError(self._params["error"])
                return np.zeros(len(ids), dtype=np.int64)

        register_property_generator(Scripted)
        schema = Schema(node_types=[NodeType("T", [
            PropertyDef(f"p{i}", "long", GeneratorSpec(Scripted.name, {
                "tag": f"p{i}", **params,
            }))
            for i, params in enumerate([
                {}, {"delay": 0.3, "error": "first"}, {"error": "second"},
                {},
            ])
        ])])
        trees = []
        for workers in (1, 2):
            ran.clear()
            out = tmp_path / f"w{workers}"
            with pytest.raises(RuntimeError, match="^first$"):
                GraphGenerator(schema, {"T": 20}).generate(
                    make_sink("csv", out), RunOptions(workers=workers)
                )
            assert "p3" not in ran
            trees.append(_tree(out))
        assert trees[1] == trees[0]
        assert list(trees[0]) == ["T.p0.csv"]


# -- out of core: the same window over the spool ------------------------------


def _sharded(out, workers, backend="thread", shard_rows=64):
    return GraphGenerator(
        _SOCIAL.schema, _SOCIAL.scale, _SOCIAL.seed
    ).generate(make_sink("csv", out, chunk_size=97), RunOptions(
        workers=workers, backend=backend, shard_rows=shard_rows,
        spool_dir=f"{out}.spool",
    ))


@pytest.fixture
def shards_in_flight(monkeypatch):
    """Snapshots, one per submission, of the shard jobs an executor
    holds that their caller has not yet collected, by table."""
    lock, now, snapshots = threading.Lock(), Counter(), []
    jobs = (sharded._property_shard_part, sharded._edge_shard_part)

    def counting(submit):
        def wrapper(self, fn, *args, **kwargs):
            future = submit(self, fn, *args, **kwargs)
            if fn in jobs:
                future.table = args[1]
                with lock:
                    now[args[1]] += 1
                    snapshots.append(+now)
            return future
        return wrapper

    for executor in (ThreadPoolExecutor, ProcessPoolExecutor):
        monkeypatch.setattr(executor, "submit", counting(executor.submit))
    result = Future.result

    def collected(self, timeout=None):
        value = result(self, timeout)
        if getattr(self, "table", None) is not None:
            with lock:
                now[self.table] -= 1
            self.table = None
        return value

    monkeypatch.setattr(Future, "result", collected)
    return snapshots


class TestOutOfCore:
    @pytest.mark.usefixtures("short_switch")
    @pytest.mark.parametrize("backend, workers", [
        ("thread", 2), ("thread", 4), ("process", 2),
    ])
    def test_serial_bytes_and_tables_in_plan_order(self, backend, workers,
                                                   tmp_path):
        serial = _social(tmp_path / "serial", 1)
        graph = _sharded(tmp_path / "window", workers, backend)
        try:
            assert _tree(tmp_path / "window") == _tree(tmp_path / "serial")
            for name in _TABLES:
                assert list(getattr(graph, name)) == list(
                    getattr(serial, name))
        finally:
            graph.cleanup()

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_independent_tasks_shards_run_at_once(self, backend, registries,
                                                  shards_in_flight,
                                                  tmp_path):
        """Two one-shard property tables wait for each other in the
        pool's workers: only their tasks' shards in flight together get
        past the barrier."""

        class Rendezvous(PropertyGenerator):
            name = "overlap_test_shard_rendezvous"
            barrier = multiprocessing.get_context("fork").Barrier(
                2, timeout=30)

            def parameter_names(self):
                return set()

            def run_many(self, ids, stream, *deps):
                Rendezvous.barrier.wait()
                return np.zeros(len(ids), dtype=np.int64)

        register_property_generator(Rendezvous)
        spec = GeneratorSpec(Rendezvous.name, {})
        GraphGenerator(Schema(node_types=[NodeType("T", [
            PropertyDef("a", "long", spec), PropertyDef("b", "long", spec),
        ])]), {"T": 10}).generate(options=RunOptions(
            workers=2, backend=backend, shard_rows=64,
            spool_dir=tmp_path / "spool",
        )).cleanup()
        assert {"T.a", "T.b"} in [set(tables) for tables in shards_in_flight]

    @pytest.mark.usefixtures("short_switch")
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_shards_in_flight_share_one_bound(self, backend,
                                              shards_in_flight, tmp_path):
        """However many tasks map at once, at most ``workers + 1`` shard
        jobs are in flight in all."""
        _sharded(tmp_path / "out", 2, backend, shard_rows=23).cleanup()
        assert len(shards_in_flight) > 100
        assert max(sum(tables.values()) for tables in shards_in_flight) <= 3


#: One crash per fault site of the out-of-core run over
#: ``_two_structures()``, whose plan is ``count:A, count:B,
#: property:A.x, property:B.x, structure:e1, match:e1, structure:e2,
#: match:e2``; a shard-level occurrence is ``n + j * tasks``.
_OUT_OF_CORE_CRASHES = {
    "count:1:crash": "count:B",
    "structure:1:crash": "structure:e2",
    "property:2:crash": "property:A.x",  # n 0 of 2, shard 1
    "match:3:crash": "match:e2",  # n 1 of 2, shard 1
    "shard:6:crash": "match:e1",  # n 2 of 4, shard 1
    "ledger:11:crash": "match:e2",  # n 5 of 6, the ack of shard 1
    "spill:6:crash": "structure:e2",  # n 2 of 4, its second spill
    "export:7:ioerror": None,  # raised while exporting, by no task
}


class TestOutOfCoreFaults:
    @staticmethod
    def _run(out, faults=None, **options):
        return GraphGenerator(
            _two_structures(), {"A": 300, "B": 300}, 3
        ).generate(make_sink("csv", out, chunk_size=97), RunOptions(
            shard_rows=64, spool_dir=f"{out}.spool", faults=faults,
            **options,
        ))

    @pytest.fixture(scope="class")
    def uninterrupted(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("clean") / "out"
        self._run(out).cleanup()
        return _tree(out)

    @pytest.mark.parametrize("fault", list(_OUT_OF_CORE_CRASHES))
    def test_a_crash_fails_its_task_and_resumes(self, fault, uninterrupted,
                                                tmp_path, monkeypatch):
        """Each crash fails the task it names — at one worker, on two
        threads or two processes, and with the plan's first count
        slowed so the tasks after it in plan order run first — and a
        resume writes the uninterrupted bytes."""
        apply_task, outcomes = sharded.apply_task, set()

        def apply(task, *args):
            try:
                return apply_task(task, *args)
            except Exception:
                failed.append(task.task_id)
                raise

        monkeypatch.setattr(sharded, "apply_task", apply)
        for leg, (faults, workers, backend) in enumerate([
            (fault, 1, "thread"),
            (fault, 2, "thread"),
            (fault, 2, "process"),
            (f"count:0:slow=0.2,{fault}", 2, "thread"),
            (f"count:0:slow=0.2,{fault}", 2, "process"),
        ]):
            failed, out = [], tmp_path / f"leg{leg}"
            with pytest.raises((InjectedFault, ShardedError, OSError)) as info:
                self._run(out, faults, workers=workers, backend=backend)
            error = info.value.__cause__ or info.value
            outcomes.add((tuple(failed), type(error), str(error)))
            self._run(out, workers=workers, backend=backend,
                      resume=True).cleanup()
            assert _tree(out) == uninterrupted, leg
        named = _OUT_OF_CORE_CRASHES[fault]
        assert outcomes == {(
            (named,) if named else (), *next(iter(outcomes))[1:]
        )}


# -- the compiled kernels, called from several threads at once ---------------


def _kernel_calls():
    """One zero-argument call per compiled unit, big enough that the
    threads' calls overlap."""
    degrees = np.random.default_rng(1).integers(1, 40, 4_000)
    degrees[0] += int(degrees.sum()) % 2
    words = [f"w{i}" for i in range(500)]
    table = create_generator("lfr", seed=4, avg_degree=12, max_degree=30,
                             mu=0.2).run(3000)
    k = 8
    sizes = np.full(k, -(-3000 // k), dtype=np.int64)
    target = edge_count_target(
        homophily_joint(np.full(k, 1 / k), 0.6), table.num_edges
    )
    ids = np.arange(50_000, dtype=np.int64)
    names = as_strings([f'n"{i}"' for i in range(20_000)])
    return {
        "structure pairing": lambda: pair_stubs_with_repair(
            degrees, RandomStream(5, "pairs")
        ),
        "property text": lambda: create_property_generator(
            "text", vocabulary=words, max_words=20
        ).run_many(np.arange(20_000), RandomStream(6, "text")),
        "matching placement": lambda: sbm_part_assign(
            table, sizes, target,
            order=RandomStream(7, "arrival").permutation(3000),
            tie_stream=RandomStream(7, "ties"),
        ),
        "row formatter": lambda: (
            format_edge_csv_chunk(5, ids, ids[::-1].copy())
            + format_property_csv_chunk(0, names)
        ),
        "permutation": lambda: RandomStream(8).permutation(100_000),
    }


def _canonical(value):
    if isinstance(value, StringColumn):
        return value.tolist()
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return value


@pytest.fixture(params=["ambient", "no-ckernel"])
def kernel_leg(request, monkeypatch):
    """The kernels as the environment has them, then their numpy
    twins."""
    if request.param == "no-ckernel":
        monkeypatch.setenv("REPRO_NO_CKERNEL", "1")


@pytest.mark.usefixtures("kernel_leg", "short_switch")
@pytest.mark.parametrize("unit", list(_kernel_calls()))
def test_kernel_result_is_the_sequential_one_from_threads(unit):
    """Four threads (more than the cores) call one unit at once, twice
    each; each call returns what the call returns alone."""
    call = _kernel_calls()[unit]
    expected = _canonical(call())
    start = threading.Barrier(4, timeout=30)

    def repeat():
        start.wait()
        return [_canonical(call()) for _ in range(2)]

    with ThreadPoolExecutor(4) as pool:
        futures = [pool.submit(repeat) for _ in range(4)]
        results = [future.result(timeout=120) for future in futures]
    assert all(got == expected for calls in results for got in calls)
