"""Fault-tolerant sharded pipelines: checkpoint/resume, retry, faults.

The robustness contract (docs/robustness.md) is byte-identity under
failure: a run killed at *any* stage boundary and resumed from its
spool checkpoint must export exactly the bytes of an uninterrupted
run.  The differential oracle (``tests/test_property_based.py``)
resumes every schema it draws after a crash or an ``OSError`` at a
random fault site — an interrupted sink included; these tests pin the
deterministic fault-injection harness (``repro.core.faults``), both
retry paths (in-run respawn and cross-run resume), and the catalog /
fingerprint and spec-grammar layers under them.
"""

from __future__ import annotations

import errno
import json
import pickle
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.core import (
    CHECKPOINT_NAME,
    CheckpointError,
    FaultPlan,
    GraphGenerator,
    InjectedFault,
    RunOptions,
    ShardedError,
    parse_faults,
    run_fingerprint,
)
from repro.core.faults import plan_from_env
from repro.core.procpool import ShardPool
from repro.io.spool import CATALOG_VERSION
from repro.core.schema import (
    EdgeType,
    GeneratorSpec,
    NodeType,
    PropertyDef,
    Schema,
)
from repro.io import TableSpool, make_sink

SCALE = {"T": 200}
SHARD_ROWS = 64  # 200 rows -> 4 property shards, several edge shards


def _tiny_schema(strings=False):
    properties = [PropertyDef("x", "long", GeneratorSpec(
        "uniform_int", {"low": 0, "high": 100}
    ))]
    if strings:  # a dictionary string column: offsets + blob + codes
        properties.append(PropertyDef("s", "string", GeneratorSpec(
            "categorical", {"values": ["ab", "cd", "ef"]}
        )))
    schema = Schema(node_types=[NodeType("T", properties=properties)])
    schema.add_edge_type(EdgeType(
        "e", tail_type="T", head_type="T",
        structure=GeneratorSpec("erdos_renyi_m", {"edges_per_node": 3}),
    ))
    return schema


def _tree_bytes(root):
    root = Path(root)
    return {
        str(p.relative_to(root)): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(autouse=True)
def _short_backoff(monkeypatch):
    """Retried shards sleep 10 ms, not 100 ms, before each re-run."""
    monkeypatch.setattr(ShardPool, "BACKOFF", 0.01)


def _run(out, spool, *, fmt="csv", compress=None, seed=0, strings=False,
         **options):
    # Small export chunks so the ``export`` fault site sees several
    # write calls per file in every format (jsonl writes one chunk per
    # file at the default chunk size).
    schema = _tiny_schema(strings)
    return GraphGenerator(schema, SCALE, seed=seed).generate(
        make_sink(fmt, out, chunk_size=64, compress=compress),
        RunOptions(shard_rows=SHARD_ROWS, spool_dir=spool, **options),
    )


@pytest.fixture(scope="module")
def expected_csv(tmp_path_factory):
    base = tmp_path_factory.mktemp("clean")
    _run(base / "out", base / "spool")
    return _tree_bytes(base / "out")


def _assert_same_tree(got_dir, expected):
    got = _tree_bytes(got_dir)
    assert got.keys() == expected.keys()
    for key in expected:
        assert got[key] == expected[key], key


class TestResume:
    """Crash-then-resume byte identity at every fault site is a leg of
    the differential oracle (``tests/test_property_based.py``); these
    are the resume entry conditions."""

    def test_resume_requires_explicit_spool(self):
        with pytest.raises(ValueError, match="resume requires"):
            RunOptions(shard_rows=SHARD_ROWS, resume=True)

    def test_resume_of_untouched_spool_is_a_clean_run(
        self, expected_csv, tmp_path
    ):
        # No checkpoint at all: resume degrades to a fresh run.
        out, spool = tmp_path / "out", tmp_path / "spool"
        _run(out, spool, resume=True)
        _assert_same_tree(out, expected_csv)


class TestRetries:
    def test_retries_recover_sigkilled_worker(self, expected_csv,
                                              tmp_path):
        """Acceptance: ``retries=2`` survives a SIGKILL'd worker with
        no manual intervention and unchanged output bytes."""
        out = tmp_path / "out"
        _run(out, tmp_path / "spool", backend="process", workers=2,
             retries=2, faults="shard:1:kill")
        _assert_same_tree(out, expected_csv)

    def test_retries_recover_worker_exception(self, expected_csv,
                                              tmp_path):
        out = tmp_path / "out"
        _run(out, tmp_path / "spool", backend="process", workers=2,
             retries=1, faults="property:1:crash")
        _assert_same_tree(out, expected_csv)

    def test_retries_recover_sigkilled_single_worker(self, expected_csv,
                                                     tmp_path):
        out = tmp_path / "out"
        _run(out, tmp_path / "spool", backend="process", workers=1,
             retries=2, faults="shard:1:kill")
        _assert_same_tree(out, expected_csv)

    def test_inline_retries_recover_worker_exception(self, expected_csv,
                                                     tmp_path):
        """``workers=1`` on the thread backend runs each shard inline,
        on the same retry budget as a pooled shard."""
        out = tmp_path / "out"
        _run(out, tmp_path / "spool", backend="thread", workers=1,
             retries=1, faults="property:1:crash")
        _assert_same_tree(out, expected_csv)

    def test_inline_exhausted_retries_raise_the_kernel_exception(
        self, tmp_path
    ):
        # Two attempts, both crash: the inline path re-raises the
        # kernel's own exception, as a serial run would.
        with pytest.raises(InjectedFault):
            _run(tmp_path / "out", tmp_path / "spool", backend="thread",
                 workers=1, retries=1, faults="property:1:crash:x2")

    def test_exhausted_retries_surface_shard_and_traceback(
        self, tmp_path
    ):
        """Regression: the worker traceback must survive the process
        boundary, and the error names the failing shard."""
        with pytest.raises(ShardedError) as excinfo:
            _run(tmp_path / "out", tmp_path / "spool",
                 backend="process", workers=2, retries=1,
                 faults="property:1:crash:x5")
        exc = excinfo.value
        assert exc.shard == 1
        assert "InjectedFault" in (exc.worker_traceback or "")
        assert "worker traceback" in str(exc)
        assert "after 2 attempts" in str(exc)

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_disk_full_shard_fails_once_then_resumes(self, expected_csv,
                                                     tmp_path, backend):
        """A full disk (``ioerror`` raises ``ENOSPC``) under a pooled
        shard fails the run with one ``ShardedError``; the caller-owned
        spool keeps the acked prefix, and ``--resume`` completes it to
        the uninterrupted bytes."""
        out, spool = tmp_path / "out", tmp_path / "spool"
        with pytest.raises(ShardedError) as excinfo:
            _run(out, spool, backend=backend, workers=2,
                 faults="shard:1:ioerror")
        cause = excinfo.value.__cause__
        assert isinstance(cause, OSError) and cause.errno == errno.ENOSPC
        assert (spool / CHECKPOINT_NAME).exists()
        _run(out, spool, backend=backend, workers=2, resume=True)
        _assert_same_tree(out, expected_csv)


def _run_in_memory(out, **options):
    """The same run in memory: no shard size, one shard per table."""
    return GraphGenerator(_tiny_schema(), SCALE, seed=0).generate(
        make_sink("csv", out, chunk_size=64), RunOptions(**options)
    )


class TestInMemory:
    """``retries`` and ``faults`` apply in memory too: each table is one
    shard, run and retried inline, at the out-of-core fault sites that
    have no spool behind them."""

    def test_retried_crash_writes_the_serial_bytes(self, tmp_path):
        _run_in_memory(tmp_path / "serial")
        plan = FaultPlan("property:0:crash", state_dir=tmp_path / "faults")
        _run_in_memory(tmp_path / "out", retries=1, faults=plan)
        assert plan.fired_count(plan.specs[0]) >= 1
        _assert_same_tree(tmp_path / "out", _tree_bytes(tmp_path / "serial"))

    @pytest.mark.parametrize("site, action, error", [
        ("count", "crash", InjectedFault),
        ("structure", "crash", InjectedFault),
        ("property", "crash", InjectedFault),
        ("match", "crash", InjectedFault),
        ("shard", "crash", InjectedFault),
        ("export", "ioerror", OSError),
    ])
    def test_unretried_fault_raises_its_own_exception(self, site, action,
                                                      error, tmp_path):
        """Every site fires in memory, and with no retries the run
        raises the fault itself, as the inline pool path does."""
        with pytest.raises(error, match=f"'{site}:0:{action}'"):
            _run_in_memory(tmp_path / "out", faults=f"{site}:0:{action}")

    @pytest.mark.parametrize("options", ["RunOptions()", "None"])
    def test_repro_faults_is_honoured(self, options, tmp_path,
                                      monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "property:0:crash")
        with pytest.raises(InjectedFault, match="'property:0:crash'"):
            if options == "RunOptions()":
                _run_in_memory(tmp_path / "out")
            else:
                GraphGenerator(_tiny_schema(), SCALE).generate()


class TestLedger:
    def test_fingerprint_mismatch_refuses_resume(self, tmp_path):
        out, spool = tmp_path / "out", tmp_path / "spool"
        with pytest.raises(InjectedFault):
            _run(out, spool, faults="match:1:crash")
        with pytest.raises(CheckpointError, match="fingerprint"):
            _run(out, spool, resume=True, seed=1)

    def test_sink_format_is_part_of_the_fingerprint(self, tmp_path):
        # A half-written CSV export must not resume as JSONL.
        out, spool = tmp_path / "out", tmp_path / "spool"
        with pytest.raises(InjectedFault):
            _run(out, spool, fmt="csv", faults="match:1:crash")
        with pytest.raises(CheckpointError, match="fingerprint"):
            _run(out, spool, fmt="jsonl", resume=True)

    def test_torn_part_is_regenerated_on_resume(self, expected_csv,
                                                tmp_path):
        """Shard acks carry size+CRC digests: a part file truncated
        after the crash (torn write, disk fault) is detected and the
        shard re-run instead of trusted."""
        out, spool = tmp_path / "out", tmp_path / "spool"
        with pytest.raises(InjectedFault):
            _run(out, spool, faults="match:1:crash")
        parts = sorted(spool.glob("parts/T.x.*"))
        assert parts, "expected spooled property parts"
        with open(parts[-1], "r+b") as handle:
            handle.truncate(max(handle.seek(0, 2) // 2, 1))
        _run(out, spool, resume=True)
        _assert_same_tree(out, expected_csv)

    def test_flipped_string_byte_is_regenerated_on_resume(self,
                                                         tmp_path):
        """A part's one CRC covers every column in it: a byte flipped
        inside the blob — the middle column of a dictionary string part
        — is caught on resume, and the shard re-run."""
        _run(tmp_path / "clean", tmp_path / "clean-spool", strings=True)
        out, spool = tmp_path / "out", tmp_path / "spool"
        with pytest.raises(InjectedFault):
            _run(out, spool, strings=True, faults="match:1:crash")
        lines = (spool / CHECKPOINT_NAME).read_text().splitlines()[1:]
        ack = [event for event in map(json.loads, lines)
               if event.get("table") == "T.s" and event["event"] == "ack"][-1]
        (_, offsets), (_, blob), _ = ack["columns"]
        assert ack["dtype"] == "string" and blob > 0
        part = spool / ack["files"][0]["path"]
        data = bytearray(part.read_bytes())
        data[offsets + blob // 2] ^= 0x01
        part.write_bytes(data)
        _run(out, spool, strings=True, resume=True)
        _assert_same_tree(out, _tree_bytes(tmp_path / "clean"))

    def test_fingerprint_sensitivity(self):
        schema = _tiny_schema()
        base = run_fingerprint(schema, SCALE, 0, 64, "csv")
        assert base == run_fingerprint(schema, SCALE, 0, 64, "csv")
        assert base != run_fingerprint(schema, SCALE, 1, 64, "csv")
        assert base != run_fingerprint(schema, SCALE, 0, 32, "csv")
        assert base != run_fingerprint(schema, SCALE, 0, 64, "jsonl")
        assert base != run_fingerprint(schema, {"T": 300}, 0, 64, "csv")

    def test_out_of_order_ack_rejected(self, tmp_path):
        """One function checks the ack order, live and on replay."""
        spool = TableSpool(tmp_path, SHARD_ROWS)
        spool.open_catalog("fp")
        values = np.arange(4, dtype=np.int64)
        spool.write_property_shard("k", 0, values)
        with pytest.raises(ValueError, match="out of order"):
            spool.write_property_shard("k", 2, values)
        with pytest.raises(ValueError, match="out of order"):
            spool.write_property_shard("k", 0, values)
        catalog = tmp_path / CHECKPOINT_NAME
        lines = catalog.read_text().splitlines(keepends=True)
        assert len(lines) == 2  # header + the one accepted ack
        catalog.write_text("".join(lines + lines[1:]))
        with pytest.raises(CheckpointError, match="line 3.*out of order"):
            TableSpool(tmp_path, SHARD_ROWS).open_catalog("fp", resume=True)

    def test_worker_clone_is_catalog_free(self, tmp_path):
        spool = TableSpool(tmp_path, SHARD_ROWS)
        spool.open_catalog("fp")
        spool.write_property_shard("k", 0, np.arange(4))
        clone = pickle.loads(pickle.dumps(spool))
        before = (tmp_path / CHECKPOINT_NAME).read_bytes()
        clone.write_property_shard("other", 0, np.arange(4))
        assert clone.verified_prefix("k") == 0
        assert (tmp_path / CHECKPOINT_NAME).read_bytes() == before


def _versions(header):
    return (f"repro {header['repro']} with numpy {header['numpy']} "
            f"(catalog format {header['catalog']})")


class _Tripwire:
    """Records being unpickled."""

    unpickled = False

    def __init__(self):
        self.armed = True  # a state, so unpickling calls __setstate__

    def __setstate__(self, state):
        type(self).unpickled = True


def _crashed_spool(tmp_path):
    """A spool left behind by a crash, with its catalog's lines."""
    out, spool = tmp_path / "out", tmp_path / "spool"
    with pytest.raises(InjectedFault):
        _run(out, spool, faults="match:1:crash")
    catalog = spool / CHECKPOINT_NAME
    return out, spool, catalog, catalog.read_text().splitlines()


class TestCatalogFile:
    """The loader behind ``--resume``: every line validated, a bad one
    is a ``CheckpointError`` naming file and line, never a traceback."""

    @pytest.mark.parametrize("tail", [
        '{"event": "ack", "table": "e", "kin',  # cut-off JSON
        '{"event": "ack", "table": "e", "kin\n',  # ... newline-terminated
        '{"event": "reset", "table": "T.x"}',    # whole, but unterminated
    ])
    def test_torn_final_line_is_dropped(self, expected_csv, tmp_path,
                                        tail):
        out, spool, catalog, lines = _crashed_spool(tmp_path)
        with open(catalog, "a", encoding="utf-8") as handle:
            handle.write(tail)
        _run(out, spool, resume=True)
        _assert_same_tree(out, expected_csv)
        resumed = catalog.read_text()
        assert resumed.endswith("\n") and tail.strip() not in resumed
        assert resumed.splitlines()[:len(lines)] == lines
        for line in resumed.splitlines():
            json.loads(line)

    def test_torn_header_is_a_clean_run(self, expected_csv, tmp_path):
        out, spool = tmp_path / "out", tmp_path / "spool"
        spool.mkdir()
        (spool / CHECKPOINT_NAME).write_text('{"catalog": 2, "rep')
        _run(out, spool, resume=True)
        _assert_same_tree(out, expected_csv)

    @pytest.mark.parametrize("bad, reason", [
        ("not json at all", "Expecting value"),
        ("[1, 2]", "not a JSON object"),
        ('{"event": "explode", "table": "T.x"}', "unknown event"),
        ('{"event": "ack", "table": "T.x"}', "'kind' must be str"),
        ('{"event": "ack", "table": "T.x", "kind": "property", '
         '"shard": "0", "rows": 1, "files": []}', "'shard' must be int"),
        ('{"event": "ack", "table": "T.x", "kind": "property", '
         '"shard": 9, "rows": 1, "dtype": "<i8", "files": ["x"], '
         '"columns": []}', "not a JSON object"),
        ('{"event": "ack", "table": "T.x", "kind": "edge", "shard": 9, '
         '"rows": 1, "files": []}', "'columns' must be list"),
        ('{"event": "ack", "table": "T.x", "kind": "edge", "shard": 9, '
         '"rows": 1, "files": [], "columns": [["<i8"]]}',
         "must be [str, int]"),
        ('{"event": "ack", "table": "T.x", "kind": "edge", "shard": 9, '
         '"rows": 1, "files": [], "columns": [[8, "<i8"]]}',
         "must be [str, int]"),
        ('{"event": "ack", "table": "T.x", "kind": "edge", "shard": 9, '
         '"rows": 1, "files": [], "columns": ["<i8"]}',
         "must be [str, int]"),
        ('{"event": "ack", "table": "T.x", "kind": "edge", "shard": 9, '
         '"rows": 1, "files": [{"path": "parts/T.x.00009", "bytes": 16, '
         '"crc": 0}], "columns": [["<i8", 8], ["<i8", 4]]}',
         "must sum to the part's"),
        ('{"event": "seal", "table": "T.x", "meta": "done"}',
         "'meta' must be dict"),
        ('{"event": "seal", "table": "nope", "meta": {}}', "nope"),
        ('{"event": "truncate", "table": "T.x"}', "'shards' must be int"),
    ])
    def test_malformed_line_names_file_and_line(self, tmp_path, bad,
                                                reason):
        out, spool, catalog, lines = _crashed_spool(tmp_path)
        lines.insert(2, bad)
        catalog.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError) as excinfo:
            _run(out, spool, resume=True)
        message = str(excinfo.value)
        assert str(catalog) in message and "line 3" in message
        assert reason in message

    def test_malformed_header_is_refused(self, tmp_path):
        out, spool, catalog, lines = _crashed_spool(tmp_path)
        lines[0] = json.dumps({"catalog": 2, "repro": repro.__version__})
        catalog.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError, match="line 1.*fingerprint"):
            _run(out, spool, resume=True)

    @pytest.mark.parametrize("field, other", [
        ("repro", "0.0.9"), ("catalog", 2), ("numpy", "1.0.0"),
    ])
    def test_other_version_is_refused_naming_both(self, tmp_path, field,
                                                  other):
        out, spool, catalog, lines = _crashed_spool(tmp_path)
        header = json.loads(lines[0])
        mine = _versions(header)
        header[field] = other
        lines[0] = json.dumps(header)
        catalog.write_text("\n".join(lines) + "\n")
        with pytest.raises(CheckpointError) as excinfo:
            _run(out, spool, resume=True)
        message = str(excinfo.value)
        assert mine in message
        assert _versions(header) in message

    @staticmethod
    def _assert_npy_spool_refused_unread(tmp_path, monkeypatch, version):
        """A spool of catalog ``version`` with an object part pickled
        in its ``.npy`` file under ``shards/``: resuming is refused at
        the header, and the part is never unpickled."""
        monkeypatch.setattr(_Tripwire, "unpickled", False)
        out, spool, catalog, lines = _crashed_spool(tmp_path)
        header = json.loads(lines[0])
        header["catalog"] = version
        part = spool / "shards" / "00000" / "T.legacy.npy"
        part.parent.mkdir(parents=True)
        np.save(part, np.array([_Tripwire()], dtype=object),
                allow_pickle=True)
        ack = {"event": "ack", "table": "T.legacy", "kind": "property",
               "shard": 0, "rows": 1, "dtype": "object", "files": [{
                   "path": "shards/00000/T.legacy.npy",
                   "bytes": part.stat().st_size, "crc": 0}]}
        catalog.write_text("\n".join(
            [json.dumps(header), *lines[1:], json.dumps(ack)]) + "\n")
        with pytest.raises(CheckpointError) as excinfo:
            _run(out, spool, resume=True)
        message = str(excinfo.value)
        assert f"(catalog format {version})" in message
        assert f"(catalog format {CATALOG_VERSION})" in message
        assert not _Tripwire.unpickled
        np.load(part, allow_pickle=True)  # the tripwire itself works
        assert _Tripwire.unpickled

    def test_v2_spool_with_pickled_parts_is_refused_unread(
        self, tmp_path, monkeypatch
    ):
        """Catalog format 2 pickled string parts."""
        self._assert_npy_spool_refused_unread(tmp_path, monkeypatch, 2)

    def test_v3_npy_spool_is_refused_unread(self, tmp_path, monkeypatch):
        """Catalog format 3 kept each column of a part as a ``.npy``
        file, its residual object column pickled."""
        self._assert_npy_spool_refused_unread(tmp_path, monkeypatch, 3)

    def test_v1_ledger_is_refused_not_restarted(self, tmp_path):
        out, spool = tmp_path / "out", tmp_path / "spool"
        spool.mkdir()
        (spool / "checkpoint.json").write_text(
            '{"version": 1, "fingerprint": "x", "tables": {}}'
        )
        with pytest.raises(CheckpointError) as excinfo:
            _run(out, spool, resume=True)
        message = str(excinfo.value)
        assert "catalog format 1" in message
        assert _versions({
            "repro": repro.__version__, "numpy": np.__version__,
            "catalog": CATALOG_VERSION,
        }) in message
        assert not (spool / CHECKPOINT_NAME).exists()


class TestFaultSpecs:
    def test_parse_round_trip(self):
        text = "shard:3:crash export:2:ioerror,shard:5:slow=2.5:x3"
        specs = parse_faults(text)
        assert [s.text() for s in specs] == [
            "shard:3:crash", "export:2:ioerror", "shard:5:slow=2.5:x3",
        ]
        assert specs[2].value == 2.5 and specs[2].times == 3

    @pytest.mark.parametrize("bad", [
        "shard:3", "bogus:1:crash", "shard:1:explode",
        "shard:x:crash", "shard:1:slow",
    ])
    def test_bad_specs_raise(self, bad):
        with pytest.raises(ValueError):
            parse_faults(bad)

    def test_plan_fires_at_most_times(self, tmp_path):
        plan = FaultPlan("count:0:crash:x2", state_dir=tmp_path)
        for _ in range(2):
            with pytest.raises(InjectedFault):
                plan.fire("count", 0)
        plan.fire("count", 0)  # exhausted: no-op
        assert plan.fired_count(plan.specs[0]) == 3
        plan.reset()
        with pytest.raises(InjectedFault):
            plan.fire("count", 0)

    def test_plan_pickles_with_shared_state(self, tmp_path):
        plan = FaultPlan("shard:1:crash", state_dir=tmp_path)
        with pytest.raises(InjectedFault):
            plan.fire("shard", 1)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.state_dir == plan.state_dir
        clone.fire("shard", 1)  # already fired in the original: no-op

    def test_plan_from_env(self, tmp_path):
        assert plan_from_env({}) is None
        plan = plan_from_env({
            "REPRO_FAULTS": "export:0:ioerror",
            "REPRO_FAULTS_STATE": str(tmp_path),
        })
        assert plan.text == "export:0:ioerror"
        assert plan.state_dir == str(tmp_path)
