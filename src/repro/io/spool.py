"""The spools a batch run keeps its tables in: on disk, or in RAM.

:func:`~repro.core.sharded.run_batch` picks one.  In memory it is the
:class:`MemorySpool`: one shard per table, handed back as resident
tables, nothing written, nothing to resume.  Out of core the run never
holds a whole table in memory: every property / edge table lands in a
:class:`TableSpool` as one *part* file per shard, the id-range
``[i*shard_rows, (i+1)*shard_rows)``, under ``parts/``.  A part holds
its columns' raw bytes back to back — ``tails`` + ``heads``, a plain
column, or a string column
(:class:`~repro.tables.StringColumn`) as ``offsets`` + ``blob`` (+
``codes`` for a dictionary column) — with no header: the catalog
records each column's dtype and byte count, so a part reads back with
one ``open`` and one ``np.fromfile`` per column, never unpickling;
only a column of other Python objects is pickled.
:class:`SpooledPropertyTable` and :class:`SpooledEdgeTable` implement
the table protocol of :mod:`repro.tables.ranged` over those part
files — ``read_range`` loading at most one shard plus one range at a
time — and inherit
``iter_chunks`` (global chunk starts, independent of shard geometry)
and the lazy ``values`` column from it, which is how the sharded
pipeline reuses the in-memory sinks unchanged and inherits their
byte-identity guarantee.

The spool keeps exactly one *catalog* of what it holds: per table the
acked shards (rows, dtype, column layout, the part's size + CRC32)
and the seal with
its finishing metadata, plus the topology metadata of each generated
structure.  It lives once in memory and — after
:meth:`TableSpool.open_catalog` — is persisted as the append-only
JSON-lines file ``checkpoint.jsonl``: a header line (catalog format,
package and numpy versions, run fingerprint, ``shard_rows``) and then
one line per ``ack`` / ``seal`` / ``structure`` / ``truncate``
event, one ``write`` each, so an ack costs O(1) bytes and a crash
loses at most the in-flight shard.  ``--resume`` replays the file
through the function that records live events, re-verifies each
table's acked parts and continues after the verified prefix.

The spool also keeps a run's global state — pre-matching structures
and matching maps — as scratch files.  That is one of the two
*spills*, the one interface through which a run decides where its
global state lives: :class:`SpoolSpill` parks an array on disk and
hands back a :class:`SpillView`; :class:`MemorySpill`
(:data:`IN_MEMORY`) keeps it in RAM, for the RAM spool.

The spool is the IPC boundary of the worker pool: spools, spooled
tables and :class:`SpillView` handles pickle as *paths* (no data, no
catalog), so worker processes can write part files straight into
``parts/`` and only the parent records the acks.
:class:`SortedRuns` adds the out-of-core primitive for the remaining
global stages: sorted spill runs with a vectorised k-way merge
(optionally dropping duplicates), bounded by the run size.
"""

from __future__ import annotations

import json
import os
import pickle
import shutil
import threading
import zlib
from pathlib import Path

import numpy as np

from ..core import faults as _faults
from ..tables import EdgeTable, PropertyTable, StringColumn
from ..tables.ranged import EdgeRows, PropertyRows
from ..tables.strings import concatenate_values

__all__ = [
    "CHECKPOINT_NAME",
    "CheckpointError",
    "IN_MEMORY",
    "MemorySpill",
    "MemorySpool",
    "SortedRuns",
    "SpillView",
    "SpooledEdgeTable",
    "SpooledPropertyTable",
    "SpoolSpill",
    "TableSpool",
    "dedup_first_occurrence",
    "merge_sorted_runs",
    "verify_digest",
]

CHECKPOINT_NAME = "checkpoint.jsonl"

#: Format of the catalog file; 1 was the whole-document
#: ``checkpoint.json`` ledger, 2 pickled string parts and 3 stored a
#: part's columns as ``.npy`` files, none of which this code resumes.
CATALOG_VERSION = 4

#: Required fields (and JSON types) of the header line, of each event
#: line, and of the part digest inside an ``ack``.
_HEADER_FIELDS = {
    "catalog": int, "repro": str, "fingerprint": str, "shard_rows": int,
    "numpy": str,
}
_EVENT_FIELDS = {
    "ack": {"table": str, "kind": str, "shard": int, "rows": int,
            "files": list, "columns": list},
    "seal": {"table": str, "meta": dict},
    "structure": {"name": str, "meta": dict},
    "truncate": {"table": str, "shards": int},
}
_FILE_FIELDS = {"path": str, "bytes": int, "crc": int}


class CheckpointError(RuntimeError):
    """A resume request that cannot be honoured: a malformed catalog,
    one written by another package / catalog version, or a fingerprint
    mismatch — the spool belongs to a different run."""


def _versions(header):
    """What wrote a catalog, as its refusals name it."""
    return (f"repro {header['repro']} with numpy {header['numpy']} "
            f"(catalog format {header['catalog']})")


def _check_fields(record, fields):
    if not isinstance(record, dict):
        raise ValueError("not a JSON object")
    for field, kind in fields.items():
        if not isinstance(record.get(field), kind):
            raise ValueError(f"field {field!r} must be {kind.__name__}")


def _check_event(event):
    """Validate one parsed catalog event line (``ValueError``)."""
    _check_fields(event, {"event": str})
    fields = _EVENT_FIELDS.get(event["event"])
    if fields is None:
        raise ValueError(f"unknown event {event['event']!r}")
    _check_fields(event, fields)
    if event["event"] == "ack":
        if event["kind"] == "property":
            _check_fields(event, {"dtype": str})
        for digest in event["files"]:
            _check_fields(digest, _FILE_FIELDS)
        for column in event["columns"]:
            if not (isinstance(column, list) and len(column) == 2
                    and isinstance(column[0], str)
                    and isinstance(column[1], int)):
                raise ValueError(f"column {column!r} must be [str, int]")
        if (sum(nbytes for _, nbytes in event["columns"])
                != sum(digest["bytes"] for digest in event["files"])):
            raise ValueError("'columns' bytes must sum to the part's")


def _dtype_token(dtype):
    dtype = np.dtype(dtype)
    return "object" if dtype.kind == "O" else dtype.str


def _write_part(root, path, arrays):
    """Write one part: its columns' bytes back to back, the size and
    CRC32 chained over the buffers as they are written (the file is
    never read back).  Returns the column layout — ``[dtype token,
    nbytes]`` each, ``"pickle"`` for the one residual (non-``str``)
    object column — and the part's digest, keyed by its spool-relative
    path: what the catalog re-verifies on resume."""
    columns, size, crc = [], 0, 0
    try:
        handle = open(path, "wb")
    except FileNotFoundError:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle = open(path, "wb")
    with handle:
        for array in arrays:
            if array.dtype.kind == "O":
                token, data = "pickle", pickle.dumps(array, protocol=5)
            else:
                token = array.dtype.str
                data = np.ascontiguousarray(array).view(np.uint8)
            handle.write(data)
            crc = zlib.crc32(data, crc)
            size += len(data)
            columns.append([token, len(data)])
    return columns, {
        "path": path.relative_to(root).as_posix(), "bytes": size, "crc": crc,
    }


def _read_part(path, columns):
    """Read one part's columns back from its catalog layout: one
    ``np.fromfile`` per column; only the residual object column
    unpickles."""
    arrays = []
    with open(path, "rb") as handle:
        for token, nbytes in columns:
            if token == "pickle":
                arrays.append(pickle.loads(handle.read(nbytes)))
                continue
            dtype = np.dtype(token)
            array = np.fromfile(handle, dtype, nbytes // dtype.itemsize)
            if array.nbytes != nbytes:
                raise OSError(f"part {path} is shorter than its catalog "
                              "entry")
            arrays.append(array)
    return arrays


def verify_digest(root, meta):
    """True when the part file named by a digest dict still matches
    its recorded size and CRC (missing/short/corrupt -> False)."""
    crc = 0
    size = 0
    try:
        with open(root / meta["path"], "rb") as handle:
            while block := handle.read(1 << 20):
                size += len(block)
                crc = zlib.crc32(block, crc)
    except OSError:
        return False
    return size == meta["bytes"] and crc == meta["crc"]


#: ``np.load`` parses a ``.npy`` header with ``ast.literal_eval``, which
#: CPython 3.11 cannot run on two threads at once (a ``SystemError``);
#: only scratch memory maps still have such headers.
_LOADING = threading.Lock()


class SpillView:
    """Lazy, closable, picklable view of one spilled numeric array.

    The view holds only a *path*; the backing memory map opens on first
    access and is released by :meth:`close` (the spool closes every
    view it handed out before removing its directory, so no reader is
    left holding an mmap of a deleted file).  Pickling ships the path,
    never the data — which is what lets worker processes slice spilled
    state (pair codes, degree offsets, matching maps) on demand.
    """

    __slots__ = ("path", "_mmap")

    def __init__(self, path):
        self.path = str(path)
        self._mmap = None

    @property
    def array(self):
        """The memory-mapped ndarray (opened lazily)."""
        if self._mmap is None:
            with _LOADING:
                self._mmap = np.load(self.path, mmap_mode="r")
        return self._mmap

    @property
    def dtype(self):
        return self.array.dtype

    def __len__(self):
        return len(self.array)

    def __getitem__(self, item):
        return self.array[item]

    def __array__(self, dtype=None, copy=None):
        return np.array(self.array, dtype=dtype, copy=copy, subok=False)

    def close(self):
        """Release the mmap handle (reopens lazily if touched again)."""
        view = self._mmap
        self._mmap = None
        if view is not None:
            handle = getattr(view, "_mmap", None)
            if handle is not None:
                handle.close()

    def __getstate__(self):
        return self.path

    def __setstate__(self, state):
        self.path = state
        self._mmap = None

    def __repr__(self):
        state = "open" if self._mmap is not None else "closed"
        return f"SpillView({self.path!r}, {state})"


class MemorySpill:
    """The in-RAM spill: every array stays where it is.

    The RAM spool's spill, and the default of
    :meth:`~repro.structure.base.StructureGenerator.run_chunked`.  A
    spill is where a run keeps its global state — sampled codes,
    degree offsets, sequential structures, matching maps — and has
    three methods: ``spill(name, array)`` parks a whole array and
    hands back an array-like that answers slicing and ``np.asarray``;
    ``spill.create(name, rows, dtype)`` hands out a writable array for
    an incremental fill, which ``spill.seal(name, array)`` turns into
    such a read view.  :class:`SpoolSpill` is the other one; both hand
    back the same rows:

    >>> import tempfile
    >>> spool = TableSpool(tempfile.mkdtemp(), shard_rows=4)
    >>> for spill in (IN_MEMORY, spool.spiller("demo")):
    ...     codes = spill("codes", np.arange(5) * 3)
    ...     squares = spill.create("squares", 4, np.int64)
    ...     squares[:] = np.arange(4) ** 2
    ...     squares = spill.seal("squares", squares)
    ...     print(codes[1:4], np.asarray(squares), type(codes).__name__)
    [3 6 9] [0 1 4 9] ndarray
    [3 6 9] [0 1 4 9] SpillView
    >>> spool.cleanup()
    """

    def __call__(self, name, array):
        return array

    def create(self, name, rows, dtype):
        return np.empty(int(rows), dtype=dtype)

    def seal(self, name, array):
        return array


#: The in-RAM spill (stateless, so one serves every run).
IN_MEMORY = MemorySpill()


class SpoolSpill:
    """The spool's spill: arrays parked as scratch ``.npy`` files
    under ``prefix`` and handed back as :class:`SpillView` handles
    (pages load on demand), which is how the global state stays out
    of the RSS budget and reaches worker processes as paths.  Every
    view is registered with the spool, so :meth:`TableSpool.cleanup`
    can release its mmap before removing the directory.  Each
    ``spill`` and ``create`` is a ``spill`` fault site.
    """

    def __init__(self, spool, prefix):
        self._spool = spool
        self._prefix = str(prefix)

    def _path(self, name):
        return self._spool.scratch_path(f"{self._prefix}.{name}")

    def _start(self, name):
        spool = self._spool
        _faults.fire("spill", spool._spills)  # numbered like ``ledger``
        spool._spills += 1
        return self._path(name)

    def __call__(self, name, array):
        path = self._start(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.asarray(array))
        return self._spool._register_view(path)

    def create(self, name, rows, dtype):
        """A writable scratch memmap for incremental fills."""
        path = self._start(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        return np.lib.format.open_memmap(
            path, mode="w+", dtype=np.dtype(dtype), shape=(int(rows),)
        )

    def seal(self, name, array):
        """Flush + close a created memmap; reopen it as a read view."""
        array.flush()
        handle = getattr(array, "_mmap", None)
        if handle is not None:
            handle.close()
        return self._spool._register_view(self._path(name))


class MemorySpool:
    """The RAM spool: the in-memory run's, one shard per table.

    The part of :class:`TableSpool`'s interface the batch store calls,
    writing nothing: a landed part waits in a dict until ``finish_*``
    returns it as a resident :class:`~repro.tables.PropertyTable` /
    :class:`~repro.tables.EdgeTable`, the spill is :data:`IN_MEMORY`,
    and the resume look-ups find nothing.  Structures are emitted in
    ``shard_rows`` runs, as a generator's own ``run(n)`` emits them.
    """

    def __init__(self):
        # Imported here: repro.structure.base imports this module.
        from ..structure.base import _RUN_ROWS
        self.shard_rows = _RUN_ROWS
        self._parts = {}

    def shard_bounds(self, count):
        return [(0, int(count))]

    def verified_prefix(self, key):
        return 0

    def _nothing(self, *args):
        """Nothing is recorded, and no file is written or removed."""

    sealed = structure_meta = record_structure = _nothing
    drop_scratch = cleanup = _nothing

    def save_property_part(self, index, key, values):
        return values

    def save_edge_part(self, index, key, tails, heads):
        return tails, heads

    def ack(self, key, index, part):
        self._parts[key] = part

    def finish_property(self, key):
        return PropertyTable(key, self._parts.pop(key))

    def finish_edge(self, key, num_tail_nodes, num_head_nodes, directed,
                    name=None):
        empty = np.empty(0, dtype=np.int64)
        return EdgeTable(name or key, *self._parts.pop(key, (empty, empty)),
                         num_tail_nodes, num_head_nodes, directed)

    def spiller(self, prefix):
        return IN_MEMORY


class TableSpool:
    """Per-shard part files for the sharded executor.

    Parameters
    ----------
    directory:
        spool root; shard ``i`` of table ``key`` is the part file
        ``parts/{key}.{i:05d}``.
    shard_rows:
        rows per shard — the memory bound of the whole pipeline.
    """

    def __init__(self, directory, shard_rows):
        self.directory = Path(directory)
        self.shard_rows = int(shard_rows)
        if self.shard_rows < 1:
            raise ValueError("shard_rows must be >= 1")
        #: the catalog: table key -> {"shards": [ack events, in shard
        #: order], "sealed": finishing metadata or None}, and
        #: structure name -> topology metadata
        self._tables = {}
        self._structures = {}
        #: catalog file, once open_catalog() chose to persist it
        self._catalog = None
        self._appends = 0
        self._spills = 0
        #: scratch path -> SpillView handed out (closed before cleanup)
        self._views = {}

    def __getstate__(self):
        # Workers get a catalog-free clone: paths + geometry only.
        # The catalog, its file and the view registry stay in the
        # parent, the only process that records shards or cleans up.
        return {
            "directory": str(self.directory),
            "shard_rows": self.shard_rows,
        }

    def __setstate__(self, state):
        self.__init__(state["directory"], state["shard_rows"])

    # -- geometry ----------------------------------------------------------

    def shard_bounds(self, count):
        """Contiguous ``(lo, hi)`` shard ranges covering ``count`` rows.

        A zero-row table still gets one (empty) shard, so its dtype is
        recorded on disk — the empty-shard contract.
        """
        count = int(count)
        if count == 0:
            return [(0, 0)]
        return [
            (lo, min(lo + self.shard_rows, count))
            for lo in range(0, count, self.shard_rows)
        ]

    def _part_path(self, index, key):
        return self.directory / "parts" / f"{key}.{index:05d}"

    # -- the catalog -------------------------------------------------------

    def open_catalog(self, fingerprint, resume=False):
        """Persist the catalog to ``checkpoint.jsonl`` from here on.

        A fresh run starts the file over with its header line.  With
        ``resume`` an existing file is validated line by line and
        replayed into memory first (:class:`CheckpointError` on a
        malformed line, another package / catalog version or another
        run fingerprint); no catalog at all degrades to a fresh run —
        the earlier run crashed before its first ack.
        """
        # Imported here: repro/__init__ sets it after importing this module.
        from .. import __version__
        self._catalog = self.directory / CHECKPOINT_NAME
        header = {
            "catalog": CATALOG_VERSION, "repro": __version__,
            "fingerprint": fingerprint, "shard_rows": self.shard_rows,
            "numpy": np.__version__,
        }
        if resume and self._replay(header):
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        self._catalog.write_text(json.dumps(header) + "\n",
                                 encoding="utf-8")

    def _replay(self, expected):
        """Load the catalog file; False when there is none to load.

        Only a torn *final* line — no trailing newline, or cut-off
        JSON: the one event a crash can leave half-written — is
        tolerated; it is dropped from the file as well, so the next
        append starts on a clean line.
        """
        path = self._catalog
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            if (self.directory / "checkpoint.json").exists():
                raise CheckpointError(
                    f"{self.directory} holds a catalog format 1 "
                    f"checkpoint.json; this is {_versions(expected)}: "
                    "refusing to resume across versions"
                ) from None
            return False
        except OSError as exc:
            raise CheckpointError(
                f"unreadable catalog {path}: {exc}"
            ) from exc
        lines = data.split(b"\n")[:-1]  # minus the unterminated tail
        good = 0
        for number, raw in enumerate(lines, 1):
            try:
                try:
                    record = json.loads(raw)
                except ValueError:
                    if number == len(lines):
                        break
                    raise
                if number == 1:
                    self._check_header(record, expected)
                else:
                    _check_event(record)
                    self._apply(record)
            except (ValueError, KeyError) as exc:
                raise CheckpointError(
                    f"malformed catalog {path}, line {number}: {exc}"
                ) from exc
            good += len(raw) + 1
        if good != len(data):
            os.truncate(path, good)
        return good > 0

    def _check_header(self, header, expected):
        _check_fields(header, _HEADER_FIELDS)
        if _versions(header) != _versions(expected):
            raise CheckpointError(
                f"the catalog at {self._catalog} was written by "
                f"{_versions(header)}; this is {_versions(expected)}: "
                "refusing to resume across versions"
            )
        if header != expected:
            raise CheckpointError(
                "checkpoint fingerprint mismatch: the spool at "
                f"{self.directory} was written by a different run "
                "configuration (schema/scale/seed/shard_rows/format); "
                "refusing to resume"
            )

    def _apply(self, event):
        """Fold one catalog event into the in-memory catalog.

        Live recording and the resume replay both come through here,
        so this is the one place that checks the ack order.
        """
        kind = event["event"]
        if kind == "structure":
            self._structures[event["name"]] = event["meta"]
            return
        key = event["table"]
        if kind == "ack":
            shards = self._tables.setdefault(
                key, {"shards": [], "sealed": None}
            )["shards"]
            if event["shard"] != len(shards):
                raise ValueError(
                    f"table {key!r}: shard {event['shard']} written out "
                    f"of order (expected {len(shards)})"
                )
            shards.append(event)
        elif kind == "seal":
            self._tables[key]["sealed"] = event["meta"]
        else:  # truncate
            entry = self._tables[key]
            del entry["shards"][event["shards"]:]
            entry["sealed"] = None

    def _log(self, event):
        """Record one event: in memory, and as one appended line."""
        if self._catalog is None:  # bare or worker-side: memory only
            return self._apply(event)
        _faults.fire("ledger", self._appends)
        self._appends += 1
        self._apply(event)
        with open(self._catalog, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(event) + "\n")

    def ack(self, key, index, meta):
        """Record one landed shard from the metadata dict its
        ``save_*_part`` call returned (shards ack in shard order)."""
        self._log({"event": "ack", "table": key, "shard": index, **meta})

    def verified_prefix(self, key):
        """How many leading acked shards of a table are still intact.

        Re-checks each acked part file's size and CRC in shard order
        and stops at the first miss (a torn write from the crash),
        truncating — and unsealing — the table there, so a resumed run
        continues exactly after the verified prefix.
        """
        shards = self._tables[key]["shards"] if key in self._tables else ()
        for index, shard in enumerate(shards):
            if not (shard["files"] and all(
                verify_digest(self.directory, f) for f in shard["files"]
            )):
                self._log(
                    {"event": "truncate", "table": key, "shards": index}
                )
                break  # the truncate cut ``shards`` in place
        return len(shards)

    def sealed(self, key):
        """The finishing metadata of a sealed table, else ``None``."""
        entry = self._tables.get(key)
        return entry and entry["sealed"]

    def _seal(self, key, meta):
        if self._tables[key]["sealed"] != meta:
            self._log({"event": "seal", "table": key, "meta": meta})

    def record_structure(self, name, meta):
        """Record a generated structure's topology metadata, so derived
        counts resolve on resume without re-generating it."""
        self._log({"event": "structure", "name": name, "meta": meta})

    def structure_meta(self, name):
        return self._structures.get(name)

    # -- writes ------------------------------------------------------------

    def save_property_part(self, index, key, values):
        """Persist one shard's part *file* (any process; no catalog).

        Workers call this and hand back the returned metadata dict,
        which the parent records in shard order via :meth:`ack` — the
        spool files are the IPC channel, the queue carries only this
        dict.
        """
        if isinstance(values, StringColumn):
            column = values.packed()
            arrays = [column.offsets, column.blob]
            if column.codes is not None:
                arrays.append(column.codes)
            dtype = "string"
        else:
            arrays = [np.asarray(values)]
            dtype = _dtype_token(arrays[0].dtype)
        columns, digest = _write_part(
            self.directory, self._part_path(index, key), arrays
        )
        return {"kind": "property", "rows": len(values), "dtype": dtype,
                "columns": columns, "files": [digest]}

    def write_property_shard(self, key, index, values):
        """Persist and ack one id-range shard of a property column."""
        self.ack(key, index, self.save_property_part(index, key, values))

    def save_edge_part(self, index, key, tails, heads):
        """Persist one edge shard's part file (any process)."""
        tails = np.asarray(tails, dtype=np.int64)
        heads = np.asarray(heads, dtype=np.int64)
        if tails.size != heads.size:
            raise ValueError(
                f"table {key!r}: shard {index} tails/heads differ"
            )
        columns, digest = _write_part(
            self.directory, self._part_path(index, key), [tails, heads]
        )
        return {"kind": "edge", "rows": int(tails.size),
                "columns": columns, "files": [digest]}

    def write_edge_shard(self, key, index, tails, heads):
        """Persist and ack one id-range shard of an edge table."""
        self.ack(key, index, self.save_edge_part(index, key, tails, heads))

    def finish_property(self, key):
        """Seal a property table: a :class:`SpooledPropertyTable`."""
        shards = self._tables[key]["shards"]
        dtype = next(
            (s["dtype"] for s in shards if s["rows"]), shards[0]["dtype"]
        )
        self._seal(key, {})
        return SpooledPropertyTable(
            key, self, key, shards,
            np.dtype(object if dtype == "string" else dtype),
        )

    def finish_edge(self, key, num_tail_nodes, num_head_nodes, directed,
                    name=None):
        """Seal an edge table: a :class:`SpooledEdgeTable`.

        Zero-shard tables get one empty ``int64`` shard so the on-disk
        dtype matches what chunked structure emission guarantees.
        """
        if not (key in self._tables and self._tables[key]["shards"]):
            self.write_edge_shard(
                key, 0,
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            )
        meta = {
            "num_tail_nodes": int(num_tail_nodes),
            "num_head_nodes": int(num_head_nodes),
            "directed": bool(directed),
            "name": name or key,
        }
        self._seal(key, meta)
        return SpooledEdgeTable(
            meta["name"], self, key, self._tables[key]["shards"],
            meta["num_tail_nodes"], meta["num_head_nodes"],
            meta["directed"],
        )

    # -- scratch (transient global state: pre-match structures, codes) ------

    def scratch_path(self, name):
        return self.directory / "scratch" / f"{name}.npy"

    def _register_view(self, path):
        view = SpillView(path)
        self._views[view.path] = view
        return view

    def spiller(self, prefix):
        """The :class:`SpoolSpill` that parks arrays under ``prefix``."""
        return SpoolSpill(self, prefix)

    def drop_scratch(self, prefix):
        """Delete all scratch files under ``prefix`` (post-match)."""
        scratch = self.directory / "scratch"
        if not scratch.exists():
            return
        for path in scratch.glob(f"{prefix}.*.npy"):
            view = self._views.pop(str(path), None)
            if view is not None:
                view.close()
            path.unlink()
        exact = self.scratch_path(prefix)
        if exact.exists():
            view = self._views.pop(str(exact), None)
            if view is not None:
                view.close()
            exact.unlink()

    def close_views(self):
        """Release every mmap handle this spool handed out.

        Readers must not hold maps of files :meth:`cleanup` is about
        to delete; views reopen lazily if touched again while the
        files still exist.
        """
        for view in self._views.values():
            view.close()

    def cleanup(self):
        self.close_views()
        self._views = {}
        shutil.rmtree(self.directory, ignore_errors=True)


class _SpooledBase:
    """Shared shard-walking machinery (one-shard LRU cache)."""

    def __init__(self, spool, key, shards):
        self._spool = spool
        self._key = key
        # Rows and column layout per shard only: tables pickle to
        # workers with every job, the catalog's digests stay in the
        # parent.
        self._shards = [s["rows"] for s in shards]
        self._columns = [s["columns"] for s in shards]
        self._rows = sum(self._shards)
        # Single-slot cache stored as one tuple so concurrent readers
        # (worker waves) can never observe a torn index/payload pair.
        self._cache = None

    def __getstate__(self):
        # Drop the shard cache: it may hold a whole shard's arrays,
        # and worker processes re-read from the spool files anyway.
        state = dict(self.__dict__)
        state["_cache"] = None
        return state

    def __len__(self):
        return self._rows

    def _load_shard(self, index):
        cached = self._cache
        if cached is not None and cached[0] == index:
            return cached[1]
        arrays = self._assemble(_read_part(
            self._spool._part_path(index, self._key), self._columns[index]
        ))
        self._cache = (index, arrays)
        return arrays

    def _ranges(self, start, stop):
        """Yield ``(shard_index, local_lo, local_hi)`` covering a range."""
        rows = self._spool.shard_rows
        row = start
        while row < stop:
            index = row // rows
            local_lo = row - index * rows
            local_hi = min(stop - index * rows, rows)
            yield index, local_lo, local_hi
            row = index * rows + local_hi


class SpooledPropertyTable(_SpooledBase, PropertyRows):
    """Spool-backed :class:`~repro.tables.PropertyTable` twin: the
    table protocol over per-shard part files, plus a streamed
    ``gather``; ``values`` is never a whole in-memory array.
    """

    def __init__(self, name, spool, key, shards, dtype):
        super().__init__(spool, key, shards)
        self.name = str(name)
        self.dtype = np.dtype(dtype)

    def __repr__(self):
        return (
            f"SpooledPropertyTable(name={self.name!r}, n={len(self)}, "
            f"dtype={self.dtype}, shards={len(self._shards)})"
        )

    @staticmethod
    def _assemble(columns):
        """One plain column, or a string column's offsets + blob (+
        codes)."""
        return columns[0] if len(columns) == 1 else StringColumn(*columns)

    def read_range(self, start, stop):
        """Rows ``[start, stop)`` as one column (bounded by the range)."""
        start, stop = self.check_range(start, stop)
        parts = [
            self._load_shard(index)[lo:hi]
            for index, lo, hi in self._ranges(start, stop)
        ]
        if not parts:
            return np.empty(0, dtype=self.dtype)
        return parts[0] if len(parts) == 1 else concatenate_values(parts)

    def gather(self, instance_ids):
        """Vectorised lookup, streamed shard by shard."""
        ids = np.asarray(instance_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self)):
            raise IndexError(
                f"PT {self.name!r}: ids out of range [0, {len(self)})"
            )
        if ids.size == 0:
            return np.empty(0, dtype=self.dtype)
        rows = self._spool.shard_rows
        shard_idx = ids // rows
        order = np.argsort(shard_idx, kind="stable")
        runs = np.split(
            order, np.flatnonzero(np.diff(shard_idx[order])) + 1
        )
        pieces = []
        for run in runs:
            index = int(shard_idx[run[0]])
            pieces.append(
                self._load_shard(index)[ids[run] - index * rows]
            )
        back = np.empty_like(order)
        back[order] = np.arange(order.size)
        return concatenate_values(pieces)[back]


class SpooledEdgeTable(_SpooledBase, EdgeRows):
    """Spool-backed twin of :class:`~repro.tables.EdgeTable`."""

    def __init__(self, name, spool, key, shards, num_tail_nodes,
                 num_head_nodes, directed):
        super().__init__(spool, key, shards)
        self.name = str(name)
        self.num_tail_nodes = int(num_tail_nodes)
        self.num_head_nodes = int(num_head_nodes)
        self.directed = bool(directed)

    def __repr__(self):
        return (
            f"SpooledEdgeTable(name={self.name!r}, m={len(self)}, "
            f"n_tail={self.num_tail_nodes}, n_head={self.num_head_nodes}, "
            f"shards={len(self._shards)})"
        )

    @staticmethod
    def _assemble(columns):
        """``(tails, heads)``."""
        return tuple(columns)

    def read_range(self, start, stop):
        """``(tails, heads)`` of edge ids ``[start, stop)``."""
        start, stop = self.check_range(start, stop)
        tails_parts, heads_parts = [], []
        for index, lo, hi in self._ranges(start, stop):
            tails, heads = self._load_shard(index)
            tails_parts.append(tails[lo:hi])
            heads_parts.append(heads[lo:hi])
        if not tails_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy()
        if len(tails_parts) == 1:
            return np.asarray(tails_parts[0]), np.asarray(heads_parts[0])
        return np.concatenate(tails_parts), np.concatenate(heads_parts)


# -- external sort-merge (out-of-core dedup primitive) ----------------------


class SortedRuns:
    """Out-of-core sorted runs with a duplicate-dropping k-way merge.

    The primitive behind every remaining global dedup stage: callers
    :meth:`push` record blocks in any order; each full buffer is
    sorted (lexicographically by ``(primary, secondary)``) and spilled
    as one *run* through ``spill`` — a spool's disk spill, or the
    in-RAM one.  :meth:`merge` then streams the global sorted order in
    bounded blocks, so peak memory is O(run_rows), never O(total).

    ``unique`` mode drops duplicate primaries, keeping the record with
    the smallest secondary — for ``(pair_code, edge_idx)`` records
    that is exactly ``np.unique(keys, return_index=True)``'s
    first-occurrence rule.  This is the one dedup of R-MAT
    ``simplify``, the bipartite stub pairing and the G(n, m) sampler,
    in memory (in-RAM spill, usually a single run) and out of core
    alike.
    """

    def __init__(self, spill, prefix, run_rows, unique=False):
        self._spill = spill
        self._prefix = str(prefix)
        self.run_rows = max(int(run_rows), 1024)
        self.unique = bool(unique)
        self._runs = []          # (primary_view, secondary_view | None)
        self._buf_primary = []
        self._buf_secondary = []
        self._buffered = 0

    def __len__(self):
        return len(self._runs)

    def push(self, primary, secondary=None):
        """Record a block of (primary[, secondary]) values."""
        primary = np.asarray(primary)
        if primary.size == 0:
            return
        self._buf_primary.append(primary)
        if secondary is not None:
            self._buf_secondary.append(np.asarray(secondary))
        elif self._buf_secondary:
            raise ValueError("mixed single/pair pushes")
        self._buffered += primary.size
        if self._buffered >= self.run_rows:
            self.flush()

    def flush(self):
        """Sort and spill the buffered block as one run."""
        if not self._buffered:
            return
        primary = np.concatenate(self._buf_primary)
        secondary = (
            np.concatenate(self._buf_secondary)
            if self._buf_secondary else None
        )
        self._buf_primary = []
        self._buf_secondary = []
        self._buffered = 0
        primary, secondary = _sort_block(primary, secondary, self.unique)
        tag = f"{self._prefix}.run{len(self._runs)}"
        self._runs.append((
            self._spill(f"{tag}.primary", primary),
            None if secondary is None
            else self._spill(f"{tag}.secondary", secondary),
        ))

    def merge(self, block_rows=None):
        """Yield ``(primary, secondary|None)`` blocks, globally sorted.

        Re-iterable: runs live on disk (or in RAM), so a counting
        pass and an emission pass can both merge.
        """
        self.flush()
        return merge_sorted_runs(
            self._runs,
            block_rows or max(self.run_rows // max(len(self._runs), 1),
                              1024),
            unique=self.unique,
        )

    def total(self):
        """Total merged rows (post-dedup when ``unique``)."""
        return sum(block[0].size for block in self.merge())

    def cleanup(self):
        """Release the spilled runs: views closed, files unlinked.

        Call once the merge output has been consumed — runs are
        intermediate state, and eager removal keeps the dedup's disk
        footprint bounded by one live pass."""
        runs, self._runs = self._runs, []
        self._buf_primary = []
        self._buf_secondary = []
        self._buffered = 0
        for primary, secondary in runs:
            for view in (primary, secondary):
                if isinstance(view, SpillView):  # in-RAM runs just drop
                    view.close()
                    Path(view.path).unlink(missing_ok=True)


def dedup_first_occurrence(spill, prefix, blocks, run_rows):
    """First-occurrence dedup of packed edge codes, out of core.

    ``blocks`` yields ``(codes, edge_ids)`` pairs in any chunking; the
    result keeps, for every distinct code, the record with the smallest
    edge id, ordered by that id — exactly
    ``np.unique(codes, return_index=True)`` + ``first.sort()`` on the
    concatenated input, which is the semantics of
    ``EdgeTable.deduplicated()`` and the bipartite pair dedup.  Two
    spilled sort-merge passes (by code, then by edge id) bound memory
    at O(run_rows); returns ``(total, codes_view)`` with the final code
    sequence sealed behind the spill.
    """
    by_code = SortedRuns(spill, f"{prefix}.bycode", run_rows, unique=True)
    for codes, edge_ids in blocks:
        by_code.push(codes, edge_ids)
    by_order = SortedRuns(spill, f"{prefix}.byorder", run_rows)
    total = 0
    for codes, edge_ids in by_code.merge():
        by_order.push(edge_ids, codes)
        total += codes.size
    by_code.cleanup()
    final = spill.create(f"{prefix}.codes", total, np.int64)
    pos = 0
    for _, codes in by_order.merge():
        final[pos:pos + codes.size] = codes
        pos += codes.size
    by_order.cleanup()
    return total, spill.seal(f"{prefix}.codes", final)


def merge_sorted_runs(runs, block_rows, unique=False):
    """Vectorised k-way merge of individually sorted runs.

    Loads one bounded block per run and repeatedly emits everything
    strictly below the *cut* — the smallest last-loaded primary among
    runs with unloaded data — so each emitted block is final: no later
    record can sort before it, and (in ``unique`` mode) no duplicate
    primary spans two emitted blocks.  Runs are as
    :meth:`SortedRuns.flush` spills them — in ``unique`` mode already
    free of duplicates — so a single run is paged as it is.
    """
    block_rows = max(int(block_rows), 1)
    state = []  # [pos, primary_view, secondary_view, buf_p, buf_s]
    for primary, secondary in runs:
        rows = len(primary)
        if rows:
            state.append([
                0, primary, secondary,
                np.empty(0, primary.dtype), None,
            ])
    if len(state) == 1:
        _, primary, secondary = state[0][:3]
        for lo in range(0, len(primary), block_rows):
            hi = lo + block_rows
            yield (
                _run_slice(primary, lo, hi),
                None if secondary is None
                else _run_slice(secondary, lo, hi),
            )
        return

    def load(entry, count):
        pos, primary, secondary = entry[0], entry[1], entry[2]
        hi = min(pos + count, len(primary))
        entry[3] = np.concatenate([entry[3], np.asarray(primary[pos:hi])])
        if secondary is not None:
            piece = np.asarray(secondary[pos:hi])
            entry[4] = (
                piece if entry[4] is None
                else np.concatenate([entry[4], piece])
            )
        entry[0] = hi

    while state:
        for entry in state:
            if entry[3].size == 0 and entry[0] < len(entry[1]):
                load(entry, block_rows)
        state = [e for e in state if e[3].size]
        if not state:
            return
        pending = [e for e in state if e[0] < len(e[1])]
        if pending:
            cut = min(e[3][-1] for e in pending)
            counts = [
                int(np.searchsorted(e[3], cut, side="left"))
                for e in state
            ]
            if not any(counts):
                # Everything buffered ties the cut; widen the
                # constraining runs until the tie breaks (or they
                # exhaust and the final flush below handles it).
                for entry in pending:
                    if entry[3][-1] == cut:
                        load(entry, block_rows)
                continue
        else:
            counts = [e[3].size for e in state]
        out_p = np.concatenate([e[3][:c] for e, c in zip(state, counts)])
        has_secondary = state[0][4] is not None
        out_s = (
            np.concatenate([e[4][:c] for e, c in zip(state, counts)])
            if has_secondary else None
        )
        for entry, count in zip(state, counts):
            entry[3] = entry[3][count:]
            if has_secondary:
                entry[4] = entry[4][count:]
        yield _sort_block(out_p, out_s, unique)


def _run_slice(run, lo, hi):
    """Rows ``[lo, hi)`` of one run: a copy when the run is memory
    mapped (a caller may keep the block past :meth:`SortedRuns.cleanup`,
    which closes the map), a view when it is in memory."""
    if isinstance(run, SpillView):
        return np.array(run[lo:hi])
    return run[lo:hi]


def _sort_block(primary, secondary, unique):
    """Sort one block by ``(primary, secondary)``; ``unique`` then keeps
    the first record of each primary — the smallest secondary, i.e.
    ``np.unique(primary, return_index=True)``'s rule — by comparing
    each sorted primary with its neighbour rather than sorting again."""
    if secondary is None:
        primary = np.sort(primary)
    else:
        # Distinct primaries fix the order alone; only ties need the
        # stable two-key sort.
        order = np.argsort(primary)
        ranked = primary[order]
        if (ranked[1:] == ranked[:-1]).any():
            order = np.lexsort((secondary, primary))
            ranked = primary[order]
        primary, secondary = ranked, secondary[order]
    if unique and primary.size > 1:
        keep = np.empty(primary.size, dtype=bool)
        keep[0] = True
        np.not_equal(primary[1:], primary[:-1], out=keep[1:])
        primary = primary[keep]
        if secondary is not None:
            secondary = secondary[keep]
    return primary, secondary
