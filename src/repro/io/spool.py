"""Disk spool backing the sharded executor (out-of-core tables).

The sharded executor never holds a whole table in memory: every
property / edge table lands in a :class:`TableSpool` as per-shard
``.npy`` part files, one shard directory per id-range
``[i*shard_rows, (i+1)*shard_rows)``.  :class:`SpooledPropertyTable`
and :class:`SpooledEdgeTable` implement the table protocol of
:mod:`repro.tables.ranged` over those part files — ``read_range``
loading at most one shard plus one range at a time — and inherit
``iter_chunks`` (global chunk starts, independent of shard geometry)
and the lazy ``values`` column from it, which is how the sharded
pipeline reuses the in-memory sinks unchanged and inherits their
byte-identity guarantee.

Each shard directory carries its own ``manifest.json``; the spool's
root manifest is their
:func:`~repro.io.streaming.merge_shard_manifests` merge, making the
spool a self-describing on-disk graph fragment store.

The spool is also the IPC boundary of the process backend: spools,
spooled tables and :class:`SpillView` handles pickle as *paths* (no
data), so worker processes can write part files straight into the
shard directories and the parent only records the acked metadata.
:class:`SortedRuns` adds the out-of-core primitive for the remaining
global stages: sorted spill runs with a vectorised k-way merge
(optionally dropping duplicates), bounded by the run size.
"""

from __future__ import annotations

import json
import shutil
import zlib
from pathlib import Path

import numpy as np

from ..tables.ranged import EdgeRows, PropertyRows
from .streaming import merge_shard_manifests

__all__ = [
    "SortedRuns",
    "SpillView",
    "SpooledEdgeTable",
    "SpooledPropertyTable",
    "TableSpool",
    "dedup_first_occurrence",
    "merge_sorted_runs",
    "spill_array",
    "spill_create",
    "spill_seal",
    "verify_digest",
    "SHARD_MANIFEST_NAME",
]

SHARD_MANIFEST_NAME = "manifest.json"


def _dtype_token(dtype):
    dtype = np.dtype(dtype)
    return "object" if dtype.kind == "O" else dtype.str


def _save(path, array):
    path.parent.mkdir(parents=True, exist_ok=True)
    np.save(path, array, allow_pickle=array.dtype.kind == "O")


def _digest(root, path):
    """Size + CRC32 of one part file, keyed by its spool-relative path
    — the integrity record the checkpoint ledger verifies on resume."""
    crc = 0
    size = 0
    with open(path, "rb") as handle:
        while True:
            block = handle.read(1 << 20)
            if not block:
                break
            size += len(block)
            crc = zlib.crc32(block, crc)
    return {
        "path": path.relative_to(root).as_posix(),
        "bytes": size,
        "crc": crc,
    }


def verify_digest(root, meta):
    """True when the part file named by a digest dict still matches
    its recorded size and CRC (missing/short/corrupt -> False)."""
    root = Path(root)
    path = root / meta["path"]
    try:
        fresh = _digest(root, path)
    except OSError:
        return False
    return (fresh["bytes"] == int(meta["bytes"])
            and fresh["crc"] == int(meta["crc"]))


def _load(path, dtype_kind):
    return np.load(path, allow_pickle=dtype_kind == "O")


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
        values = np.asarray(self.array)
        return values if dtype is None else values.astype(dtype)

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


def spill_array(view):
    """The ndarray behind a spill result (memmap for :class:`SpillView`,
    the array itself for in-memory spills)."""
    if isinstance(view, SpillView):
        return view.array
    return np.asarray(view)


def spill_create(spill, name, rows, dtype):
    """A writable array of ``rows`` for incremental fills.

    Disk-backed spillers hand out a writable memmap under ``name``;
    the identity spill falls back to ``np.empty``.  Pair with
    :func:`spill_seal` once filled.
    """
    create = getattr(spill, "create", None)
    if create is None:
        return np.empty(int(rows), dtype=dtype)
    return create(name, rows, dtype)


def spill_seal(spill, name, array):
    """Seal an array from :func:`spill_create` into a read view."""
    seal = getattr(spill, "seal", None)
    if seal is None:
        return array
    return seal(name, array)


class _Spiller:
    """Namespaced ``spill(name, array)`` with an incremental-fill path."""

    def __init__(self, spool, prefix):
        self._spool = spool
        self._prefix = str(prefix)

    def __call__(self, name, array):
        return self._spool.spill(f"{self._prefix}.{name}", array)

    def create(self, name, rows, dtype):
        """Writable memmap for incremental fills (external merges)."""
        return self._spool.create_spill(
            f"{self._prefix}.{name}", rows, dtype
        )

    def seal(self, name, array):
        """Flush + close a created memmap; reopen as a read view."""
        return self._spool.seal_spill(f"{self._prefix}.{name}", array)


class TableSpool:
    """Per-shard ``.npy`` storage for the sharded executor.

    Parameters
    ----------
    directory:
        spool root; shard ``i`` lives in ``shards/{i:05d}/``.
    shard_rows:
        rows per shard — the memory bound of the whole pipeline.
    """

    def __init__(self, directory, shard_rows):
        self.directory = Path(directory)
        self.shard_rows = int(shard_rows)
        if self.shard_rows < 1:
            raise ValueError("shard_rows must be >= 1")
        #: table key -> {"kind", "role", "shards": [per-shard entry]}
        self._tables = {}
        #: scratch path -> SpillView handed out (closed before cleanup)
        self._views = {}

    def __getstate__(self):
        # Workers get a metadata-free clone: paths + geometry only.
        # Table bookkeeping and view registries stay in the parent,
        # which is the only process that records shards or cleans up.
        return {
            "directory": str(self.directory),
            "shard_rows": self.shard_rows,
        }

    def __setstate__(self, state):
        self.directory = Path(state["directory"])
        self.shard_rows = state["shard_rows"]
        self._tables = {}
        self._views = {}

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

    def shard_dir(self, index):
        return self.directory / "shards" / f"{index:05d}"

    def _part_path(self, index, key, column=None):
        stem = key if column is None else f"{key}.{column}"
        return self.shard_dir(index) / f"{stem}.npy"

    # -- writes ------------------------------------------------------------

    def _entry_list(self, key, kind, **meta):
        entry = self._tables.setdefault(
            key, {"kind": kind, "shards": [], **meta}
        )
        if entry["kind"] != kind:
            raise ValueError(
                f"table {key!r} already spooled with kind "
                f"{entry['kind']!r}"
            )
        return entry

    def save_property_part(self, index, key, values):
        """Persist one shard's part *file* (any process; no metadata).

        Workers call this and ack the returned metadata dict, which
        the parent records in shard order via
        :meth:`record_property_shard` — the spool files are the IPC
        channel, the queue carries only this dict.
        """
        values = np.asarray(values)
        path = self._part_path(index, key)
        _save(path, values)
        return {
            "rows": int(values.size),
            "dtype": _dtype_token(values.dtype),
            "files": [_digest(self.directory, path)],
        }

    def record_property_shard(self, key, index, meta, role="property"):
        """Record one acked property-shard part (in shard order)."""
        entry = self._entry_list(key, "property", role=role)
        if len(entry["shards"]) != index:
            raise ValueError(
                f"table {key!r}: shard {index} written out of order "
                f"(expected {len(entry['shards'])})"
            )
        entry["shards"].append(
            {"rows": int(meta["rows"]), "dtype": meta["dtype"]}
        )

    def write_property_shard(self, key, index, values, role="property"):
        """Persist one id-range shard of a property column."""
        meta = self.save_property_part(index, key, values)
        self.record_property_shard(key, index, meta, role=role)
        return meta

    def save_edge_part(self, index, key, tails, heads):
        """Persist one edge shard's part files (any process)."""
        tails = np.ascontiguousarray(tails, dtype=np.int64)
        heads = np.ascontiguousarray(heads, dtype=np.int64)
        if tails.size != heads.size:
            raise ValueError(
                f"table {key!r}: shard {index} tails/heads differ"
            )
        tails_path = self._part_path(index, key, "tails")
        heads_path = self._part_path(index, key, "heads")
        _save(tails_path, tails)
        _save(heads_path, heads)
        return {
            "rows": int(tails.size),
            "files": [
                _digest(self.directory, tails_path),
                _digest(self.directory, heads_path),
            ],
        }

    def record_edge_shard(self, key, index, meta):
        """Record one acked edge-shard part (in shard order)."""
        entry = self._entry_list(key, "edge")
        if len(entry["shards"]) != index:
            raise ValueError(
                f"table {key!r}: shard {index} written out of order "
                f"(expected {len(entry['shards'])})"
            )
        entry["shards"].append({"rows": int(meta["rows"])})

    def write_edge_shard(self, key, index, tails, heads):
        """Persist one id-range shard of an edge table's columns."""
        meta = self.save_edge_part(index, key, tails, heads)
        self.record_edge_shard(key, index, meta)
        return meta

    def finish_property(self, key, name=None):
        """Seal a property table: a :class:`SpooledPropertyTable`."""
        entry = self._tables[key]
        shards = entry["shards"]
        dtype = next(
            (s["dtype"] for s in shards if s["rows"]), shards[0]["dtype"]
        )
        return SpooledPropertyTable(
            name or key, self, key, shards, np.dtype(
                object if dtype == "object" else dtype
            ),
        )

    def finish_edge(self, key, num_tail_nodes, num_head_nodes, directed,
                    name=None):
        """Seal an edge table: a :class:`SpooledEdgeTable`.

        Zero-shard tables get one empty ``int64`` shard so the on-disk
        dtype matches what chunked structure emission guarantees.
        """
        entry = self._tables.setdefault(key, {"kind": "edge", "shards": []})
        if not entry["shards"]:
            self.write_edge_shard(
                key, 0,
                np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            )
        entry.update(
            num_tail_nodes=int(num_tail_nodes),
            num_head_nodes=int(num_head_nodes),
            directed=bool(directed),
        )
        return SpooledEdgeTable(
            name or key, self, key, entry["shards"],
            int(num_tail_nodes), int(num_head_nodes), bool(directed),
        )

    # -- scratch (transient global state: pre-match structures, codes) ------

    def scratch_path(self, name):
        return self.directory / "scratch" / f"{name}.npy"

    def spill(self, name, array):
        """Park a whole-table array on disk; hand back a bounded view.

        Numeric arrays come back as a :class:`SpillView` (pages load
        on demand), which is how genuinely-global stages — sampled
        pair codes, degree offsets, matching maps — stay out of the
        RSS budget.  Every view is registered so :meth:`cleanup` can
        release its mmap handle before removing the directory.
        """
        array = np.asarray(array)
        path = self.scratch_path(name)
        _save(path, array)
        if array.dtype.kind == "O":
            return array  # object arrays cannot be mapped; keep as is
        return self._register_view(path)

    def _register_view(self, path):
        view = SpillView(path)
        self._views[view.path] = view
        return view

    def create_spill(self, name, rows, dtype):
        """A writable scratch memmap for incremental fills."""
        path = self.scratch_path(name)
        path.parent.mkdir(parents=True, exist_ok=True)
        return np.lib.format.open_memmap(
            path, mode="w+", dtype=np.dtype(dtype), shape=(int(rows),)
        )

    def seal_spill(self, name, array):
        """Flush + close a created memmap; reopen it as a read view."""
        path = self.scratch_path(name)
        if isinstance(array, np.memmap):
            array.flush()
            handle = getattr(array, "_mmap", None)
            if handle is not None:
                handle.close()
        else:
            _save(path, np.asarray(array))
        return self._register_view(path)

    def spiller(self, prefix):
        """A ``spill(name, array)`` callable namespaced by ``prefix``."""
        return _Spiller(self, prefix)

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

    # -- manifests ---------------------------------------------------------

    def shard_manifest(self, index):
        """The manifest dict of one shard directory."""
        tables = {}
        for key, entry in self._tables.items():
            shards = entry["shards"]
            if index >= len(shards):
                continue
            shard = shards[index]
            if entry["kind"] == "property":
                tables[key] = {
                    "kind": "property",
                    "role": entry.get("role", "property"),
                    "rows": shard["rows"],
                    "dtype": shard["dtype"],
                }
            else:
                tables[key] = {
                    "kind": "edge",
                    "rows": shard["rows"],
                    "num_tail_nodes": entry["num_tail_nodes"],
                    "num_head_nodes": entry["num_head_nodes"],
                    "directed": entry["directed"],
                }
        return {"version": 1, "shard": index, "tables": tables}

    def write_manifests(self):
        """Write per-shard manifests and their merged root manifest."""
        num_shards = max(
            (len(e["shards"]) for e in self._tables.values()), default=0
        )
        manifests = []
        for index in range(num_shards):
            manifest = self.shard_manifest(index)
            manifests.append(manifest)
            shard_dir = self.shard_dir(index)
            shard_dir.mkdir(parents=True, exist_ok=True)
            with open(
                shard_dir / SHARD_MANIFEST_NAME, "w", encoding="utf-8"
            ) as handle:
                json.dump(manifest, handle, indent=2, sort_keys=True)
                handle.write("\n")
        if not manifests:
            return None
        merged = merge_shard_manifests(manifests)
        self.directory.mkdir(parents=True, exist_ok=True)
        with open(
            self.directory / SHARD_MANIFEST_NAME, "w", encoding="utf-8"
        ) as handle:
            json.dump(merged, handle, indent=2, sort_keys=True)
            handle.write("\n")
        return merged

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
        self._shards = shards
        self._rows = sum(s["rows"] for s in shards)
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
        arrays = self._read_shard(index)
        self._cache = (index, arrays)
        return arrays

    def _shard_of(self, row):
        return int(row) // self._spool.shard_rows

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

    def _read_shard(self, index):
        return _load(
            self._spool._part_path(index, self._key), self.dtype.kind
        )

    def read_range(self, start, stop):
        """Rows ``[start, stop)`` as one array (bounded by the range)."""
        start, stop = self.check_range(start, stop)
        parts = [
            self._load_shard(index)[lo:hi]
            for index, lo, hi in self._ranges(start, stop)
        ]
        if not parts:
            return np.empty(0, dtype=self.dtype)
        if len(parts) == 1:
            return np.asarray(parts[0])
        return np.concatenate(parts)

    def gather(self, instance_ids):
        """Vectorised lookup, streamed shard by shard."""
        ids = np.asarray(instance_ids, dtype=np.int64)
        if ids.size and (ids.min() < 0 or ids.max() >= len(self)):
            raise IndexError(
                f"PT {self.name!r}: ids out of range [0, {len(self)})"
            )
        out = np.empty(ids.size, dtype=self.dtype)
        if ids.size == 0:
            return out
        rows = self._spool.shard_rows
        shard_idx = ids // rows
        for index in np.unique(shard_idx):
            mask = shard_idx == index
            values = self._load_shard(int(index))
            out[mask] = values[ids[mask] - int(index) * rows]
        return out


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

    def _read_shard(self, index):
        tails = _load(
            self._spool._part_path(index, self._key, "tails"), "i"
        )
        heads = _load(
            self._spool._part_path(index, self._key, "heads"), "i"
        )
        return tails, heads

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
    as one *run* through the ``spill`` callable — the executor's disk
    spiller, or the identity for in-memory use.  :meth:`merge` then
    streams the global sorted order in bounded blocks, so peak memory
    is O(run_rows), never O(total).

    ``unique`` mode drops duplicate primaries, keeping the record with
    the smallest secondary — for ``(pair_code, edge_idx)`` records
    that is exactly ``np.unique(keys, return_index=True)``'s
    first-occurrence rule, which is what lets R-MAT ``simplify`` and
    the bipartite stub dedup replicate ``EdgeTable.deduplicated()``
    bit for bit without a resident table.
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
        if secondary is None:
            primary = (
                np.unique(primary) if self.unique else np.sort(primary)
            )
        else:
            order = np.lexsort((secondary, primary))
            primary = primary[order]
            secondary = secondary[order]
            if self.unique:
                _, first = np.unique(primary, return_index=True)
                primary = primary[first]
                secondary = secondary[first]
        tag = f"{self._prefix}.run{len(self._runs)}"
        self._runs.append((
            self._spill(f"{tag}.primary", primary),
            None if secondary is None
            else self._spill(f"{tag}.secondary", secondary),
        ))

    def merge(self, block_rows=None):
        """Yield ``(primary, secondary|None)`` blocks, globally sorted.

        Re-iterable: runs live on disk (or in the identity spill), so
        a counting pass and an emission pass can both merge.
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
                close = getattr(view, "close", None)
                if close is not None:
                    close()
                path = getattr(view, "path", None)
                if path is not None:
                    Path(path).unlink(missing_ok=True)


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
    final = spill_create(spill, f"{prefix}.codes", total, np.int64)
    pos = 0
    for _, codes in by_order.merge():
        final[pos:pos + codes.size] = codes
        pos += codes.size
    by_order.cleanup()
    return total, spill_seal(spill, f"{prefix}.codes", final)


def merge_sorted_runs(runs, block_rows, unique=False):
    """Vectorised k-way merge of individually sorted runs.

    Loads one bounded block per run and repeatedly emits everything
    strictly below the *cut* — the smallest last-loaded primary among
    runs with unloaded data — so each emitted block is final: no later
    record can sort before it, and (in ``unique`` mode) no duplicate
    primary spans two emitted blocks.
    """
    block_rows = max(int(block_rows), 1)
    state = []  # [pos, primary_view, secondary_view, buf_p, buf_s]
    for primary, secondary in runs:
        rows = len(primary)
        if rows:
            state.append([
                0, primary, secondary,
                np.empty(0, spill_array(primary).dtype), None,
            ])

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
        if out_s is None:
            out_p = np.unique(out_p) if unique else np.sort(out_p)
        else:
            order = np.lexsort((out_s, out_p))
            out_p = out_p[order]
            out_s = out_s[order]
            if unique:
                _, first = np.unique(out_p, return_index=True)
                out_p = out_p[first]
                out_s = out_s[first]
        yield out_p, out_s
