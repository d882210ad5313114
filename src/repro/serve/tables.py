"""The virtual store: tables that are read without ever existing.

Section 4.1 makes every PT / ET row a pure function of ``(seed, id)``,
so a table need not be stored to answer the row-range protocol of
:mod:`repro.tables.ranged`.  The serving layer fills its
:class:`~repro.core.result.PropertyGraph` with these instead of
resident or spooled tables:

* :class:`VirtualPropertyTable` — a property column recomputed at the
  asked rows through :func:`~repro.core.tasks.property_values_at`,
  with the task's generator and stream built once, over the
  dependency descriptors of :func:`~repro.core.tasks.property_inputs`
  (so ``dep_slices`` and the endpoint ``gather`` are the sharded
  run's own);
* :class:`DeferredEdges` — a matched edge table whose matching state
  (the O(nodes) maps, or a correlated matching's spilled result) is
  built at first touch, once, under a lock — with, for a spooled
  table, the :class:`NeighbourIndex` its neighbourhoods are read
  from;
* :class:`PageMemo` — the page-scoped memo that keeps "each column of
  a records page is computed once" true when several columns of the
  page depend on the same one.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from functools import cached_property

import numpy as np

from ..core.tasks import dep_slices, property_kernel, property_values_at
from ..io.spool import SortedRuns
from ..tables.ranged import EdgeRows, PropertyRows

__all__ = [
    "DeferredEdges", "NeighbourIndex", "PageMemo", "VirtualPropertyTable",
]


class PageMemo:
    """Columns already computed for the records page this thread is
    assembling.

    A page is named by its rows — the caller's id array (by identity)
    for a node page, its ``(start, stop)`` for an edge page.  A table
    asked for exactly those rows inside :meth:`page` computes them
    once, however many dependants read it; any other request (the
    endpoint gathers of an edge page, reads outside a page) is computed
    as asked.  State is per thread, so concurrent pages do not meet;
    a pickled memo arrives empty.

    >>> memo, calls = PageMemo(), []
    >>> with memo.page((0, 4)):
    ...     for _ in range(2):
    ...         _ = memo.column("T.x", (0, 4), lambda: calls.append(1))
    ...     _ = memo.column("T.x", (0, 2), lambda: calls.append(1))
    >>> len(calls)
    2
    """

    def __init__(self):
        self._local = threading.local()

    def __reduce__(self):
        return PageMemo, ()

    @contextmanager
    def page(self, rows):
        local = self._local
        local.rows, local.columns = rows, {}
        try:
            yield
        finally:
            local.rows = local.columns = None

    def column(self, name, rows, compute):
        """``compute()`` — remembered under ``name`` when ``rows`` are
        the open page's own."""
        page = getattr(self._local, "rows", None)
        if page is not rows and not (
            isinstance(page, tuple) and isinstance(rows, tuple)
            and page == rows
        ):
            return compute()
        columns = self._local.columns
        if name not in columns:
            columns[name] = compute()
        return columns[name]


class VirtualPropertyTable(PropertyRows):
    """One property table, recomputed from the seed at the rows asked.

    ``spec, count, deps`` are :func:`~repro.core.tasks.
    property_inputs`' output for the task ``task_id``; rows go through
    :func:`~repro.core.tasks.property_values_at`, so a generator that
    declares ``access = "sequential"`` is a ``TypeError`` on first
    read, not a wrong answer.
    """

    def __init__(self, name, spec, count, deps, task_id, seed, memo):
        self.name = name
        self._kernel = property_kernel(spec, task_id, seed)
        self._count = int(count)
        self._deps = deps
        self._memo = memo

    def __len__(self):
        return self._count

    @cached_property
    def dtype(self):
        """The column's dtype: that of the kernel's empty result, the
        dependencies standing in as empty columns of their own dtype
        (so asking reads no row and forces no matching)."""
        return property_values_at(
            self._kernel, np.empty(0, dtype=np.int64),
            [np.empty(0, dtype=dep[1].dtype) for dep in self._deps],
        ).dtype

    def read_range(self, start, stop):
        start, stop = self.check_range(start, stop)
        return self._memo.column(
            self.name, (start, stop), lambda: property_values_at(
                self._kernel, np.arange(start, stop, dtype=np.int64),
                dep_slices(self._deps, start, stop),
            )
        )

    def gather(self, instance_ids):
        """Rows at arbitrary ids (node tables: same-owner dependencies
        only).  The ids are the caller's to bound — a row is a pure
        function of its id, in range or not."""
        return self._memo.column(
            self.name, instance_ids, lambda: property_values_at(
                self._kernel, instance_ids,
                [table.gather(instance_ids) for _, table in self._deps],
            )
        )


class NeighbourIndex:
    """Edge ids sorted by tail and by head, spilled once: a node's
    edges in O(log m + degree), reading no edge page.

    Each side is two columns over all ``m`` edges — the sorted codes
    ``endpoint * m + edge_id`` (so ``nodes * m`` must stay below
    2**63) and the opposite endpoint of each code's edge — written
    through ``spill`` by a :class:`~repro.io.spool.SortedRuns`
    sort-merge of the table's ``run_rows`` pages, so the build holds
    O(run_rows) rows, and read back memory-mapped.
    """

    def __init__(self, table, spill, run_rows):
        m = self._m = len(table)
        self._spaces = table.num_tail_nodes, table.num_head_nodes
        runs = [SortedRuns(spill, f"index.{side}", run_rows)
                for side in (0, 1)]
        for lo, *ends in table.iter_chunks(runs[0].run_rows):
            ids = np.arange(lo, lo + len(ends[0]), dtype=np.int64)
            for side, sorted_runs in enumerate(runs):
                sorted_runs.push(np.asarray(ends[side], dtype=np.int64) * m
                                 + ids, ends[1 - side])
        self._sides = []
        for side, sorted_runs in enumerate(runs):
            names = [f"index.{side}.codes", f"index.{side}.others"]
            columns = [spill.create(name, m, np.int64) for name in names]
            pos = 0
            for block in sorted_runs.merge():
                for column, values in zip(columns, block):
                    column[pos:pos + values.size] = values
                pos += block[0].size
            sorted_runs.cleanup()
            self._sides.append(
                [spill.seal(*named) for named in zip(names, columns)])

    def matches(self, node_id, side):
        """:meth:`~repro.tables.ranged.EdgeRows.edge_matches`."""
        if not 0 <= node_id < self._spaces[side]:
            return (np.empty(0, dtype=np.int64),) * 2
        codes, others = map(np.asarray, self._sides[side])  # no copy
        first = node_id * self._m
        lo, hi = codes.searchsorted((first, first + self._m))
        return codes[lo:hi] - first, others[lo:hi].copy()


def _built(table):
    return table


class DeferredEdges(EdgeRows):
    """A matched edge table whose matching state is built on demand.

    The metadata — length from the structure, id space from the plan —
    is known up front, so overlays and dependants can be laid over it
    at construction; ``build()`` (the matching maps, or a correlated
    matching run and spilled) happens at the first read or at
    :meth:`resolve`, once, whichever thread gets there first — and
    with it, given ``index = (spill, run_rows)``, the table's
    :class:`NeighbourIndex` (without one, or when its codes would not
    fit in int64, the neighbourhood scans stand).  Inside a records
    page the page's own endpoints are read once, however many edge
    properties gather through them.
    """

    def __init__(self, structure, id_space, build, memo, index=None):
        self.name = structure.name
        self.directed = structure.directed
        self.num_tail_nodes, self.num_head_nodes = id_space
        self._length = len(structure)
        self._build = build
        self._memo = memo
        self._index_by = index
        self._table = self._index = None
        self._lock = threading.Lock()

    def __len__(self):
        return self._length

    def __reduce__(self):
        # A copy is the built table, whose matching state is spilled:
        # it pickles as paths, like every table a worker receives.
        return _built, (self.resolve(),)

    def resolve(self):
        """The built table (building it if nobody has)."""
        if self._table is None:
            with self._lock:
                if self._table is None:
                    table = self._build()
                    spaces = self.num_tail_nodes, self.num_head_nodes
                    if self._index_by and max(spaces) * len(self) < 1 << 63:
                        self._index = NeighbourIndex(table, *self._index_by)
                    self._table = table
        return self._table

    def read_range(self, start, stop):
        return self._memo.column(
            self.name, (start, stop),
            lambda: self.resolve().read_range(start, stop),
        )

    def edge_matches(self, node_id, side):
        self.resolve()
        if self._index is None:
            return None
        return self._index.matches(int(node_id), side)
