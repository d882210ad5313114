"""The row-range table protocol: ``name`` + ``__len__`` + ``read_range``.

Both relations of Section 4.1 have dense ids, so a table is fully
described by its length and the rows of any id range.  Every storage
backend — resident arrays, the disk spool, the planting overlays,
recomputation from the seed — implements just ``read_range(start,
stop)`` (value rows for a PT, ``(tails, heads)`` for an ET; bounds
checked with :meth:`check_range`) and inherits the rest from
:class:`PropertyRows` / :class:`EdgeRows`:
chunk iteration, the lazy ``values`` / ``tails`` / ``heads`` columns,
materialisation, the neighbour / existence scans (or an index's
lookups: :meth:`EdgeRows.edge_matches`).  The chunk writers, the
property-dependency slicer and the serving pages consume nothing
else, so storage is the only thing a new backend has to decide.
"""

from __future__ import annotations

import numpy as np

__all__ = ["EdgeRows", "PropertyRows", "RangeColumn", "chunk_bounds"]

#: Rows per step when a lazy table is walked whole (iteration, scans).
SCAN_ROWS = 65_536


def chunk_bounds(label, length, chunk_size, start=0, stop=None):
    """Yield contiguous ``(lo, hi)`` ranges of at most ``chunk_size``
    rows covering ``[start, stop)`` of a ``length``-row table, in id
    order (``stop`` defaults, and is clamped, to ``length``)."""
    chunk_size = int(chunk_size)
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    start = int(start)
    stop = length if stop is None else min(int(stop), length)
    if not 0 <= start <= length:
        raise IndexError(
            f"{label}: start {start} out of range [0, {length}]"
        )
    for lo in range(start, stop, chunk_size):
        yield lo, min(lo + chunk_size, stop)


class _Rows:
    """What both relations derive from ``name`` and ``__len__``."""

    __slots__ = ()
    _kind = None  # "PT" / "ET": the relation named in error messages

    def check_range(self, start, stop):
        """``(start, stop)`` as ints; ``IndexError`` unless
        ``0 <= start <= stop <= len(self)``."""
        start, stop = int(start), int(stop)
        if not 0 <= start <= stop <= len(self):
            raise IndexError(
                f"{self._kind} {self.name!r}: range [{start}, {stop}) "
                f"out of bounds [0, {len(self)})"
            )
        return start, stop

    def _chunk_bounds(self, chunk_size, start, stop):
        return chunk_bounds(
            f"{self._kind} {self.name!r}", len(self), chunk_size,
            start, stop,
        )


class PropertyRows(_Rows):
    """The ``[id, value]`` relation over ``read_range(start, stop) ->
    values``; implementors also expose the column's ``dtype``."""

    __slots__ = ()
    _kind = "PT"

    def iter_chunks(self, chunk_size, start=0, stop=None):
        """Iterate ``(chunk_start, values)`` over ``[start, stop)``.

        Chunks hold at most ``chunk_size`` rows, in id order, with
        global starts — chunk boundaries never depend on how the rows
        are stored.  An empty range yields nothing.
        """
        for lo, hi in self._chunk_bounds(chunk_size, start, stop):
            yield lo, self.read_range(lo, hi)

    @property
    def values(self):
        """The value column, paged on demand."""
        return RangeColumn(self)

    def to_property_table(self):
        """Materialise into a resident
        :class:`~repro.tables.PropertyTable` (global stages only)."""
        from .property_table import PropertyTable

        return PropertyTable(self.name, self.read_range(0, len(self)))


class EdgeRows(_Rows):
    """The ``[id, tail, head]`` relation over ``read_range(start,
    stop) -> (tails, heads)``; implementors also carry
    ``num_tail_nodes`` / ``num_head_nodes`` / ``directed``."""

    __slots__ = ()
    _kind = "ET"

    def iter_chunks(self, chunk_size, start=0, stop=None):
        """Iterate ``(chunk_start, tails, heads)`` over ``[start,
        stop)`` edge ids — same contract as
        :meth:`PropertyRows.iter_chunks`."""
        for lo, hi in self._chunk_bounds(chunk_size, start, stop):
            yield (lo, *self.read_range(lo, hi))

    @property
    def num_edges(self):
        """Number of edges ``m``."""
        return len(self)

    @property
    def is_bipartite(self):
        """True when tail and head id spaces differ in size."""
        return self.num_tail_nodes != self.num_head_nodes

    @property
    def num_nodes(self):
        """Node id-space size for monopartite tables."""
        if self.is_bipartite:
            raise ValueError(
                f"ET {self.name!r} is bipartite; use num_tail_nodes / "
                "num_head_nodes"
            )
        return self.num_tail_nodes

    @property
    def tails(self):
        """The whole tail column (whole-table consumers only)."""
        return self.read_range(0, len(self))[0]

    @property
    def heads(self):
        """The whole head column (whole-table consumers only)."""
        return self.read_range(0, len(self))[1]

    def edge_matches(self, node_id, side):
        """``(edge_ids, other endpoints)`` of the edges whose tail
        (``side`` 0) or head (1) is ``node_id``, in edge-id order, from
        the table's index; ``None`` without one (the scans stand)."""
        return None

    def neighbors_of(self, node_id, direction="both",
                     chunk_rows=SCAN_ROWS):
        """Neighbours of one node, in edge-id order: from the table's
        index (:meth:`edge_matches`, O(log m + degree)), else a bounded
        scan of the pages (O(m) compute, O(``chunk_rows``) memory).

        ``"out"`` collects the heads of edges whose tail is the node,
        ``"in"`` the tails of edges whose head is it, ``"both"`` the
        out-matches then the in-matches of each ``chunk_rows`` page, a
        self-loop counting once — an order the index keeps.  A node
        outside the id space it is looked up in (tails for ``"out"``,
        heads for ``"in"``, either for ``"both"``) is an
        ``IndexError``, raised before any lookup; an isolated node
        inside it has an empty neighbourhood.

        >>> from repro.tables import EdgeTable
        >>> table = EdgeTable("t", [0, 2, 1, 0], [1, 0, 1, 0], directed=True)
        >>> table.neighbors_of(0, "both", chunk_rows=2).tolist()
        [1, 2, 0]
        >>> table.neighbors_of(0, "both", chunk_rows=4).tolist()
        [1, 0, 2]
        """
        if direction not in ("out", "in", "both"):
            raise ValueError(
                f"direction must be out/in/both, got {direction!r}"
            )
        node_id = int(node_id)
        tail_space = 0 if direction == "in" else self.num_tail_nodes
        head_space = 0 if direction == "out" else self.num_head_nodes
        space = max(tail_space, head_space)
        if not 0 <= node_id < space:
            raise IndexError(
                f"ET {self.name!r}: node id {node_id} out of range "
                f"[0, {space}) for direction {direction!r}"
            )
        found = [self.edge_matches(node_id, side) for side in
                 {"out": (0,), "in": (1,), "both": (0, 1)}[direction]]
        if None not in found:
            if len(found) == 1:
                return found[0][1]
            (out_ids, out_others), (in_ids, in_others) = found
            keep = in_others != node_id  # a self-loop counts once
            # Page by page (a stable sort), out- then in-matches.
            pages = np.concatenate([out_ids, in_ids[keep]]) // chunk_rows
            return np.concatenate([out_others, in_others[keep]])[
                np.argsort(pages, kind="stable")]
        found = [np.empty(0, dtype=np.int64)]
        for _, tails, heads in self.iter_chunks(chunk_rows):
            if direction != "in":
                found.append(heads[tails == node_id])
            if direction != "out":
                mask = heads == node_id
                if direction == "both":
                    mask &= tails != heads
                found.append(tails[mask])
        return np.concatenate(found)

    def edge_exists(self, src, dst, chunk_rows=SCAN_ROWS):
        """Is there an edge ``src -> dst`` (either orientation when
        undirected)?  The index's out-matches of ``src`` (and of
        ``dst``), else the same bounded scan, stopping at the first
        hit."""
        src, dst = int(src), int(dst)
        out = self.edge_matches(src, 0)
        if out is not None:
            return dst in out[1] or (
                not self.directed and src in self.edge_matches(dst, 0)[1])
        for _, tails, heads in self.iter_chunks(chunk_rows):
            hit = (tails == src) & (heads == dst)
            if not self.directed:
                hit |= (tails == dst) & (heads == src)
            if hit.any():
                return True
        return False

    def to_edge_table(self):
        """Materialise into a resident :class:`~repro.tables.EdgeTable`
        (global stages only)."""
        from .edge_table import EdgeTable

        return EdgeTable(
            self.name, *self.read_range(0, len(self)),
            num_tail_nodes=self.num_tail_nodes,
            num_head_nodes=self.num_head_nodes,
            directed=self.directed,
        )


class RangeColumn:
    """Array-like column view over a table's ``read_range``.

    Supports what consumers do with ``.values``: ``len``, ``dtype``,
    slicing and indexing (real ndarrays / scalars), iteration, and
    ``np.asarray`` for global consumers — without the column ever
    having to exist whole.
    """

    def __init__(self, table):
        self._table = table
        self.dtype = table.dtype

    def __len__(self):
        return len(self._table)

    def __getitem__(self, item):
        if isinstance(item, slice):
            start, stop, step = item.indices(len(self._table))
            values = self._table.read_range(start, max(start, stop))
            return values if step == 1 else values[::step]
        index = int(item)
        if index < 0:
            index += len(self._table)
        return self._table.read_range(index, index + 1)[0]

    def __array__(self, dtype=None, copy=None):
        # ``read_range`` may hand back a table's own storage (a
        # resident column, a spooled shard cache): copy when asked.
        values = self._table.read_range(0, len(self._table))
        return np.array(values, dtype=dtype, copy=copy)

    def __iter__(self):
        for _, chunk in self._table.iter_chunks(SCAN_ROWS):
            yield from chunk
