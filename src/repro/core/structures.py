"""Structure handles: pre-matching edges without a resident table.

The out-of-core executor and the serving layer both need a generated
structure's *metadata* (for derived counts and matching maps) and any
*id range* of its edges on demand, but never the whole edge table in
RAM.  This module is the one place that decides how a structure is
held — :func:`open_structure` — and the one class hierarchy both front
ends page it through:

* chunkable generators re-emit any range from the seed
  (:class:`StreamStructure`); nothing is stored;
* sequential generators are the documented global stage: the table is
  materialised once, spilled to the spool and memory-mapped
  (:class:`SpilledStructure`);
* a resumed run that adopts a finished edge table from the spool only
  needs the recorded metadata (the plain :class:`StructureHandle`).

Final edge ids are the structure's ids pushed through the matching maps
of :func:`~repro.core.tasks.matching_maps`; :func:`emit_matched` is
that relabel, shared by the sharded relabel workers and the served
edge pages.  Handles and spilled maps pickle as spool paths, so worker
processes page them in place.
"""

from __future__ import annotations

import numpy as np

from ..structure.registry import create_generator
from ..tables import EdgeTable

__all__ = [
    "SpilledStructure",
    "StreamStructure",
    "StructureHandle",
    "emit_matched",
    "open_structure",
    "spill_maps",
]


class StructureHandle:
    """Topology metadata of a pre-matching structure.

    Quacks like an :class:`~repro.tables.EdgeTable` for the metadata
    consumers (``resolve_count``, ``matching_maps``) without holding
    the edge columns.  The base class carries metadata only; the
    subclasses add edge access.
    """

    #: Can any edge range be re-derived from the seed alone?
    random_access = False

    def __init__(self, name, num_edges, num_tail_nodes, num_head_nodes,
                 directed):
        self.name = name
        self.num_edges = int(num_edges)
        self.num_tail_nodes = int(num_tail_nodes)
        self.num_head_nodes = int(num_head_nodes)
        self.directed = bool(directed)

    def __len__(self):
        return self.num_edges

    @property
    def is_bipartite(self):
        return self.num_tail_nodes != self.num_head_nodes

    @property
    def num_nodes(self):
        if self.is_bipartite:
            raise ValueError(
                f"structure {self.name!r} is bipartite; use "
                "num_tail_nodes / num_head_nodes"
            )
        return self.num_tail_nodes

    def metadata(self):
        """The constructor arguments, as the checkpoint ledger records
        them (``StructureHandle(**handle.metadata())`` round-trips)."""
        return {
            "name": self.name,
            "num_edges": self.num_edges,
            "num_tail_nodes": self.num_tail_nodes,
            "num_head_nodes": self.num_head_nodes,
            "directed": self.directed,
        }

    def emit(self, lo, hi):
        """Pre-matching ``(tails, heads)`` of edge ids ``[lo, hi)``."""
        raise NotImplementedError

    def to_edge_table(self):
        """The whole structure as an :class:`~repro.tables.EdgeTable`
        (global stages only)."""
        raise NotImplementedError


class StreamStructure(StructureHandle):
    """Chunkable generator: ranges re-derived from the seed on demand."""

    def __init__(self, stream, random_access):
        super().__init__(
            stream.name, stream.num_edges, stream.num_tail_nodes,
            stream.num_head_nodes, stream.directed,
        )
        self._stream = stream
        self.random_access = bool(random_access)

    def emit(self, lo, hi):
        return self._stream.emit(lo, hi)

    def to_edge_table(self):
        return self._stream.to_edge_table()


class SpilledStructure(StructureHandle):
    """Materialised-once edges, spilled to the spool and memory-mapped."""

    def __init__(self, spill, table):
        super().__init__(
            table.name, len(table), table.num_tail_nodes,
            table.num_head_nodes, table.directed,
        )
        self._tails = spill("tails", table.tails)
        self._heads = spill("heads", table.heads)

    def emit(self, lo, hi):
        return (
            np.asarray(self._tails[lo:hi]),
            np.asarray(self._heads[lo:hi]),
        )

    def to_edge_table(self):
        return EdgeTable(
            self.name,
            np.asarray(self._tails),
            np.asarray(self._heads),
            num_tail_nodes=self.num_tail_nodes,
            num_head_nodes=self.num_head_nodes,
            directed=self.directed,
        )


def open_structure(spec, sg_seed, n, chunk_rows, spill):
    """Run a structure generator into a handle, never a resident table.

    ``spec, sg_seed, n`` are :func:`~repro.core.tasks.structure_inputs`'
    output; ``spill`` is a spool spiller namespaced for this structure
    (per-stream global state and sequential tables land under it).
    """
    generator = create_generator(spec.name, seed=sg_seed, **spec.params)
    if generator.chunkable(n):
        stream = generator.run_chunked(n, chunk_rows, spill=spill)
        return StreamStructure(stream, generator.random_access(n))
    # Sequential generators are a documented global stage: materialise
    # once, spill to scratch, free.
    return SpilledStructure(spill, generator.run(n))


def spill_maps(spill, tail_map, head_map):
    """Park matching maps in the spool; returns the memory-mapped pair.

    A map shared by both sides (monopartite matching) is spilled once
    and stays shared; ``None`` (identity) stays ``None``.
    """
    shared = head_map is tail_map
    tail_map = spill("tail_map", tail_map)
    if shared:
        head_map = tail_map
    elif head_map is not None:
        head_map = spill("head_map", head_map)
    return tail_map, head_map


def emit_matched(structure, lo, hi, tail_map, head_map):
    """Final ``(tails, heads)`` of edge ids ``[lo, hi)``: the structure
    range relabelled through the matching maps (``None`` = identity)."""
    tails, heads = structure.emit(lo, hi)
    if tail_map is not None:
        tails = np.asarray(tail_map[tails])
    if head_map is not None:
        heads = np.asarray(head_map[heads])
    return tails, heads
