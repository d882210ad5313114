"""Structure handles: pre-matching edges as edge rows.

Every store needs a generated structure's *metadata* (for derived
counts and matching maps) and its edges by *id range*; only the
resident store ever wants the whole edge table in RAM.  A structure is
therefore held as an :class:`~repro.tables.ranged.EdgeRows` — the
row-range table protocol every stored table answers — and this module
is the one place that decides which one, :func:`open_structure`:

* chunkable generators re-emit any range from the seed: the
  generator's own :class:`~repro.structure.base.EdgeChunkStream` is
  the handle, nothing is stored;
* sequential generators are the documented global stage: the table is
  materialised once, spilled to the spool and memory-mapped
  (:class:`SpilledStructure`);
* a resumed run that adopts a finished edge table from the spool only
  needs the recorded :func:`metadata` (the plain
  :class:`StructureHandle`).

Final edge ids are the structure's ids pushed through the matching maps
of :func:`~repro.core.tasks.matching_maps`; :class:`MatchedEdges` is
that relabel as a table — materialised by the resident store, read one
shard at a time by the spooled store's workers and one page at a time
by the served edge pages.  Handles and spilled maps pickle as spool
paths, so worker processes page them in place.
"""

from __future__ import annotations

import numpy as np

from ..structure.registry import create_generator
from ..tables.ranged import EdgeRows

__all__ = [
    "MatchedEdges",
    "SpilledStructure",
    "StructureHandle",
    "metadata",
    "open_structure",
    "spill_maps",
]


def metadata(structure):
    """The topology metadata of a structure, as the checkpoint ledger
    records it (``StructureHandle(**metadata(handle))`` round-trips)."""
    return {
        "name": structure.name,
        "num_edges": len(structure),
        "num_tail_nodes": structure.num_tail_nodes,
        "num_head_nodes": structure.num_head_nodes,
        "directed": structure.directed,
    }


class StructureHandle(EdgeRows):
    """Topology metadata of a pre-matching structure, without its
    edges (no ``read_range``): enough for the metadata consumers
    (``resolve_count``, ``matching_maps``).  The subclass adds edge
    access."""

    #: Can any edge range be re-derived from the seed alone?
    random_access = False

    def __init__(self, name, num_edges, num_tail_nodes, num_head_nodes,
                 directed):
        self.name = name
        self._num_edges = int(num_edges)
        self.num_tail_nodes = int(num_tail_nodes)
        self.num_head_nodes = int(num_head_nodes)
        self.directed = bool(directed)

    def __len__(self):
        return self._num_edges


class SpilledStructure(StructureHandle):
    """Materialised-once edges, spilled to the spool and memory-mapped."""

    def __init__(self, spill, table):
        super().__init__(**metadata(table))
        self._tails = spill("tails", table.tails)
        self._heads = spill("heads", table.heads)

    def read_range(self, start, stop):
        start, stop = self.check_range(start, stop)
        return (
            np.asarray(self._tails[start:stop]),
            np.asarray(self._heads[start:stop]),
        )


class MatchedEdges(EdgeRows):
    """Final edges of a permutation matching: a structure relabelled,
    range by range, through its matching maps (``None`` = identity).

    ``id_space`` is the ``(num_tail_nodes, num_head_nodes)`` the final
    table declares (:func:`~repro.core.tasks.matched_id_space`); it
    defaults to the structure's own.
    """

    def __init__(self, structure, tail_map, head_map, id_space=None):
        self.name = structure.name
        self.directed = structure.directed
        self.num_tail_nodes, self.num_head_nodes = id_space or (
            structure.num_tail_nodes, structure.num_head_nodes
        )
        self._structure = structure
        self._tail_map = tail_map
        self._head_map = head_map

    def __len__(self):
        return len(self._structure)

    def read_range(self, start, stop):
        tails, heads = self._structure.read_range(start, stop)
        if self._tail_map is not None:
            tails = np.asarray(self._tail_map[tails])
        if self._head_map is not None:
            heads = np.asarray(self._head_map[heads])
        return tails, heads


def open_structure(spec, sg_seed, n, chunk_rows, spill):
    """Run a structure generator into a handle.

    ``spec, sg_seed, n`` are :func:`~repro.core.tasks.structure_inputs`'
    output; ``spill`` is a spool spiller namespaced for this structure
    (per-stream global state and sequential tables land under it), or
    ``None`` — the identity spill of the resident store, which keeps
    both in memory.
    """
    generator = create_generator(spec.name, seed=sg_seed, **spec.params)
    if generator.chunkable(n):
        stream = generator.run_chunked(n, chunk_rows, spill=spill)
        stream.random_access = generator.random_access(n)
        return stream
    # Sequential generators are a documented global stage: materialise
    # once, then (unless kept in memory) spill to scratch and free.
    table = generator.run(n)
    return table if spill is None else SpilledStructure(spill, table)


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
