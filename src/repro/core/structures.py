"""Structure handles: pre-matching edges as edge streams.

Every store needs a generated structure's *metadata* (for derived
counts and matching maps) and its edges by *id range*; no store wants
the whole pre-matching edge table kept.  A structure is
therefore always an :class:`~repro.structure.base.EdgeChunkStream` —
the row-range table protocol every stored table answers — and
:func:`open_structure` is the one place that opens it, through the
spill the store passes (:mod:`repro.io.spool`: in RAM for the
in-memory run, in the spool out of core and when serving):

* chunkable generators re-emit any range from the seed, with their
  global state (sampled codes, degree offsets) kept by the spill;
* sequential generators are the documented global stage: the table is
  materialised once and its two columns are kept by the spill
  (:func:`spilled_table` — spooled and memory-mapped out of core);
* a resumed run that adopts a finished edge table from the spool only
  needs the recorded :func:`metadata` (:func:`adopted`).

Final edge ids are the structure's ids pushed through the matching maps
of :func:`~repro.core.tasks.matching_maps`; :class:`MatchedEdges` is
that relabel as a table — read one shard at a time by the batch
store (one shard per table in memory) and one page at a time by the
served edge pages.  Spooled streams and maps pickle as spool
paths, so worker processes page them in place.

>>> from repro.io.spool import IN_MEMORY
>>> from repro.tables import EdgeTable
>>> table = EdgeTable("e", np.array([0, 1, 2]), np.array([1, 2, 0]), 3, 3)
>>> stream = spilled_table(IN_MEMORY, table)
>>> stream.read_range(1, 3)
(array([1, 2]), array([2, 0]))
>>> adopted(metadata(stream)).read_range(0, 1)  # doctest: +ELLIPSIS
Traceback (most recent call last):
    ...
RuntimeError: structure 'e' was adopted from the spool on resume: ...
"""

from __future__ import annotations

from functools import partial

import numpy as np

from ..structure.base import EdgeChunkStream
from ..structure.registry import create_generator
from ..tables.ranged import EdgeRows

__all__ = [
    "MatchedEdges",
    "adopted",
    "metadata",
    "open_structure",
    "spill_maps",
    "spilled_table",
]


def metadata(structure):
    """The topology metadata of a structure, as the checkpoint ledger
    records it (``metadata(adopted(metadata(handle)))`` round-trips)."""
    return {
        "name": structure.name,
        "num_edges": len(structure),
        "num_tail_nodes": structure.num_tail_nodes,
        "num_head_nodes": structure.num_head_nodes,
        "directed": structure.directed,
    }


class _ColumnEmitter:
    """Picklable emitter paging two kept columns."""

    def __init__(self, tails, heads):
        self.tails = tails
        self.heads = heads

    def __call__(self, lo, hi):
        return np.asarray(self.tails[lo:hi]), np.asarray(self.heads[lo:hi])


def spilled_table(spill, table):
    """A materialised edge table as a stream paging its two columns,
    kept by ``spill`` — how a global stage's output (a sequential
    structure, a correlated matching's final table) is held."""
    return EdgeChunkStream(**metadata(table), emit=_ColumnEmitter(
        spill("tails", table.tails), spill("heads", table.heads)
    ))


def _not_kept(name, lo, hi):
    raise RuntimeError(
        f"structure {name!r} was adopted from the spool on resume: only "
        "its metadata was kept, so it has no edges to read"
    )


def adopted(meta):
    """The handle of a structure a resumed run adopted whole from the
    spool: its recorded :func:`metadata` — enough for derived counts
    and matching maps — and no edges."""
    return EdgeChunkStream(**meta, emit=partial(_not_kept, meta["name"]))


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
    """Run a structure generator into a stream.

    ``spec, sg_seed, n`` are :func:`~repro.core.tasks.structure_inputs`'
    output; ``spill`` keeps the structure's global state — per-stream
    state and a sequential generator's table — in RAM or in the spool,
    namespaced for this structure.
    """
    generator = create_generator(spec.name, seed=sg_seed, **spec.params)
    if generator.chunkable(n):
        stream = generator.run_chunked(n, chunk_rows, spill)
        stream.random_access = generator.random_access(n)
        return stream
    # Sequential generators are a documented global stage: materialise
    # once, then keep the columns through the spill.
    return spilled_table(spill, generator.run(n))


def spill_maps(spill, tail_map, head_map):
    """Keep matching maps through ``spill``; returns the kept pair
    (memory-mapped in the spool).

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
