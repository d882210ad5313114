"""The Structure Generator (SG) interface of Section 4.1.

An SG is a pluggable object with three methods:

``initialize(**params)``
    configure the generator (degree distributions, model knobs, ...),
``run(n) -> EdgeTable``
    generate the edges of a graph with ``n`` nodes,
``get_num_nodes(num_edges) -> n``
    invert the scale: how many nodes produce roughly ``num_edges`` edges —
    this is how a user sizes a graph by edge count.

All SGs here are deterministic given their seed, return simple
(loop-free, parallel-free) undirected graphs unless documented
otherwise, and operate on numpy edge arrays throughout.
"""

from __future__ import annotations

import numpy as np

from ..io.spool import IN_MEMORY, dedup_first_occurrence
from ..prng import RandomStream
from ..tables import EdgeTable
from ..tables.ranged import EdgeRows

__all__ = [
    "EdgeChunkStream",
    "PackedCodeEmitter",
    "StructureGenerator",
    "deduplicated_stream",
    "empty_emit",
    "ensure_even_sum",
    "slot_owners",
]

#: Edges per chunk when :meth:`StructureGenerator.run` materialises a
#: chunkable configuration's stream — also the run size of its
#: sort-merge dedups, so up to this many records dedup as one run.
_RUN_ROWS = 1 << 20

#: Floor for spill-run sizes of the out-of-core samplers and dedups:
#: small ``chunk_edges`` settings must not explode into thousands of
#: runs.
_MIN_RUN_ROWS = 65_536


def _run_rows(chunk_edges):
    """Spill-run size of a stream paged ``chunk_edges`` at a time."""
    return max(int(chunk_edges), _MIN_RUN_ROWS)


def empty_emit(lo, hi):
    """Emitter for zero-edge streams (module-level: picklable)."""
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def slot_owners(offsets, lo, hi):
    """The slot of CSR ``offsets`` that owns each id in ``[lo, hi)``.

    Equals ``searchsorted(offsets, arange(lo, hi), "right") - 1`` for
    ``0 <= lo <= hi <= offsets[-1]``, but binary-searches only the two
    ends and repeats each slot by its share of the range: O(hi - lo)
    per chunk, and only the chunk's slice of a spilled ``offsets`` is
    read.

    >>> slot_owners(np.array([0, 2, 2, 5]), 1, 4).tolist()
    [0, 2, 2]
    """
    offsets = np.asarray(offsets)  # a SpillView's map, once
    first = int(offsets.searchsorted(lo, side="right")) - 1
    last = int(offsets.searchsorted(hi, side="left"))
    # Ufuncs, not np.clip / np.diff: a served page is 64 ids.
    bounds = np.minimum(np.maximum(offsets[first:last + 1], lo), hi)
    return np.arange(first, last, dtype=np.int64).repeat(
        bounds[1:] - bounds[:-1])


class PackedCodeEmitter:
    """Picklable decoder over spilled ``tail * divisor + head`` codes.

    The output of an out-of-core dedup pass
    (:func:`repro.io.spool.dedup_first_occurrence`) is a spilled
    sequence of packed codes in final edge-id order; emission pages a
    slice and unpacks it, so any chunk of the deduplicated table is
    derivable without touching the rest.
    """

    def __init__(self, codes, divisor):
        self.codes = codes
        self.divisor = np.int64(divisor)

    def __call__(self, lo, hi):
        codes = np.asarray(self.codes[lo:hi])
        return codes // self.divisor, codes % self.divisor


class EdgeChunkStream(EdgeRows):
    """Chunked structure emission: a chunkable generator's one output.

    A chunkable generator's :meth:`StructureGenerator.run_chunked`
    returns one of these, and its ``run(n)`` is this stream
    materialised.  It is an edge table that is never stored: it
    carries the metadata up front (length, endpoint id-space sizes,
    orientation) and answers the table protocol of
    :mod:`repro.tables.ranged` by re-deriving any id range from the
    seed (or from state spilled once), so chunk iteration,
    materialisation and the neighbour scans come from
    :class:`~repro.tables.ranged.EdgeRows`.  The stream is the same
    edge table for any ``chunk_edges`` and spill, which is what lets
    the sharded executor generate structure without ever holding the
    whole edge list.

    ``emit(lo, hi)`` must be a pure function of the range — streams are
    counter-based, so re-reading a range is cheap and exact.
    """

    #: Can any range be re-derived from the seed alone, with no global
    #: pass behind it?  :func:`repro.core.structures.open_structure`
    #: records the generator's answer here.
    random_access = False

    def __init__(self, name, num_edges, num_tail_nodes, num_head_nodes,
                 directed, emit):
        self.name = str(name)
        self._num_edges = int(num_edges)
        self.num_tail_nodes = int(num_tail_nodes)
        self.num_head_nodes = int(num_head_nodes)
        self.directed = bool(directed)
        self._emit = emit

    def __len__(self):
        return self._num_edges

    def read_range(self, start, stop):
        """``(tails, heads)`` of edge ids ``[start, stop)`` as ``int64``
        — also for an empty range, so downstream spools inherit the
        dtype from zero-edge tables.

        The random-access entry point: because emission is a pure
        function of the range, any page of edges can be produced
        without touching the rest — this is what the virtual-graph
        serving layer pages edge tables with (see docs/serving.md).
        """
        start, stop = self.check_range(start, stop)
        tails, heads = self._emit(start, stop)
        tails = np.ascontiguousarray(tails, dtype=np.int64)
        heads = np.ascontiguousarray(heads, dtype=np.int64)
        if len(tails) != stop - start or len(heads) != stop - start:
            raise ValueError(
                f"chunk stream {self.name!r}: emit({start}, {stop}) "
                f"returned {len(tails)}/{len(heads)} rows"
            )
        return tails, heads


class StructureGenerator:
    """Base class implementing the SG contract.

    A subclass implements exactly one emission path: chunkable
    generators (``emission = "chunkable"``) override
    :meth:`_generate_chunked` and ``run`` materialises that stream;
    sequential ones override :meth:`_generate`.  Most also override
    :meth:`expected_edges_for_nodes`, from which the default
    :meth:`get_num_nodes` inversion derives.

    Parameters are passed either to the constructor or to
    :meth:`initialize`; the two are equivalent, the latter exists to
    mirror the paper's interface literally.
    """

    #: Name under which the generator is registered for the DSL.
    name = "abstract"

    #: First-class emission classification (see docs/scaling.md):
    #: ``"chunkable"`` generators emit their edge table in bounded
    #: id-range chunks, and ``run`` is those chunks joined;
    #: ``"sequential"`` generators need the whole graph in memory
    #: (iterative models such as preferential attachment or forest
    #: fire).  Whether a *given configuration* can chunk is answered by
    #: :meth:`chunkable`.
    emission = "sequential"

    #: First-class access classification (see docs/serving.md):
    #: ``"random"`` generators derive any edge page — and therefore
    #: the ``neighbors_of`` / ``edge_exists`` scans of the
    #: :meth:`run_chunked` stream — purely from ``(seed, indices)``,
    #: without materialising the graph.  ``"sequential"`` generators
    #: can only answer such queries from a materialised table.
    #: Generators only classify; the scans live on the edge rows.
    #: Whether a *given configuration* is random-access is answered
    #: by :meth:`random_access`.
    access = "sequential"

    def __init__(self, seed=0, **params):
        self.seed = int(seed)
        self._params = {}
        if params:
            self.initialize(**params)

    # -- SG contract -------------------------------------------------------

    def initialize(self, **params):
        """Configure the generator; unknown keys raise immediately."""
        valid = self.parameter_names()
        for key in params:
            if key not in valid:
                raise TypeError(
                    f"{type(self).__name__} got unexpected parameter "
                    f"{key!r}; valid: {sorted(valid)}"
                )
        self._params.update(params)
        self._validate_params()

    def run(self, n):
        """Generate an :class:`EdgeTable` for a graph with ``n`` nodes.

        A chunkable configuration materialises its :meth:`run_chunked`
        stream (state kept in memory), so both entry points share one
        emission path; a sequential one runs :meth:`_generate`.
        """
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        if self.chunkable(n):
            return self.run_chunked(n, _RUN_ROWS).to_edge_table()
        stream = RandomStream(self.seed, f"sg.{self.name}")
        return self._generate(n, stream)

    def chunkable(self, n):
        """Can *this configuration* emit ``run(n)`` in chunks?

        Defaults to the class-level :attr:`emission` flag; subclasses
        override when chunkability depends on parameters (e.g. R-MAT
        with ``simplify=True`` needs a global deduplication pass).
        """
        return self.emission == "chunkable"

    def run_chunked(self, n, chunk_edges, spill=IN_MEMORY):
        """The generator's edge table as an :class:`EdgeChunkStream`
        paged ``chunk_edges`` at a time (:meth:`run` materialises it).

        ``spill`` keeps the per-stream state that is genuinely global
        (sampled pair codes, degree offsets).  It is one of the two
        spills of :mod:`repro.io.spool`: the in-RAM one by default, or
        a spool's, which hands back memory-mapped views (the
        out-of-core and served runs).

        Raises ``TypeError`` for sequential generators/configurations.
        """
        n, chunk_edges = int(n), int(chunk_edges)
        if n < 0:
            raise ValueError("n must be nonnegative")
        if chunk_edges < 1:
            raise ValueError("chunk_edges must be >= 1")
        if not self.chunkable(n):
            raise TypeError(
                f"{type(self).__name__} ({self.name!r}) is sequential "
                "for this configuration; run() is the only emission path"
            )
        stream = RandomStream(self.seed, f"sg.{self.name}")
        return self._generate_chunked(n, stream, chunk_edges, spill)

    def _generate_chunked(self, n, stream, chunk_edges, spill):
        raise NotImplementedError(
            f"{type(self).__name__} declares emission="
            f"{self.emission!r} but does not implement chunked emission"
        )

    def random_access(self, n):
        """Can *this configuration* answer point queries from the seed?

        Random access requires chunked emission (pages are re-derived,
        never stored), so the capability is the conjunction of the
        class-level :attr:`access` flag and :meth:`chunkable`.
        """
        return self.access == "random" and self.chunkable(n)

    def get_num_nodes(self, num_edges):
        """Number of nodes so that ``run(n)`` yields ≈ ``num_edges`` edges.

        The default implementation inverts
        :meth:`expected_edges_for_nodes` by bisection, which works for any
        monotone edge-count model.
        """
        num_edges = int(num_edges)
        if num_edges < 0:
            raise ValueError("num_edges must be nonnegative")
        if num_edges == 0:
            return 0
        lo, hi = 1, 2
        while self.expected_edges_for_nodes(hi) < num_edges:
            hi *= 2
            if hi > 1 << 40:
                raise ValueError(
                    f"cannot reach {num_edges} edges at any node count"
                )
        while lo < hi:
            mid = (lo + hi) // 2
            if self.expected_edges_for_nodes(mid) < num_edges:
                lo = mid + 1
            else:
                hi = mid
        return lo

    # -- subclass hooks ------------------------------------------------------

    def parameter_names(self):
        """Set of accepted ``initialize`` keys.  Override in subclasses."""
        return set()

    def _validate_params(self):
        """Validate the current parameter set; raise ``ValueError`` on
        inconsistent configurations.  Called after every ``initialize``."""

    def _generate(self, n, stream):
        raise NotImplementedError

    def node_count_problem(self, n):
        """Why this configuration cannot generate ``n`` nodes — a
        clause that reads after the generator's name — or ``None``.
        The engines ask before generating so the error can name the
        edge type (:func:`repro.core.tasks.structure_inputs`)."""
        return None

    def expected_edges_for_nodes(self, n):
        """Expected edge count of ``run(n)``; used by the default
        :meth:`get_num_nodes`.  Override for generators with a known
        edge-count model."""
        raise NotImplementedError(
            f"{type(self).__name__} does not define an edge-count model"
        )

    # -- conveniences ----------------------------------------------------------

    def param(self, key, default=None):
        """Read a configured parameter."""
        return self._params.get(key, default)

    def __repr__(self):
        kv = ", ".join(f"{k}={v!r}" for k, v in sorted(self._params.items()))
        return f"{type(self).__name__}(seed={self.seed}, {kv})"


def deduplicated_stream(raw, chunk_edges, spill=IN_MEMORY,
                        drop_self_loops=True):
    """:meth:`EdgeTable.deduplicated`'s rule applied to a raw stream.

    ``raw`` is any edge table (usually an :class:`EdgeChunkStream`
    over a multigraph emitter).  Each block of run size is read,
    canonicalised to ``(min, max)`` when undirected, stripped of self
    loops when ``drop_self_loops`` and the table is monopartite, and
    packed to ``tail * num_head_nodes + head`` codes;
    :func:`~repro.io.spool.dedup_first_occurrence` keeps the first
    occurrence of each code through sorted runs, so the raw edges are
    never held whole.  Returns the simple graph as an
    :class:`EdgeChunkStream` paging the spilled codes.

    >>> raw = EdgeTable("g", [0, 1, 2, 2, 1, 0, 2], [1, 0, 2, 0, 2, 2, 1],
    ...                 num_tail_nodes=3)
    >>> simple = deduplicated_stream(raw, 2).to_edge_table()
    >>> simple.tails.tolist(), simple.heads.tolist()
    ([0, 0, 1], [1, 2, 2])
    >>> reference = raw.deduplicated()
    >>> (simple.tails.tolist(), simple.heads.tolist()) == (
    ...     reference.tails.tolist(), reference.heads.tolist())
    True
    """
    num_head = np.int64(raw.num_head_nodes)
    drop_loops = drop_self_loops and not raw.is_bipartite
    run_rows = _run_rows(chunk_edges)

    def blocks():
        for lo, tails, heads in raw.iter_chunks(run_rows):
            if not raw.directed:
                tails, heads = (np.minimum(tails, heads),
                                np.maximum(tails, heads))
            edge_ids = np.arange(lo, lo + tails.size, dtype=np.int64)
            if drop_loops:
                keep = tails != heads
                tails, heads, edge_ids = (
                    tails[keep], heads[keep], edge_ids[keep])
            yield tails * num_head + heads, edge_ids

    total, codes = dedup_first_occurrence(spill, raw.name, blocks(),
                                          run_rows)
    return EdgeChunkStream(
        raw.name, total, raw.num_tail_nodes, raw.num_head_nodes,
        raw.directed, PackedCodeEmitter(codes, num_head),
    )


def ensure_even_sum(degrees, stream):
    """Make a degree sequence realisable: force an even degree sum.

    Configuration-model constructions pair half-edges, which requires an
    even total.  When the sampled sum is odd, one node chosen
    deterministically from ``stream`` gets one extra half-edge.
    """
    degrees = np.asarray(degrees, dtype=np.int64).copy()
    if degrees.size and int(degrees.sum()) % 2 == 1:
        bump = int(stream.randint(np.int64(degrees.size), 0, degrees.size))
        degrees[bump] += 1
    return degrees


def edge_table_from_pairs(name, pairs, n, directed=False):
    """Build an :class:`EdgeTable` from an ``(m, 2)`` pair array."""
    pairs = np.asarray(pairs, dtype=np.int64)
    if pairs.size == 0:
        pairs = pairs.reshape(0, 2)
    return EdgeTable(
        name,
        pairs[:, 0],
        pairs[:, 1],
        num_tail_nodes=n,
        num_head_nodes=n,
        directed=directed,
    )
