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

from ..prng import RandomStream
from ..tables import EdgeTable

__all__ = [
    "EdgeChunkStream",
    "PackedCodeEmitter",
    "StructureGenerator",
    "empty_emit",
    "ensure_even_sum",
]


def empty_emit(lo, hi):
    """Emitter for zero-edge streams (module-level: picklable)."""
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


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
        from ..io.spool import spill_array

        codes = np.asarray(spill_array(self.codes)[lo:hi])
        return codes // self.divisor, codes % self.divisor


class EdgeChunkStream:
    """Chunked structure emission: the out-of-core twin of ``run``.

    A chunkable generator's :meth:`StructureGenerator.run_chunked`
    returns one of these instead of a materialised
    :class:`~repro.tables.EdgeTable`.  It carries the table's metadata
    up front (``num_edges``, endpoint id-space sizes, orientation) and
    emits the edge columns in bounded id-range chunks via
    :meth:`chunks`; the concatenation of all chunks is bit-identical
    to ``run(n)`` for the same seed and parameters, which is what lets
    the sharded executor generate structure without ever holding the
    whole edge list.

    ``emit(lo, hi)`` must be a pure function of the range — streams are
    counter-based, so re-iterating the chunks is cheap and exact.
    """

    def __init__(self, name, num_edges, num_tail_nodes, num_head_nodes,
                 directed, chunk_edges, emit):
        self.name = str(name)
        self.num_edges = int(num_edges)
        self.num_tail_nodes = int(num_tail_nodes)
        self.num_head_nodes = int(num_head_nodes)
        self.directed = bool(directed)
        self.chunk_edges = int(chunk_edges)
        if self.chunk_edges < 1:
            raise ValueError("chunk_edges must be >= 1")
        self._emit = emit

    def __len__(self):
        return self.num_edges

    @property
    def is_bipartite(self):
        return self.num_tail_nodes != self.num_head_nodes

    @property
    def num_nodes(self):
        """Node id-space size for monopartite streams."""
        if self.is_bipartite:
            raise ValueError(
                f"chunk stream {self.name!r} is bipartite; use "
                "num_tail_nodes / num_head_nodes"
            )
        return self.num_tail_nodes

    def emit(self, lo, hi):
        """``(tails, heads)`` of edge ids ``[lo, hi)`` as ``int64``.

        The random-access entry point: because emission is a pure
        function of the range, any page of edges can be produced
        without touching the rest — this is what the virtual-graph
        serving layer pages edge tables with (see docs/serving.md).
        """
        lo, hi = int(lo), int(hi)
        if not 0 <= lo <= hi <= self.num_edges:
            raise IndexError(
                f"chunk stream {self.name!r}: range [{lo}, {hi}) out "
                f"of bounds [0, {self.num_edges})"
            )
        tails, heads = self._emit(lo, hi)
        tails = np.ascontiguousarray(tails, dtype=np.int64)
        heads = np.ascontiguousarray(heads, dtype=np.int64)
        if len(tails) != hi - lo or len(heads) != hi - lo:
            raise ValueError(
                f"chunk stream {self.name!r}: emit({lo}, {hi}) "
                f"returned {len(tails)}/{len(heads)} rows"
            )
        return tails, heads

    def chunks(self):
        """Yield ``(chunk_start, tails, heads)`` in edge-id order.

        Arrays are ``int64`` — also for empty streams, so downstream
        spools inherit the correct dtype from zero-edge tables (the
        same empty-shard contract the property pipeline guarantees).
        """
        for lo in range(0, self.num_edges, self.chunk_edges):
            hi = min(lo + self.chunk_edges, self.num_edges)
            tails, heads = self.emit(lo, hi)
            yield lo, tails, heads

    def to_edge_table(self):
        """Materialise the stream (tests and global matching stages)."""
        parts = list(self.chunks())
        if parts:
            tails = np.concatenate([t for _, t, _ in parts])
            heads = np.concatenate([h for _, _, h in parts])
        else:
            tails = np.empty(0, dtype=np.int64)
            heads = np.empty(0, dtype=np.int64)
        return EdgeTable(
            self.name,
            tails,
            heads,
            num_tail_nodes=self.num_tail_nodes,
            num_head_nodes=self.num_head_nodes,
            directed=self.directed,
        )


class StructureGenerator:
    """Base class implementing the SG contract.

    Subclasses override :meth:`_generate` (and usually
    :meth:`expected_edges_for_nodes`, from which the default
    :meth:`get_num_nodes` inversion derives).

    Parameters are passed either to the constructor or to
    :meth:`initialize`; the two are equivalent, the latter exists to
    mirror the paper's interface literally.
    """

    #: Name under which the generator is registered for the DSL.
    name = "abstract"

    #: First-class emission classification (see docs/scaling.md):
    #: ``"chunkable"`` generators can emit their edge table in bounded
    #: id-range chunks bit-identical to ``run``; ``"sequential"``
    #: generators need the whole graph in memory (iterative models such
    #: as preferential attachment or forest fire).  Whether a *given
    #: configuration* can chunk is answered by :meth:`chunkable`.
    emission = "sequential"

    #: First-class access classification (see docs/serving.md):
    #: ``"random"`` generators derive any edge page — and therefore
    #: point queries such as :meth:`neighbors_of` / :meth:`edge_exists`
    #: — purely from ``(seed, indices)`` via chunked emission, without
    #: materialising the graph.  ``"sequential"`` generators can only
    #: answer such queries from a materialised table.  Whether a
    #: *given configuration* is random-access is answered by
    #: :meth:`random_access`.
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
        """Generate an :class:`EdgeTable` for a graph with ``n`` nodes."""
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        stream = RandomStream(self.seed, f"sg.{self.name}")
        return self._generate(n, stream)

    def chunkable(self, n):
        """Can *this configuration* emit ``run(n)`` in chunks?

        Defaults to the class-level :attr:`emission` flag; subclasses
        override when chunkability depends on parameters (e.g. R-MAT
        with ``simplify=True`` needs a global deduplication pass).
        """
        return self.emission == "chunkable"

    def run_chunked(self, n, chunk_edges, spill=None):
        """Chunked twin of :meth:`run`: an :class:`EdgeChunkStream`.

        ``spill`` is an optional callable ``spill(name, array) ->
        array-like`` used to park per-stream state that is genuinely
        global (sampled pair codes, degree offsets) outside RAM; the
        sharded executor passes a disk spiller that hands back a
        memory-mapped view.  ``None`` keeps state in memory.

        Raises ``TypeError`` for sequential generators/configurations.
        """
        n = int(n)
        if n < 0:
            raise ValueError("n must be nonnegative")
        if not self.chunkable(n):
            raise TypeError(
                f"{type(self).__name__} ({self.name!r}) is sequential "
                "for this configuration; run() is the only emission path"
            )
        stream = RandomStream(self.seed, f"sg.{self.name}")
        if spill is None:
            spill = lambda name, array: array  # noqa: E731
        return self._generate_chunked(n, stream, int(chunk_edges), spill)

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

    def neighbors_of(self, n, ids, chunk_edges=65_536, spill=None,
                     direction="both"):
        """Neighbour lists of ``ids`` in ``run(n)``, seed-derived.

        Scans the chunked emission (bounded memory: one chunk of edges
        at a time, per-stream global state parked via ``spill``) and
        collects, in edge-id order, the opposite endpoint of every
        incident edge.  The result agrees exactly with what a
        materialised edge table would give:

        * ``direction="out"`` — heads of edges whose tail is the node;
        * ``direction="in"`` — tails of edges whose head is the node;
        * ``direction="both"`` — out-matches then in-matches per chunk,
          with self-loops contributing once.

        Returns a dict ``{id: int64 array}`` covering every requested
        id (empty arrays for isolated nodes).

        Raises ``TypeError`` for configurations where
        :meth:`random_access` is false.
        """
        if not self.random_access(n):
            raise TypeError(
                f"{type(self).__name__} ({self.name!r}) is not "
                "random-access for this configuration; materialise "
                "run() to query neighbourhoods"
            )
        if direction not in ("out", "in", "both"):
            raise ValueError(
                f"direction must be out/in/both, got {direction!r}"
            )
        ids = np.unique(np.asarray(ids, dtype=np.int64))
        collected = {int(i): [] for i in ids.tolist()}
        stream = self.run_chunked(n, chunk_edges, spill=spill)
        for _, tails, heads in stream.chunks():
            if direction in ("out", "both"):
                for pos in np.flatnonzero(np.isin(tails, ids)).tolist():
                    collected[int(tails[pos])].append(int(heads[pos]))
            if direction in ("in", "both"):
                mask = np.isin(heads, ids)
                if direction == "both":
                    # Self-loops already matched on the tail side.
                    mask &= tails != heads
                for pos in np.flatnonzero(mask).tolist():
                    collected[int(heads[pos])].append(int(tails[pos]))
        return {
            node: np.asarray(neigh, dtype=np.int64)
            for node, neigh in collected.items()
        }

    def edge_exists(self, n, src, dst, chunk_edges=65_536, spill=None):
        """Is there an edge between ``src`` and ``dst`` in ``run(n)``?

        Derived from the seed by scanning chunked emission with early
        exit; for undirected streams both orientations count.  Raises
        ``TypeError`` for non-random-access configurations.
        """
        if not self.random_access(n):
            raise TypeError(
                f"{type(self).__name__} ({self.name!r}) is not "
                "random-access for this configuration; materialise "
                "run() to query edges"
            )
        src, dst = int(src), int(dst)
        stream = self.run_chunked(n, chunk_edges, spill=spill)
        for _, tails, heads in stream.chunks():
            hit = (tails == src) & (heads == dst)
            if not stream.directed:
                hit |= (tails == dst) & (heads == src)
            if hit.any():
                return True
        return False

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
                raise ValueError("edge target not reachable")
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
