"""Pattern templates: the small subgraphs a plant injects.

A :class:`Template` is a tiny graph over *local* node ids ``0..k-1``
stored as parallel tail/head arrays, exactly the shape of an
:class:`~repro.tables.EdgeTable` — the injection stage maps local ids
onto sampled world ids and appends the mapped edges.

Templates come from two sources:

* **explicit edge lists** (``kind: edges``) — the user writes the
  pattern down, the way a real matching benchmark ships its query
  graphs;
* **grown motifs** (``ring``, ``star``, ``clique``, ``path``,
  ``tree``) — classic shapes parameterised only by ``size``.  The
  ``tree`` grower is the one randomised kind: node ``i`` attaches to a
  uniformly drawn earlier node, seeded off the plant's own
  counter-based substream so the shape is a pure function of
  ``(seed, plant name)``.

>>> t = make_template("q", "ring", size=4)
>>> t.size, t.num_edges
(4, 4)
>>> [tuple(e) for e in t.edge_list()]
[(0, 1), (1, 2), (2, 3), (3, 0)]
>>> make_template("q", "star", size=3).edge_list()
[(0, 1), (0, 2)]
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "PlantingError",
    "TEMPLATE_KINDS",
    "Template",
    "make_template",
]

#: Every recognised ``template.kind`` value, in documentation order.
TEMPLATE_KINDS = ("ring", "star", "clique", "path", "tree", "edges")
#: Most edges a grown template may have.  A template is built whole
#: before its copies are placed, and its type's node count may be
#: known only at run time, so this bound holds where the scale cannot.
MAX_TEMPLATE_EDGES = 10**6


class PlantingError(ValueError):
    """Raised for invalid plant configurations."""


@dataclass(frozen=True)
class Template:
    """An immutable pattern graph over local node ids ``0..size-1``."""

    name: str
    kind: str
    size: int
    tails: np.ndarray
    heads: np.ndarray

    @property
    def num_edges(self):
        return int(self.tails.size)

    def edge_list(self):
        """Edges as a plain list of ``(tail, head)`` int tuples."""
        return [
            (int(t), int(h))
            for t, h in zip(self.tails, self.heads)
        ]

    def degrees(self, directed=False):
        """Per-node degree vector (undirected), or ``(out, in)``."""
        out = np.bincount(self.tails, minlength=self.size)
        inc = np.bincount(self.heads, minlength=self.size)
        if directed:
            return out, inc
        return out + inc

    def to_dict(self):
        """JSON-ready description (ground-truth manifests embed this)."""
        return {
            "kind": self.kind,
            "size": self.size,
            "edges": [[t, h] for t, h in self.edge_list()],
        }


def _grown_edges(kind, size, stream):
    edges = {"clique": size * (size - 1) // 2, "ring": size}.get(
        kind, size - 1
    )
    if edges > MAX_TEMPLATE_EDGES:
        raise PlantingError(
            f"a {size}-node {kind} template has {edges} edges; at most "
            f"{MAX_TEMPLATE_EDGES} are grown"
        )
    if kind == "ring":
        if size < 3:
            raise PlantingError("ring template needs size >= 3")
        tails = np.arange(size, dtype=np.int64)
        return tails, (tails + 1) % size
    if kind == "star":
        if size < 2:
            raise PlantingError("star template needs size >= 2")
        heads = np.arange(1, size, dtype=np.int64)
        return np.zeros(size - 1, dtype=np.int64), heads
    if kind == "clique":
        if size < 2:
            raise PlantingError("clique template needs size >= 2")
        tails, heads = np.triu_indices(size, k=1)
        return tails.astype(np.int64), heads.astype(np.int64)
    if kind == "path":
        if size < 2:
            raise PlantingError("path template needs size >= 2")
        tails = np.arange(size - 1, dtype=np.int64)
        return tails, tails + 1
    if kind == "tree":
        if size < 2:
            raise PlantingError("tree template needs size >= 2")
        if stream is None:
            raise PlantingError("tree template needs a RandomStream")
        # Random recursive tree: node i attaches to a uniform earlier
        # node, ``randint(i, 0, i)``; each draw indexed by i so the
        # shape is O(1)-seekable.
        heads = np.arange(1, size, dtype=np.int64)
        return (stream.uniform(heads) * heads).astype(np.int64), heads
    raise PlantingError(
        f"unknown template kind {kind!r}; one of {TEMPLATE_KINDS}"
    )


def _explicit_edges(name, edges):
    if not isinstance(edges, (list, tuple)) or not edges:
        raise PlantingError(
            f"plant {name!r}: template.edges must be a non-empty "
            "list of [tail, head] pairs"
        )
    tails, heads = [], []
    for pair in edges:
        if (
            not isinstance(pair, (list, tuple)) or len(pair) != 2
            or not all(
                isinstance(v, int) and not isinstance(v, bool)
                for v in pair
            )
        ):
            raise PlantingError(
                f"plant {name!r}: template edge {pair!r} is not an "
                "[int, int] pair"
            )
        tails.append(pair[0])
        heads.append(pair[1])
    tails = np.asarray(tails, dtype=np.int64)
    heads = np.asarray(heads, dtype=np.int64)
    if tails.min() < 0 or heads.min() < 0:
        raise PlantingError(
            f"plant {name!r}: template node ids must be >= 0"
        )
    size = int(max(tails.max(), heads.max())) + 1
    present = np.zeros(size, dtype=bool)
    present[tails] = True
    present[heads] = True
    if not present.all():
        missing = np.flatnonzero(~present).tolist()
        raise PlantingError(
            f"plant {name!r}: template ids must be dense 0..k-1; "
            f"ids {missing} appear in no edge"
        )
    return tails, heads, size


def make_template(name, kind, size=None, edges=None, stream=None,
                  directed=False):
    """Build and validate a :class:`Template`.

    ``edges`` is only valid (and required) for ``kind="edges"``; every
    other kind takes ``size``.  ``stream`` (a
    :class:`~repro.prng.RandomStream`) is required for the randomised
    ``tree`` kind.  ``directed=False`` additionally rejects reversed
    duplicate edges, which would collapse into one undirected edge.
    """
    if kind not in TEMPLATE_KINDS:
        raise PlantingError(
            f"plant {name!r}: unknown template kind {kind!r}; "
            f"one of {TEMPLATE_KINDS}"
        )
    if kind == "edges":
        if size is not None:
            raise PlantingError(
                f"plant {name!r}: template.size is derived from the "
                "edge list; drop it"
            )
        tails, heads, size = _explicit_edges(name, edges)
    else:
        if edges is not None:
            raise PlantingError(
                f"plant {name!r}: template.edges is only valid with "
                "kind 'edges'"
            )
        if size is None:
            raise PlantingError(
                f"plant {name!r}: template kind {kind!r} needs a size"
            )
        try:
            tails, heads = _grown_edges(kind, int(size), stream)
        except PlantingError as exc:
            raise PlantingError(f"plant {name!r}: {exc}") from None
        size = int(size)
    if (tails == heads).any():
        raise PlantingError(
            f"plant {name!r}: template contains a self-loop"
        )
    if kind == "edges":  # a grown kind never repeats an edge
        codes = tails * size + heads
        if np.unique(codes).size != codes.size:
            raise PlantingError(
                f"plant {name!r}: template contains duplicate edges"
            )
        if not directed:
            both = np.concatenate([codes, heads * size + tails])
            if np.unique(both).size != both.size:
                raise PlantingError(
                    f"plant {name!r}: reversed duplicate edges "
                    "collapse on an undirected edge type"
                )
    tails.setflags(write=False)
    heads.setflags(write=False)
    return Template(
        name=str(name), kind=kind, size=size, tails=tails, heads=heads
    )
