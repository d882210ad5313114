"""In-memory spans around the benchmark's calls into each layer.

A span is a dict ``{id, run, name, kind, subject, parent, start, end,
rows, bytes}``; times are ``time.perf_counter()`` seconds.  Spans are
recorded from one thread, kept in memory, and written out by the
caller when the run ends.  A span's *self time* is its duration minus
the part its children cover, so the self times of one run's spans sum
to the duration of its root span.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

#: span kind -> the layer (module) whose busy time it counts towards.
#: ``count`` tasks read cardinalities off a finished structure, so
#: they are booked with it.
LAYER_OF_KIND = {
    "count": "structure",
    "structure": "structure",
    "property": "properties",
    "edge_property": "properties",
    "match_prepare": "matching",
    "match": "matching",
    "score": "matching",
    "export": "export",
    "validation": "validation",
    "generate_spill": "sharded",
    "pool": "pool",
    "serve": "serve",
}


class Tracer:
    """Records nested spans of one run (single-threaded)."""

    def __init__(self, run_id):
        self.run_id = str(run_id)
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name, kind, subject=""):
        """Time the enclosed block; the yielded dict takes ``rows`` and
        ``bytes`` counts from the caller."""
        span = {
            "id": len(self.spans),
            "run": self.run_id,
            "name": name,
            "kind": kind,
            "subject": subject,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            "rows": 0,
            "bytes": 0,
        }
        self.spans.append(span)
        self._open.append(span["id"])
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()


def duration(span):
    return span["end"] - span["start"]


def self_times(spans):
    """``{span id: self time}`` — duration minus the children's."""
    own = {span["id"]: duration(span) for span in spans}
    for span in spans:
        if span["parent"] is not None:
            own[span["parent"]] -= duration(span)
    return own


def roots(spans):
    return [span for span in spans if span["parent"] is None]


def traced_wall(spans):
    """Duration of the run's single root span."""
    (root,) = roots(spans)
    return duration(root)


def coverage(spans):
    """Share of the traced wall spent inside a non-root span."""
    (root,) = roots(spans)
    return 1.0 - self_times(spans)[root["id"]] / duration(root)


def busy_by_kind(spans):
    """Self time summed per span kind, non-root spans only."""
    own = self_times(spans)
    busy = {}
    for span in spans:
        if span["parent"] is not None:
            kind = span["kind"]
            busy[kind] = busy.get(kind, 0.0) + own[span["id"]]
    return busy


def busy_by_layer(spans):
    """Self time summed per layer, non-root spans only."""
    busy = {}
    for kind, seconds in busy_by_kind(spans).items():
        layer = LAYER_OF_KIND[kind]
        busy[layer] = busy.get(layer, 0.0) + seconds
    return busy


def total(spans, kinds, field):
    """Sum of one count field over the spans of the given kinds."""
    return sum(span[field] for span in spans if span["kind"] in kinds)


def nesting_problems(spans):
    """Violations of the span-tree invariants, as strings (empty = ok):
    every span is closed, lies inside its parent, shares its parent's
    run id, and does not overlap a sibling."""
    by_id = {span["id"]: span for span in spans}
    problems = []
    last_end = {}
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {span['id']} is not closed")
            continue
        parent = by_id.get(span["parent"])
        if span["parent"] is not None:
            if parent is None:
                problems.append(f"span {span['id']} has no parent span")
                continue
            if not (parent["start"] <= span["start"]
                    and span["end"] <= parent["end"]):
                problems.append(
                    f"span {span['id']} leaves its parent's interval"
                )
            if span["run"] != parent["run"]:
                problems.append(f"span {span['id']} changes run id")
        previous = last_end.get(span["parent"])
        if previous is not None and span["start"] < previous:
            problems.append(f"span {span['id']} overlaps a sibling")
        last_end[span["parent"]] = span["end"]
    if len(roots(spans)) != 1:
        problems.append(f"{len(roots(spans))} root spans, expected 1")
    return problems
