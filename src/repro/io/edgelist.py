"""Plain edge-list text format (``tail head`` per line).

The interchange format of graph-processing systems (Graph500, SNAP,
GraphMat all consume whitespace edge lists).

Writing streams id-range chunks through the vectorised formatter of
:mod:`repro.io.chunks` (byte-identical to the historical per-row
f-string loop); reading consumes the file in line chunks so neither
direction materialises per-row Python tuples for the whole table.
"""

from __future__ import annotations

from itertools import islice
from pathlib import Path

import numpy as np

from ..tables import EdgeTable
from .chunks import (
    DEFAULT_CHUNK_SIZE,
    format_edgelist_chunk,
    open_text,
    table_stem,
    write_chunks,
)

__all__ = ["write_edgelist", "read_edgelist"]


def _edgelist_chunk_job(table, lo, hi):
    """Format one edge-list chunk."""
    return format_edgelist_chunk(*table.read_range(lo, hi))


def write_edgelist(table, path, comment=None,
                   chunk_size=DEFAULT_CHUNK_SIZE, compress=None):
    """Write ``tail head`` lines; optional leading ``#`` comment."""
    return write_chunks(
        path, compress, f"# {comment}\n" if comment else "",
        _edgelist_chunk_job, (table,), len(table), chunk_size,
    )


def read_edgelist(path, name=None, directed=False,
                  chunk_size=DEFAULT_CHUNK_SIZE, num_tail_nodes=None,
                  num_head_nodes=None):
    """Read an edge list (``#`` lines ignored), chunk by chunk."""
    path = Path(path)
    tail_parts, head_parts = [], []
    with open_text(path, "r") as handle:
        line_number = 0
        while True:
            block = list(islice(handle, chunk_size))
            if not block:
                break
            tails, heads = [], []
            for line in block:
                line_number += 1
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                parts = line.split()
                if len(parts) < 2:
                    raise ValueError(
                        f"{path}:{line_number}: expected 'tail head'"
                    )
                tails.append(int(parts[0]))
                heads.append(int(parts[1]))
            if tails:
                tail_parts.append(np.array(tails, dtype=np.int64))
                head_parts.append(np.array(heads, dtype=np.int64))
    empty = np.empty(0, dtype=np.int64)
    return EdgeTable(
        name or table_stem(path),
        np.concatenate(tail_parts) if tail_parts else empty,
        np.concatenate(head_parts) if head_parts else empty,
        num_tail_nodes=num_tail_nodes,
        num_head_nodes=num_head_nodes,
        directed=directed,
    )
