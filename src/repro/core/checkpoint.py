"""Run fingerprint for resumable sharded runs.

Every sharded stage is a pure function of ``(schema, scale, seed,
shard_rows)``, so a spool part that was fully written and acked is
provably identical to what a re-run would produce.  The spool's
catalog (:mod:`repro.io.spool`, ``checkpoint.jsonl``) makes that
observation operational: an out-of-core run appends an ack
(rows + per-file size/CRC32) as each shard lands, and a ``--resume``
run

1. validates the package / catalog version and the *run fingerprint*
   defined here — a SHA-256 over the canonicalised schema, the scale
   mapping, the seed, ``shard_rows`` and the sink format — refusing to
   mix spools across versions or configurations,
2. re-verifies every acked part file on disk (size + CRC), truncating
   each table's usable prefix at the first mismatch (acks are recorded
   in shard order, so the verified prefix is exactly the resumable
   work), and
3. lets the executor skip the verified prefix and re-emit sinks from
   the spool, making the final export byte-identical to an
   uninterrupted run.

Counts are never checkpointed — they are recomputed on resume (cheap,
and the recomputation cross-checks the fingerprint's purity argument).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json

import numpy as np

from ..io.spool import CHECKPOINT_NAME, CheckpointError

__all__ = [
    "CHECKPOINT_NAME",
    "CheckpointError",
    "run_fingerprint",
]


def _canonical(value):
    """JSON-stable canonical form of schema/scale values.

    Handles the vocabulary that appears in schemas: dataclasses,
    enums, numpy scalars/arrays, mappings, sequences, and plain
    objects with a ``__dict__`` (e.g. joint distributions).  The goal
    is a deterministic identity, not a reversible serialisation.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            "__dataclass__": type(value).__name__,
            **{
                f.name: _canonical(getattr(value, f.name))
                for f in dataclasses.fields(value)
            },
        }
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if isinstance(value, np.ndarray):
        return {"__ndarray__": value.dtype.str,
                "data": value.tolist()}
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in sorted(
            value.items(), key=lambda item: str(item[0])
        )}
    if isinstance(value, (list, tuple, set, frozenset)):
        items = [_canonical(v) for v in value]
        if isinstance(value, (set, frozenset)):
            items = sorted(items, key=repr)
        return items
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "__dict__"):
        return {"__object__": type(value).__name__,
                **_canonical(vars(value))}
    return {"__opaque__": type(value).__name__}


def run_fingerprint(schema, scale, seed, shard_rows, sink_format):
    """Hex SHA-256 identifying one resumable run configuration.

    Everything the spool bytes are a function of — plus the sink
    format, because resume re-emits the export and a half-written CSV
    must not be resumed as JSONL.
    """
    payload = json.dumps({
        "schema": _canonical(schema),
        "scale": _canonical(dict(scale)),
        "seed": int(seed),
        "shard_rows": int(shard_rows),
        "format": str(sink_format),
    }, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()
