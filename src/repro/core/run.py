"""How a batch run executes: :class:`RunOptions`.

Every batch run is ``plan -> walk -> batch store -> spool``, driven by
:func:`~repro.core.sharded.run_batch` from
:meth:`~repro.core.engine.GraphGenerator.generate`; the options choose the
spool — in RAM, or on disk with the pool that fills it — and how
failures are retried and injected.  None of them changes an output
byte.
"""

from __future__ import annotations

import os
import re
from dataclasses import dataclass

import numpy as np

from .faults import ENV_FAULTS, parse_faults
from .procpool import BACKENDS

__all__ = [
    "BYTES_PER_PERMUTED_NODE",
    "BYTES_PER_SHARD_ROW",
    "DEFAULT_SHARD_ROWS",
    "RunOptions",
    "parse_memory_budget",
    "shard_rows_for_budget",
]

#: Id-range shard size (rows) of an out-of-core run that names neither
#: ``shard_rows`` nor ``memory_budget`` (a ``resume`` alone).
DEFAULT_SHARD_ROWS = 65_536

#: Conservative working-set estimate per shard row (bytes), covering a
#: handful of concurrently-live columns (values + dependency slices +
#: formatting buffers).  ``--memory-budget`` divides by this to pick
#: ``shard_rows``; see docs/scaling.md for the derivation.
BYTES_PER_SHARD_ROW = 512

#: A permutation matching's transient per permuted node (bytes), a
#: global stage the budget cannot bound (docs/scaling.md).
BYTES_PER_PERMUTED_NODE = 45

#: Floor for derived shard sizes — below this, per-shard overhead
#: dominates and the budget estimate is meaningless anyway.
MIN_SHARD_ROWS = 1_024

_BUDGET_RE = re.compile(
    r"^\s*(?P<number>\d+(?:\.\d+)?|\.\d+)\s*(?P<unit>[kmgt]i?b?|b)?\s*$",
    re.IGNORECASE,
)

_BUDGET_UNITS = {
    "b": 1,
    "k": 1 << 10,
    "m": 1 << 20,
    "g": 1 << 30,
    "t": 1 << 40,
}

#: Spelled out once so every parse error can list them (the CLI
#: surfaces this message verbatim for ``--memory-budget``).
_BUDGET_FORMS = (
    "an integer byte count (e.g. 1048576) or a number — fractions "
    "like '1.5' or '.5' included — with a binary-multiple suffix "
    "KB/MB/GB/TB, K/M/G/T or KiB/MiB/GiB/TiB (e.g. '512MB', '1.5GB', "
    "'0.5GiB')"
)


def parse_memory_budget(value):
    """Parse a memory budget into bytes.

    Accepts a plain integer (bytes) or a string with a binary-multiple
    suffix: ``"512MB"``, ``"1G"``, ``"64KiB"`` — ``KB``/``KiB``/``K``
    are all ``2**10`` here.  Fractional sizes work with any suffix
    (``"1.5GB"``, ``".5GiB"``); a fractional *byte* count is rejected
    rather than silently truncated.
    """
    if isinstance(value, (int, np.integer)):
        budget = int(value)
    else:
        match = _BUDGET_RE.match(str(value))
        if match is None:
            raise ValueError(
                f"cannot parse memory budget {value!r}; expected "
                f"{_BUDGET_FORMS}"
            )
        number = float(match.group("number"))
        unit = (match.group("unit") or "b").lower()
        if unit == "b" and number != int(number):
            raise ValueError(
                f"memory budget {value!r} is a fractional byte "
                f"count; add a unit suffix (expected {_BUDGET_FORMS})"
            )
        budget = int(number * _BUDGET_UNITS[unit[0]])
    if budget <= 0:
        raise ValueError(
            f"memory budget must be positive, got {value!r}"
        )
    return budget


def shard_rows_for_budget(budget_bytes):
    """Shard size (rows) for a byte budget, via the documented
    :data:`BYTES_PER_SHARD_ROW` working-set estimate."""
    return max(MIN_SHARD_ROWS, int(budget_bytes) // BYTES_PER_SHARD_ROW)


#: (field, CLI flag) of the options only an out-of-core run reads.
_OUT_OF_CORE_ONLY = (
    ("backend", "--backend"),
    ("spool_dir", "--spool-dir"),
)


def _check_integer(name, value, minimum):
    """Refuse a non-integer (``bool`` included) or too small field."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value!r}")


@dataclass(frozen=True)
class RunOptions:
    """The eight values a batch run is configured by.

    ``shard_rows``, ``memory_budget`` (bytes or ``"512MB"``-style,
    divided by :data:`BYTES_PER_SHARD_ROW`; a matching it cannot bound
    warns) or ``resume`` select the out-of-core run; ``backend`` and
    ``spool_dir`` only mean something there and are refused elsewhere
    rather than silently dropped.  ``workers`` threads run independent
    tasks, exporting in plan order: the bytes and errors are the serial
    run's.  Out of core their shards share one bound of ``workers + 1``
    in flight on ``"thread"`` or ``"process"`` workers, so peak memory
    scales with ``workers × shard_rows``; the spool is a temporary
    directory (removed when a stage fails) unless ``spool_dir`` names
    one, and ``resume`` continues the run its ``checkpoint.jsonl``
    catalog records.  ``retries`` and ``faults`` (``None`` reads
    ``REPRO_FAULTS``) apply to every run: in memory a failed shard —
    one per table — is retried inline.  ``workers``, ``shard_rows`` and
    ``retries`` are integers (``bool`` is not one).
    """

    workers: int = 1
    backend: str = "thread"
    shard_rows: int = None
    memory_budget: object = None
    spool_dir: object = None
    resume: bool = False
    retries: int = 0
    faults: object = None

    def __post_init__(self):
        _check_integer("workers", self.workers, 1)
        if self.shard_rows is not None:
            _check_integer("shard_rows", self.shard_rows, 1)
        _check_integer("retries", self.retries, 0)
        if self.backend not in BACKENDS:
            raise ValueError(
                f"backend must be one of {BACKENDS}, got {self.backend!r}"
            )
        if self.memory_budget is not None:
            parse_memory_budget(self.memory_budget)
        if isinstance(self.faults, str):
            parse_faults(self.faults)
        if self.resume and self.spool_dir is None:
            raise ValueError(
                "resume requires an explicit spool_dir (an owned "
                "temporary spool is removed on failure, so there is "
                "nothing to resume from)"
            )
        if self.faults is None:  # the run will read the variable
            try:
                parse_faults(os.environ.get(ENV_FAULTS))
            except ValueError as exc:
                raise ValueError(f"{ENV_FAULTS}: {exc}") from None
        if self.out_of_core:
            return
        for name, flag in _OUT_OF_CORE_ONLY:
            if getattr(self, name) != getattr(RunOptions, name):
                raise ValueError(
                    f"{flag} only applies to out-of-core mode; enable "
                    "it with --shard-rows, --memory-budget or --resume"
                )

    @property
    def out_of_core(self):
        return (self.shard_rows is not None
                or self.memory_budget is not None or bool(self.resume))

    @property
    def rows_per_shard(self):
        """The shard size the run works in (``shard_rows`` wins over
        ``memory_budget``)."""
        if self.shard_rows is not None:
            return int(self.shard_rows)
        if self.memory_budget is not None:
            return shard_rows_for_budget(
                parse_memory_budget(self.memory_budget)
            )
        return DEFAULT_SHARD_ROWS

    def export_chunk_size(self, requested=None):
        """Rows per export chunk for this run's sinks.

        Out of core, chunks must not exceed the shard size or a sink
        would pull whole-table slices back into memory; chunk size
        never changes output bytes.
        """
        from ..io import DEFAULT_CHUNK_SIZE

        chunk_size = requested or DEFAULT_CHUNK_SIZE
        if self.out_of_core:
            return min(chunk_size, self.rows_per_shard)
        return chunk_size

