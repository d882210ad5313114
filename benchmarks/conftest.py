"""Shared helper for ``bench_scale.py``, the out-of-core scale smoke.

The paper's experiments are not here: ``repro report`` runs and grades
them into ``docs/reproduction.md``.  Throughput is measured by
``python3 -m bench``.
"""

from __future__ import annotations


def print_table(title, rows):
    """Pretty-print a list of dict rows under a title banner."""
    print()
    print(f"=== {title} ===")
    if not rows:
        print("(no rows)")
        return
    keys = list(rows[0])
    widths = {
        key: max(len(str(key)), *(len(str(row[key])) for row in rows))
        for key in keys
    }
    header = "  ".join(str(key).ljust(widths[key]) for key in keys)
    print(header)
    print("-" * len(header))
    for row in rows:
        print(
            "  ".join(str(row[key]).ljust(widths[key]) for key in keys)
        )
