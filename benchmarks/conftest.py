"""Shared helpers for the paper benchmark suite.

Every benchmark prints the table/figure rows it reproduces (run one
file with ``pytest benchmarks/bench_figure3_sizes.py -s`` to see them)
and records the headline numbers in ``benchmark.extra_info`` so they
survive into the pytest-benchmark JSON output.  Throughput is measured
by ``python3 -m bench``, not here.

Scale: benchmarks honour the ``REPRO_SCALE`` env profile ("small"
default, "medium", "paper") — see ``repro.experiments.scale``.
"""

from __future__ import annotations

import pytest


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


def print_cdf_series(label, comparison, points=12):
    """Print the expected/observed CDF series the paper plots."""
    idx, expected, observed = comparison.series(points)
    print(f"--- {label}: expected vs observed CDF ---")
    print("rank  expected  observed")
    for i, e, o in zip(idx, expected, observed):
        print(f"{int(i):4d}  {e:8.4f}  {o:8.4f}")


@pytest.fixture
def table_printer():
    return print_table


@pytest.fixture
def cdf_printer():
    return print_cdf_series
