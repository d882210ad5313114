"""Attribute-kernel throughput: batched pipelines vs the frozen legacy
per-row generators.

The acceptance workload of the batched attribute rewrite: every hot
property family at n=100k, timed against the pre-rewrite loops frozen
in ``repro/properties/legacy.py``, with value-identity asserted on
each comparison (the kernels are only fast *because* the goldens prove
they are the same function).  Run with
``--json-out BENCH_properties.json`` to refresh the committed perf
baseline; CI's perf-smoke job regenerates the rows and gates a >2x
``speedup_vs_legacy`` regression.

Rows record the default-impl throughput (C inner loops when a system
compiler exists, numpy otherwise) plus the numpy-only speedup so the
two layers are trackable separately.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from contextlib import contextmanager

import numpy as np

from repro.prng import RandomStream
from repro.properties import (
    create_legacy_generator,
    create_property_generator,
)
from conftest import print_table

N = 100_000

#: The three gated families (>= 10x acceptance) plus the string-
#: assembly generators that ride the same pipelines.
VOCABULARY = [f"word{i:04d}" for i in range(2000)]
TOPICS = [f"topic{i:03d}" for i in range(64)]
COUNTRIES = [f"country{i:02d}" for i in range(12)]
NAME_TABLE = {
    (country, sex): (
        [f"name_{country}_{sex}_{j}" for j in range(30)],
        list(range(30, 0, -1)),
    )
    for country in COUNTRIES
    for sex in ("f", "m")
}

CASES = {
    "text": (
        "text",
        dict(vocabulary=VOCABULARY, min_words=3, max_words=12,
             zipf_exponent=1.0),
        (),
    ),
    "multivalue": (
        "multi_value",
        dict(values=TOPICS, min_size=1, max_size=4, exponent=1.1),
        (),
    ),
    "conditional_categorical": (
        "conditional",
        dict(table=NAME_TABLE),
        ("countries", "sexes"),
    ),
    "categorical": (
        "categorical",
        dict(values=COUNTRIES, weights=list(range(12, 0, -1))),
        (),
    ),
    "uuid": ("uuid", dict(), ()),
}


def _dependencies(tags, ids):
    dep_stream = RandomStream(99, "bench.deps")
    columns = []
    for tag in tags:
        if tag == "countries":
            pool = np.empty(len(COUNTRIES), dtype=object)
            pool[:] = COUNTRIES
            codes = dep_stream.randint(ids, 0, len(COUNTRIES))
        else:
            pool = np.empty(2, dtype=object)
            pool[:] = ["f", "m"]
            codes = dep_stream.substream(tag).randint(ids, 0, 2)
        columns.append(pool[codes])
    return tuple(columns)


@contextmanager
def _forced_impl(impl):
    import repro.properties._ckernel as ck

    previous = os.environ.get("REPRO_PROP_IMPL")
    os.environ["REPRO_PROP_IMPL"] = impl
    ck._load.cache_clear()
    try:
        yield
    finally:
        if previous is None:
            os.environ.pop("REPRO_PROP_IMPL", None)
        else:
            os.environ["REPRO_PROP_IMPL"] = previous
        ck._load.cache_clear()


def _timed(generator, ids, stream, deps):
    start = time.perf_counter()
    values = generator.run_many(ids, stream, *deps)
    return time.perf_counter() - start, values


def test_property_kernel_throughput(bench_recorder):
    """rows/sec + speedup-vs-legacy per property family (identity
    asserted)."""
    from repro.properties._ckernel import resolve_impl

    ids = np.arange(N, dtype=np.int64)
    rows = []
    for label, (name, params, dep_tags) in CASES.items():
        deps = _dependencies(dep_tags, ids)
        stream = RandomStream(7, f"bench.{label}")
        legacy_seconds, legacy_values = _timed(
            create_legacy_generator(name, **params), ids, stream, deps
        )
        with _forced_impl("numpy"):
            numpy_seconds, numpy_values = _timed(
                create_property_generator(name, **params),
                ids, stream, deps,
            )
        default_impl = resolve_impl()
        kernel_seconds, kernel_values = _timed(
            create_property_generator(name, **params),
            ids, stream, deps,
        )
        # Identity is the contract that makes the speedup meaningful.
        assert list(numpy_values) == list(legacy_values), label
        assert list(kernel_values) == list(legacy_values), label
        tracemalloc.start()
        create_property_generator(name, **params).run_many(
            ids, stream, *deps
        )
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        rows.append(
            bench_recorder.record(
                "properties",
                f"{label}.n{N // 1000}k",
                n=N,
                impl=default_impl,
                rows_per_sec=round(N / kernel_seconds, 1),
                seconds=round(kernel_seconds, 4),
                seconds_legacy=round(legacy_seconds, 4),
                speedup_vs_legacy=round(
                    legacy_seconds / kernel_seconds, 2
                ),
                speedup_numpy_vs_legacy=round(
                    legacy_seconds / numpy_seconds, 2
                ),
                tracemalloc_peak_mb=round(peak / 1e6, 2),
            )
        )
    print_table(
        f"A7 — attribute-kernel throughput (n={N}, values asserted "
        "identical to legacy)",
        rows,
    )
    # Never regress below the CI gate's floor on any row; the
    # committed baseline carries the real (>=10x) numbers.
    for row in rows:
        assert row["speedup_vs_legacy"] > 2.0, row


def test_ragged_draw_throughput(bench_recorder):
    """The tentpole primitive on its own: ragged draws vs N substreams."""
    stream = RandomStream(3, "bench.ragged")
    ids = np.arange(N, dtype=np.int64)
    lengths = stream.substream("len").randint(ids, 3, 13)

    start = time.perf_counter()
    flat, offsets = stream.uniform_ragged(ids, lengths)
    batched_seconds = time.perf_counter() - start

    sample = np.arange(0, N, 50, dtype=np.int64)
    start = time.perf_counter()
    for instance in sample.tolist():
        sub = stream.indexed_substream(instance)
        sub.uniform(
            np.arange(int(lengths[instance]), dtype=np.int64)
        )
    legacy_seconds = (time.perf_counter() - start) * (N / sample.size)

    row = bench_recorder.record(
        "properties",
        f"uniform_ragged.n{N // 1000}k",
        n=N,
        draws=int(offsets[-1]),
        rows_per_sec=round(N / batched_seconds, 1),
        seconds=round(batched_seconds, 4),
        speedup_vs_legacy=round(legacy_seconds / batched_seconds, 2),
    )
    print_table("A7+ — ragged PRNG fan-out (extrapolated legacy)", [row])
    assert row["speedup_vs_legacy"] > 2.0
