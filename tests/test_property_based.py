"""Property-based tests (hypothesis) on core invariants.

These exercise the load-bearing contracts:

* skip-seed PRNG — random access equals batch access, values in range;
* distributions — pmf validity and exact integer splitting for any
  parameters;
* joint distributions — symmetry/normalisation closure;
* edge tables — transformation invariants (dedup idempotent, relabel
  preserves counts);
* stub pairing — realised degrees never exceed prescriptions;
* slot owners — the chunked CSR lookup equals a per-id binary search;
* SBM-Part — capacities are hard constraints for arbitrary targets;
* DSL tokenizer — never crashes with a non-DslError on arbitrary input;
* the differential oracle — any schema drawn from the generator
  registries writes the same bytes down every execution path
  (``TestDifferentialOracle``).
"""

from __future__ import annotations

import importlib.util
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import (
    CHECKPOINT_NAME,
    Cardinality,
    CorrelationSpec,
    EdgeType,
    GeneratorSpec,
    GraphGenerator,
    InjectedFault,
    NodeType,
    PropertyDef,
    RunOptions,
    Schema,
    SchemaError,
    ShardedError,
)
from repro.core.dsl.errors import DslError
from repro.core.faults import FAULT_SITES, FaultPlan
from repro.core.matching import sbm_part_assign
from repro.datasets import social_network_schema
from repro.io import export_graph, make_sink, make_source
from repro.planting import PlantingError, compile_plants, plant_world
from repro.prng import RandomStream, splitmix64
from repro.properties import available_property_generators
from repro.scenarios import compile_scenario, load_zoo
from repro.serve import VirtualGraph
from repro.stats import (
    Categorical,
    Geometric,
    JointDistribution,
    TruncatedGeometric,
    Zipf,
    empirical_joint,
    homophily_joint,
)
from repro.structure import available_generators, pair_stubs
from repro.tables import EdgeTable, StringColumn

from test_table_protocol import assert_edge_laws, assert_property_laws

#: ``bench/oracle.py``'s tree digests, loaded from its file (the
#: benchmark package is not installed with the library).
_spec = importlib.util.spec_from_file_location(
    "bench_oracle",
    Path(__file__).resolve().parents[1] / "bench" / "oracle.py",
)
oracle = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle)

common_settings = settings(
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestPrngProperties:
    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**64 - 1),
        index=st.integers(min_value=0, max_value=2**62),
    )
    def test_random_access_consistency(self, seed, index):
        one = int(splitmix64(seed, index))
        batch = splitmix64(seed, np.array([index], dtype=np.uint64))
        assert one == int(batch[0])

    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        n=st.integers(min_value=1, max_value=300),
    )
    def test_uniform_in_unit_interval(self, seed, n):
        u = RandomStream(seed).uniform(np.arange(n))
        assert (u >= 0).all() and (u < 1).all()

    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        n=st.integers(min_value=1, max_value=200),
    )
    def test_permutation_property(self, seed, n):
        perm = RandomStream(seed).permutation(n)
        assert np.array_equal(np.sort(perm), np.arange(n))

    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        ids=st.lists(
            st.integers(min_value=0, max_value=2**32), max_size=40
        ),
    )
    def test_indexed_substream_seeds_matches_scalar(self, seed, ids):
        """Batched substream seeds equal the scalar path — including
        the empty batch, which must keep the uint64 dtype (empty
        serving pages / shards round-trip through it)."""
        stream = RandomStream(seed)
        batched = stream.indexed_substream_seeds(
            np.asarray(ids, dtype=np.int64)
        )
        assert batched.dtype == np.uint64
        assert batched.shape == (len(ids),)
        for position, index in enumerate(ids):
            expected = stream.indexed_substream(index).seed
            assert int(batched[position]) == expected

    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        pairs=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**32),
                st.integers(min_value=0, max_value=12),
            ),
            max_size=25,
        ),
    )
    def test_uniform_ragged_matches_per_instance(self, seed, pairs):
        """Ragged draws equal per-instance substream draws for any id
        set — empty id lists and all-zero lengths included."""
        ids = np.array([p[0] for p in pairs], dtype=np.int64)
        lengths = np.array([p[1] for p in pairs], dtype=np.int64)
        stream = RandomStream(seed, "ragged-pbt")
        flat, offsets = stream.uniform_ragged(ids, lengths)
        assert offsets.shape == (len(pairs) + 1,)
        assert offsets[0] == 0 and offsets[-1] == lengths.sum()
        assert flat.dtype == np.float64
        for j, (index, length) in enumerate(pairs):
            segment = flat[offsets[j]:offsets[j + 1]]
            expected = stream.indexed_substream(index).uniform(
                np.arange(length, dtype=np.int64)
            )
            assert np.array_equal(segment, expected)


class TestDistributionProperties:
    @common_settings
    @given(
        weights=st.lists(
            st.floats(min_value=0.01, max_value=100.0),
            min_size=1,
            max_size=20,
        ),
        n=st.integers(min_value=0, max_value=10_000),
    )
    def test_sizes_always_sum_exactly(self, weights, n):
        sizes = Categorical(weights).sizes(n)
        assert int(sizes.sum()) == n
        assert (sizes >= 0).all()

    @common_settings
    @given(
        p=st.floats(min_value=0.01, max_value=0.99),
        k=st.integers(min_value=1, max_value=64),
    )
    def test_truncated_geometric_valid(self, p, k):
        pmf = TruncatedGeometric(p, k).pmf()
        assert np.isclose(pmf.sum(), 1.0)
        assert (pmf >= 1 / (2 * k * k)).all()  # floor keeps mass positive

    @common_settings
    @given(
        s=st.floats(min_value=0.1, max_value=4.0),
        k=st.integers(min_value=1, max_value=100),
    )
    def test_zipf_monotone(self, s, k):
        pmf = Zipf(s, k).pmf()
        assert (np.diff(pmf) <= 1e-15).all()

    @common_settings
    @given(
        p=st.floats(min_value=0.05, max_value=0.95),
        k=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=2**31),
    )
    def test_sampling_stays_in_support(self, p, k, seed):
        dist = Geometric(p, k)
        draws = dist.sample(RandomStream(seed), np.arange(500))
        assert draws.min() >= 0
        assert draws.max() < k


class TestJointProperties:
    @common_settings
    @given(
        data=st.lists(
            st.lists(
                st.floats(min_value=0.0, max_value=10.0),
                min_size=3,
                max_size=3,
            ),
            min_size=3,
            max_size=3,
        )
    )
    def test_construction_closure(self, data):
        matrix = np.asarray(data)
        if matrix.sum() <= 0:
            return
        joint = JointDistribution(matrix)
        assert np.allclose(joint.matrix, joint.matrix.T)
        assert np.isclose(joint.matrix.sum(), 1.0)
        _pairs, pmf = joint.pair_pmf()
        assert np.isclose(pmf.sum(), 1.0)

    @common_settings
    @given(
        n=st.integers(min_value=2, max_value=50),
        m=st.integers(min_value=1, max_value=100),
        k=st.integers(min_value=1, max_value=5),
        seed=st.integers(min_value=0, max_value=1000),
    )
    def test_empirical_joint_normalised(self, n, m, k, seed):
        rng = np.random.default_rng(seed)
        tails = rng.integers(0, n, m)
        heads = rng.integers(0, n, m)
        labels = rng.integers(0, k, n)
        joint = empirical_joint(tails, heads, labels, k=k)
        assert np.isclose(joint.matrix.sum(), 1.0)


class TestEdgeTableProperties:
    @st.composite
    @staticmethod
    def edge_arrays(draw):
        n = draw(st.integers(min_value=1, max_value=40))
        m = draw(st.integers(min_value=0, max_value=120))
        seed = draw(st.integers(min_value=0, max_value=10_000))
        rng = np.random.default_rng(seed)
        return (
            n,
            rng.integers(0, n, m).astype(np.int64),
            rng.integers(0, n, m).astype(np.int64),
        )

    @common_settings
    @given(data=edge_arrays())
    def test_dedup_idempotent(self, data):
        n, tails, heads = data
        table = EdgeTable("e", tails, heads, num_tail_nodes=n)
        once = table.deduplicated()
        twice = once.deduplicated()
        assert once == twice

    @common_settings
    @given(data=edge_arrays())
    def test_dedup_is_simple(self, data):
        n, tails, heads = data
        simple = EdgeTable(
            "e", tails, heads, num_tail_nodes=n
        ).deduplicated()
        assert (simple.tails != simple.heads).all()
        keys = (np.minimum(simple.tails, simple.heads) * n
                + np.maximum(simple.tails, simple.heads))
        assert np.unique(keys).size == len(simple)

    @common_settings
    @given(data=edge_arrays(), perm_seed=st.integers(0, 1000))
    def test_relabel_by_permutation_preserves_structure(
        self, data, perm_seed
    ):
        n, tails, heads = data
        table = EdgeTable("e", tails, heads, num_tail_nodes=n)
        perm = RandomStream(perm_seed).permutation(n)
        relabeled = table.relabeled(perm)
        assert relabeled.num_edges == table.num_edges
        assert np.array_equal(
            np.sort(relabeled.degrees()), np.sort(table.degrees())
        )


class TestPairStubsProperties:
    @common_settings
    @given(
        degrees=st.lists(
            st.integers(min_value=0, max_value=8),
            min_size=2,
            max_size=60,
        ),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_realised_degrees_bounded(self, degrees, seed):
        degrees = np.asarray(degrees, dtype=np.int64)
        if int(degrees.sum()) % 2:
            degrees[int(np.argmax(degrees))] += 1
        pairs = pair_stubs(degrees, RandomStream(seed), simplify=True)
        if pairs.size:
            realised = np.bincount(
                pairs.ravel(), minlength=degrees.size
            )
            assert (realised <= degrees.size - 1).all()
            # Simplification only removes edges.
            assert realised.sum() <= degrees.sum()


class TestSlotOwnerProperties:
    @common_settings
    @given(
        degrees=st.lists(st.integers(min_value=0, max_value=4),
                         max_size=40),
        data=st.data(),
    )
    def test_equals_per_id_searchsorted(
        self, degrees, data, tmp_path_factory
    ):
        """Zero degrees (``degree_offset=0``) included, any range of
        ids, offsets in RAM or spilled."""
        from repro.io.spool import SpillView
        from repro.structure.base import slot_owners

        offsets = np.concatenate(
            [[0], np.cumsum(degrees, dtype=np.int64)]
        )
        m = int(offsets[-1])
        lo = data.draw(st.integers(0, m), label="lo")
        hi = data.draw(st.integers(lo, m), label="hi")
        path = tmp_path_factory.mktemp("offsets") / "offsets.npy"
        np.save(path, offsets)
        spilled = SpillView(path)
        try:
            for ids in ((lo, hi), (0, m), (lo, lo)):
                expected = np.searchsorted(
                    offsets, np.arange(*ids), side="right"
                ) - 1
                for view in (offsets, spilled):
                    owners = slot_owners(view, *ids)
                    assert owners.dtype == np.int64
                    np.testing.assert_array_equal(owners, expected)
        finally:
            spilled.close()


class TestSbmPartProperties:
    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=1000),
        k=st.integers(min_value=1, max_value=6),
        target_scale=st.floats(min_value=0.0, max_value=100.0),
    )
    def test_capacities_are_hard_constraints(
        self, seed, k, target_scale
    ):
        rng = np.random.default_rng(seed)
        n = 60
        m = 150
        tails = rng.integers(0, n, m).astype(np.int64)
        heads = rng.integers(0, n, m).astype(np.int64)
        table = EdgeTable(
            "e", tails, heads, num_tail_nodes=n
        ).deduplicated()
        sizes = np.zeros(k, dtype=np.int64)
        for i in range(n):
            sizes[rng.integers(0, k)] += 1
        target = rng.random((k, k)) * target_scale
        target = (target + target.T) / 2
        labels = sbm_part_assign(table, sizes, target)
        assert np.array_equal(
            np.bincount(labels, minlength=k), sizes
        )


class TestDslRobustness:
    @common_settings
    @given(text=st.text(max_size=200))
    def test_tokenizer_total(self, text):
        """Arbitrary input either tokenizes or raises DslError —
        never an unexpected exception type."""
        from repro.core.dsl import tokenize

        try:
            tokens = tokenize(text)
        except DslError:
            return
        assert tokens[-1].kind == "EOF"

    @common_settings
    @given(text=st.text(max_size=200))
    def test_parser_total(self, text):
        from repro.core.dsl import parse

        try:
            parse(text)
        except DslError:
            pass


class TestCsvRoundTripProperty:
    @common_settings
    @given(
        values=st.lists(
            st.integers(min_value=-10**12, max_value=10**12),
            min_size=1,
            max_size=50,
        )
    )
    def test_int_property_round_trip(self, values, tmp_path_factory):
        from repro.io import read_property_table, write_property_table
        from repro.tables import PropertyTable

        directory = tmp_path_factory.mktemp("csv")
        table = PropertyTable("t", np.asarray(values, dtype=np.int64))
        path = write_property_table(table, directory / "t.csv")
        back = read_property_table(path, name="t")
        assert np.array_equal(back.values, table.values)

    @common_settings
    @given(
        texts=st.lists(
            st.text(
                alphabet=st.characters(
                    blacklist_categories=("Cs", "Cc")
                ),
                min_size=1,
                max_size=20,
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_string_property_round_trip(self, texts, tmp_path_factory):
        from repro.io import read_property_table, write_property_table
        from repro.tables import PropertyTable

        directory = tmp_path_factory.mktemp("csv")
        table = PropertyTable("t", np.asarray(texts, dtype=object))
        path = write_property_table(table, directory / "t.csv")
        back = read_property_table(path, name="t", dtype="object")
        assert list(back.values) == [str(t) for t in texts]


_ROUND_TRIP_TEXT = st.one_of(
    st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")),
        max_size=12,
    ),
    # Adversarial formatting cases: delimiters, quotes, terminators.
    st.sampled_from(
        ["a,b", 'q"t', "nl\nx", "cr\rx", "", " pad ", "é中文", '"',
         '""', ",", "\r\n"]
    ),
)

_CHUNK_SIZES = st.sampled_from([1, 7, 1000])


@st.composite
def _property_values(draw, none_ok=False):
    """A random PT value array over the supported dtypes: ints,
    floats (NaN/inf included), bools, unicode, object strings (and
    None when ``none_ok``) — empty arrays included."""
    kind = draw(st.sampled_from(
        ["int", "float", "bool", "unicode", "object"]
    ))
    n = draw(st.integers(min_value=0, max_value=25))
    if kind == "int":
        return np.array(
            draw(st.lists(
                st.integers(min_value=-2**62, max_value=2**62),
                min_size=n, max_size=n,
            )),
            dtype=np.int64,
        )
    if kind == "float":
        return np.array(
            draw(st.lists(
                st.floats(allow_nan=True, allow_infinity=True,
                          width=64),
                min_size=n, max_size=n,
            )),
            dtype=np.float64,
        )
    if kind == "bool":
        return np.array(
            draw(st.lists(st.booleans(), min_size=n, max_size=n)),
            dtype=bool,
        )
    if kind == "unicode":
        return np.array(
            draw(st.lists(_ROUND_TRIP_TEXT, min_size=n, max_size=n)),
            dtype="<U16",
        )
    element = (
        st.one_of(st.none(), _ROUND_TRIP_TEXT)
        if none_ok else _ROUND_TRIP_TEXT
    )
    return np.array(
        draw(st.lists(element, min_size=n, max_size=n)), dtype=object
    )


def _assert_values_round_tripped(back, values):
    assert back.dtype == values.dtype
    if values.dtype.kind == "f":
        assert np.array_equal(back, values, equal_nan=True)
    else:
        assert list(back) == list(values)


class TestStreamingRoundTripProperties:
    """write→read must be lossless for every dtype, every format,
    every chunk size — including NaN, unicode, bools, None (JSONL)
    and empty tables."""

    @common_settings
    @given(values=_property_values(), chunk_size=_CHUNK_SIZES)
    def test_csv_property_table(self, values, chunk_size,
                                tmp_path_factory):
        from repro.io import read_property_table, write_property_table
        from repro.tables import PropertyTable

        directory = tmp_path_factory.mktemp("csv_rt")
        table = PropertyTable("t", values)
        path = write_property_table(
            table, directory / "t.csv", chunk_size=chunk_size
        )
        back = read_property_table(
            path, name="t", dtype=values.dtype,
            chunk_size=chunk_size,
        )
        _assert_values_round_tripped(back.values, values)

    @common_settings
    @given(
        values=_property_values(none_ok=True),
        chunk_size=_CHUNK_SIZES,
    )
    def test_jsonl_property_table(self, values, chunk_size,
                                  tmp_path_factory):
        from repro.io import (
            read_property_table_jsonl,
            write_property_table_jsonl,
        )
        from repro.tables import PropertyTable

        directory = tmp_path_factory.mktemp("jsonl_rt")
        table = PropertyTable("t", values)
        path = write_property_table_jsonl(
            table, directory / "t.jsonl", chunk_size=chunk_size
        )
        back = read_property_table_jsonl(
            path, name="t", dtype=values.dtype,
            chunk_size=chunk_size,
        )
        _assert_values_round_tripped(back.values, values)

    @common_settings
    @given(
        values=_property_values(),
        fmt=st.sampled_from(["csv", "jsonl"]),
        compress=st.booleans(),
        chunk_size=_CHUNK_SIZES,
    )
    def test_sink_source_manifest_round_trip(
        self, values, fmt, compress, chunk_size, tmp_path_factory
    ):
        """The manifest carries the dtype, so sources need no hints —
        gzipped or not."""
        from repro.io import make_sink, make_source
        from repro.tables import PropertyTable

        directory = tmp_path_factory.mktemp("sink_rt")
        sink = make_sink(
            fmt, directory, chunk_size=chunk_size, compress=compress
        )
        sink.write_property_table(PropertyTable("T.x", values))
        sink.finish()
        back = make_source(fmt, directory).read_property_table("T.x")
        _assert_values_round_tripped(back.values, values)

    @common_settings
    @given(
        m=st.integers(min_value=0, max_value=60),
        n=st.integers(min_value=1, max_value=40),
        seed=st.integers(min_value=0, max_value=10_000),
        directed=st.booleans(),
        fmt=st.sampled_from(["csv", "jsonl", "edgelist"]),
        chunk_size=_CHUNK_SIZES,
    )
    def test_edge_table_round_trip(
        self, m, n, seed, directed, fmt, chunk_size, tmp_path_factory
    ):
        from repro.io import make_sink, make_source

        rng = np.random.default_rng(seed)
        table = EdgeTable(
            "e",
            rng.integers(0, n, m).astype(np.int64),
            rng.integers(0, n, m).astype(np.int64),
            num_tail_nodes=n,
            directed=directed,
        )
        directory = tmp_path_factory.mktemp("edge_rt")
        sink = make_sink(fmt, directory, chunk_size=chunk_size)
        sink.write_edge_table(table)
        sink.finish()
        back = make_source(fmt, directory).read_edge_table("e")
        assert back == table


_KERNEL_DTYPES = [np.int8, np.int16, np.int32, np.int64, np.uint8,
                  np.uint16, np.uint32, np.uint64, np.bool_]
#: Chunk starts on both sides of a digit boundary of the id column.
_KERNEL_STARTS = st.one_of(
    st.sampled_from([0, 8, 9, 99, 99_998, 99_999, 10**15 - 3]),
    st.integers(0, 2**62),
)


@st.composite
def _integer_columns(draw):
    """Two equal-length columns of one integer dtype, dtype extremes
    over-represented, optionally seen through a strided view."""
    dtype = draw(st.sampled_from(_KERNEL_DTYPES))
    if dtype is np.bool_:
        element = st.booleans()
    else:
        info = np.iinfo(dtype)
        element = st.one_of(
            st.sampled_from([info.min, info.max, 0]),
            st.integers(int(info.min), int(info.max)),
        )
    step = draw(st.sampled_from([1, 2, 3, -1]))
    size = draw(st.integers(0, 40))
    columns = []
    for _ in range(2):
        cells = draw(st.lists(
            element, min_size=size * abs(step), max_size=size * abs(step)
        ))
        columns.append(np.array(cells, dtype=dtype)[::step][:size])
    return columns


class TestTextKernelProperties:
    """The compiled row kernel and the Python assembly it replaces
    produce the same text for every integer column."""

    @common_settings
    @given(columns=_integer_columns(), start=_KERNEL_STARTS)
    def test_kernel_equals_python_path(self, columns, start):
        from unittest import mock

        from repro.io import _ckernel
        from repro.io.chunks import (
            format_edge_csv_chunk,
            format_edgelist_chunk,
            format_property_csv_chunk,
        )

        if _ckernel.load_text_ckernel() is None:
            pytest.skip("no compiled text kernel on this host")
        tails, heads = columns

        def run():
            return (
                format_edge_csv_chunk(start, tails, heads),
                format_edgelist_chunk(tails, heads),
                format_property_csv_chunk(start, tails),
            )

        fast = run()
        with mock.patch.object(
                _ckernel, "load_text_ckernel", lambda: None):
            assert run() == fast
        assert fast[2] == "".join(
            f"{start + i},{v}\r\n" for i, v in enumerate(tails.tolist())
        )


#: Stored dtypes of a plain spool column (raw bytes drawn for all but
#: ``bool``, so NaN payloads and NaT survive or fail bit for bit).
_PART_DTYPES = ["<i8", "<i4", "<u8", "|u1", "<f8", "<f4", "|b1",
                "<M8[ns]", "<M8[D]"]


@st.composite
def _spool_part(draw):
    """One spool part's input: ``("plain", column)`` of any stored
    dtype, ``("object", column)`` (the residual pickled column),
    ``("string", StringColumn)`` with or without codes, or
    ``("edge", (tails, heads))`` — plain and edge columns as strided,
    non-contiguous slices; empty parts included."""
    kind = draw(st.sampled_from(["plain", "object", "string", "edge"]))
    n = draw(st.integers(min_value=0, max_value=25))
    step = draw(st.sampled_from([1, 2, -1, -3]))
    if kind == "object":
        return kind, np.array(draw(st.lists(
            st.one_of(st.none(), st.integers(), _ROUND_TRIP_TEXT),
            min_size=n, max_size=n,
        )) + [0], dtype=object)[:n]
    if kind == "string":
        words = draw(st.lists(_ROUND_TRIP_TEXT, min_size=1, max_size=6))
        column = StringColumn.from_strings(words)
        if draw(st.booleans()):  # a dictionary column: codes kept
            column = column.take(draw(st.lists(
                st.integers(0, len(words) - 1), min_size=len(words),
                max_size=len(words) + n,
            )))
        return kind, column

    def strided(dtype):
        dtype = np.dtype(dtype)
        rows = n * abs(step)
        if dtype.kind == "b":
            base = np.array(draw(st.lists(
                st.booleans(), min_size=rows, max_size=rows)), dtype=bool)
        else:
            base = np.frombuffer(draw(st.binary(
                min_size=rows * dtype.itemsize,
                max_size=rows * dtype.itemsize,
            )), dtype=dtype)
        return base[::step]

    if kind == "edge":
        return kind, (strided("<i8"), strided("<i8"))
    return kind, strided(draw(st.sampled_from(_PART_DTYPES)))


class TestSpoolShardProperties:
    """Spooled tables must round-trip every supported value dtype —
    ints, floats, bools, unicode, object strings, empty arrays — for
    any shard split, since the sharded executor funnels every
    property table through the spool."""

    @common_settings
    @given(
        values=_property_values(),
        shard_rows=st.sampled_from([1, 3, 1000]),
    )
    def test_property_spool_round_trip(
        self, values, shard_rows, tmp_path_factory
    ):
        from repro.io.spool import TableSpool

        spool = TableSpool(
            tmp_path_factory.mktemp("spool"), shard_rows
        )
        for index, (start, stop) in enumerate(
            spool.shard_bounds(len(values))
        ):
            spool.write_property_shard(
                "T.x", index, values[start:stop]
            )
        table = spool.finish_property("T.x")
        assert len(table) == len(values)
        _assert_values_round_tripped(
            np.asarray(table.values), values
        )
        if len(values):
            mid = len(values) // 2
            _assert_values_round_tripped(
                table.read_range(mid, len(values)), values[mid:]
            )
            order = np.arange(len(values) - 1, -1, -1)
            _assert_values_round_tripped(
                table.gather(order), values[order]
            )
        spool.cleanup()

    @common_settings
    @given(part=_spool_part())
    def test_part_round_trip(self, part, tmp_path_factory):
        """One part file holds a shard's columns as raw bytes that the
        ack's layout reads back — equal, writable, and under a digest
        taken from the bytes as they were written: the writer opens
        the file once, to write it, and ``verify_digest`` agrees."""
        from repro.io import spool as spool_module

        kind, values = part
        spool = spool_module.TableSpool(tmp_path_factory.mktemp("part"), 64)
        opened = []

        def recording_open(path, mode="r", *args, **kwargs):
            handle = open(path, mode, *args, **kwargs)
            opened.append(mode)
            return handle

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(spool_module, "open", recording_open,
                          raising=False)
            if kind == "edge":
                meta = spool.save_edge_part(0, "e", *values)
            else:
                meta = spool.save_property_part(0, "T.x", values)
        assert opened == ["wb"]
        spool_module._check_event(
            {"event": "ack", "table": "k", "shard": 0, **meta}
        )
        (digest,) = meta["files"]
        assert spool_module.verify_digest(spool.directory, digest)
        back = spool_module._read_part(
            spool.directory / digest["path"], meta["columns"]
        )
        assert all(array.flags.writeable for array in back)
        if kind == "edge":
            assert [b.tobytes() for b in back] == [
                np.ascontiguousarray(v).tobytes() for v in values
            ]
            assert all(b.dtype == np.int64 for b in back)
        elif kind == "string":
            packed = values.packed()
            assert len(back) == (2 if packed.codes is None else 3)
            assert StringColumn(*back).tolist() == values.tolist()
        elif kind == "object":
            (column,) = back
            assert meta["columns"][0][0] == "pickle"
            assert column.dtype == object and list(column) == list(values)
        else:
            (column,) = back
            assert column.dtype == values.dtype
            assert column.tobytes() == values.tobytes()
        spool.cleanup()


# -- the differential oracle ------------------------------------------------
#
# One strategy draws a small schema from the structure and property
# registries; one test runs every draw down every execution path and
# holds each path's export to the serial run's bytes and each of its
# tables to the table-protocol laws.


def _formula(value):
    """The ``formula`` PG's function (module level: the process
    backend pickles it by reference)."""
    return int(value) * 3 + 1


def _string_categorical(draw, deps):
    k = draw(st.integers(1, 3))
    values = [f"c{j}" for j in range(k)]
    weights = list(range(1, k + 1))
    return "string", {"values": values, "weights": weights}, (
        "cat", values)


def _categorical(draw, deps):
    if draw(st.booleans()):
        return _string_categorical(draw, deps)
    values = [10 * j for j in range(draw(st.integers(1, 3)))]
    return "long", {"values": values}, ("cat", values)


def _conditional(draw, deps):
    (_, keys), = deps
    table = {key: ([f"{key}a", f"{key}b"], [2, 1]) for key in keys}
    values = sorted(v for options, _ in table.values() for v in options)
    return "string", {"table": table, "default": (["z"], None)}, (
        "cat", values + ["z"])


def _lookup(draw, deps):
    (_, keys), = deps
    mapping = {key: f"<{key}>" for key in keys[:-1]}  # last: default
    return "string", {"mapping": mapping, "default": "?"}, (
        "cat", sorted(mapping.values()) + ["?"])


def _date_range(draw, deps):
    params = {"start": 10**9, "end": 10**9 + draw(st.integers(1, 10**8))}
    if draw(st.booleans()):
        params["granularity"] = "day"
    return "date", params, ("date", None)


def _root(dtype, kind, **params):
    """A palette entry with no dependencies and fixed parameters."""
    return (), 0, lambda draw, deps: (dtype, params, (kind, None))


#: A text vocabulary with the bytes exporters must quote or escape.
_WORDS = ["alpha", "b,c", 'q"t', "naïve", "日本", "x\ny"]

#: PG name -> (column kinds its dependencies are drawn from — none for
#: a root —, how many at most, ``build(draw, dep_columns)`` returning
#: ``(dtype, params, column)``).  A column is ``(kind, categories)``.
_PROPERTY_PALETTE = {
    "categorical": ((), 0, _categorical),
    "conditional": (("cat",), 1, _conditional),
    "lookup": (("cat",), 1, _lookup),
    "weighted_dict": ((), 0, lambda draw, deps: (
        "string", {"values": ["t0", "t1", "t2"], "exponent": 1.2},
        ("cat", ["t0", "t1", "t2"]))),
    "template": (("cat", "int", "float", "date", "text"), 2,
                 lambda draw, deps: ("string", {"template": "".join(
                     f"{{{j}}}," for j in range(len(deps))) + "#{id}"},
                     ("text", None))),
    "after_dependency": (("date",), 2, lambda draw, deps: (
        "date", {"min_gap": 1, "max_gap": draw(st.integers(2, 10**6))},
        ("date", None))),
    "formula": (("int",), 1, lambda draw, deps: (
        "long", {"function": _formula, "dtype": "int64"}, ("int", None))),
    "date_range": ((), 0, _date_range),
    "uniform_int": ((), 0, lambda draw, deps: (
        "long", {"low": -5, "high": draw(st.integers(-4, 90))},
        ("int", None))),
    "zipf_int": ((), 0, lambda draw, deps: (
        "long", {"k": draw(st.integers(1, 20)), "exponent": 1.3},
        ("int", None))),
    "sequence": ((), 0, lambda draw, deps: (
        "long", {"start": 100, "step": draw(st.sampled_from([-3, 1, 7]))},
        ("int", None))),
    "uniform_float": _root("double", "float", low=-1.5, high=2.5),
    "normal": _root("double", "float", mean=10.0, std=3.0),
    "uuid": ((), 0, lambda draw, deps: (
        "string", {"time_ordered": draw(st.booleans())}, ("text", None))),
    "composite_key": _root("string", "text", prefix="k"),
    "text": ((), 0, lambda draw, deps: (
        "string", {"vocabulary": _WORDS, "min_words": 1, "max_words": 4,
                   "zipf_exponent": draw(st.sampled_from([0.0, 1.1]))},
        ("text", None))),
    "multi_value": ((), 0, lambda draw, deps: (
        "string", {"values": list("abcdef"), "min_size": 1,
                   "max_size": 3, "exponent": 1.2}, ("set", None))),
}


#: The root columns every drawn ``A`` starts with: one ragged string
#: column (``text``) and one dictionary string column (a ``str``
#: ``categorical``), so every leg generates, spools, resumes and
#: exports both shapes of :class:`~repro.tables.StringColumn`.
_STRING_COLUMNS = (
    ("text", _PROPERTY_PALETTE["text"][2]),
    ("categorical", _string_categorical),
)


def _properties(draw, prefix, inputs, most, required=()):
    """The ``required`` ``(pg, build)`` roots, then up to ``most``
    properties drawn from the palette, each free to depend on
    ``inputs`` (``{reference: column}`` — an edge type's ``tail.x`` /
    ``head.x`` endpoint columns) and on the ones drawn before it.
    Returns the declarations and ``{name: column}``."""
    columns, props, own = dict(inputs), [], {}
    picks = [*required, *[None] * draw(st.integers(0, most))]
    for j, pick in enumerate(picks):
        if pick is not None:
            (pg, build), kinds = pick, ()
        else:
            pg = draw(st.sampled_from([
                name
                for name, (kinds, _, _) in sorted(_PROPERTY_PALETTE.items())
                if not kinds or any(c[0] in kinds for c in columns.values())
            ]))
            kinds, most_deps, build = _PROPERTY_PALETTE[pg]
        deps = draw(st.lists(st.sampled_from(sorted(
            ref for ref, c in columns.items() if c[0] in kinds
        )), min_size=1, max_size=most_deps, unique=True)) if kinds else []
        dtype, params, column = build(draw, [columns[d] for d in deps])
        name = f"{prefix}{j}"
        props.append(PropertyDef(
            name, dtype, GeneratorSpec(pg, params), depends_on=deps,
        ))
        columns[name] = own[name] = column
    return props, own


#: SG name -> (endpoint shape, parameters or a draw of them): ``mono``
#: edges join A to A, ``bipartite`` ones A to B many-to-many, ``strict``
#: ones A to B one-to-many / one-to-one (B counted from the structure).
_STRUCTURE_PALETTE = {
    "erdos_renyi": ("mono", lambda draw: {
        "p": draw(st.sampled_from([0.05, 0.2]))}),
    "erdos_renyi_m": ("mono", lambda draw: {
        "edges_per_node": draw(st.integers(1, 3))}),
    "rmat": ("mono", lambda draw: {
        "edge_factor": draw(st.integers(1, 3)),
        "simplify": draw(st.booleans())}),
    "sbm": ("mono", {"fractions": [0.5, 0.5],
                     "probabilities": [[0.3, 0.05], [0.05, 0.3]]}),
    "kronecker": ("mono", {"initiator": [[0.9, 0.5], [0.5, 0.2]],
                           "edge_factor": 2}),
    "lfr": ("mono", {"avg_degree": 4, "max_degree": 8, "mu": 0.2,
                     "min_community": 4, "max_community": 12}),
    "bter": ("mono", {"avg_degree": 3, "max_degree": 8}),
    "darwini": ("mono", {"avg_degree": 3, "max_degree": 8}),
    "empirical_degrees": ("mono", {"degrees": [1, 2, 2, 3, 5]}),
    "configuration": ("mono", lambda draw: {
        "distribution": Zipf(1.5, 6), "simplify": draw(st.booleans())}),
    "forest_fire": ("mono", {"p": 0.3}),
    "hyperbolic": ("mono", {"avg_degree": 3}),
    "barabasi_albert": ("mono", lambda draw: {
        "m": draw(st.integers(1, 3))}),
    "watts_strogatz": ("mono", {"k": 2, "beta": 0.1}),
    "cascade_forest": ("mono", {"num_cascades": 3, "depth_bias": 1.0}),
    "attributed_sbm": ("mono", {
        "joint": homophily_joint(np.full(2, 0.5), 0.7), "avg_degree": 3}),
    "bipartite_configuration": ("bipartite", lambda draw: {
        "tail_distribution": Zipf(1.2, 4),
        "head_distribution": Zipf(1.2, 4),
        "tail_offset": 1, "head_offset": 1,
        "head_nodes": draw(st.sampled_from([0, 1, 24]))}),
    "one_to_many": ("strict", lambda draw: {
        "degree_distribution": Zipf(
            draw(st.floats(min_value=0.5, max_value=2.0)),
            draw(st.integers(1, 5)),
        ),
        "degree_offset": draw(st.integers(0, 1))}),
    "one_to_one": ("strict", lambda draw: {
        "shuffled": draw(st.booleans())}),
}


def _structure(draw, name):
    params = _STRUCTURE_PALETTE[name][1]
    return GeneratorSpec(name, params(draw) if callable(params) else params)


def _categories(columns):
    return sorted(name for name, (kind, _) in columns.items() if kind == "cat")


def _correlation(draw, tail_columns, head_columns):
    """A correlated matching over a categorical endpoint column (both
    ends for a bipartite edge), or ``None``."""
    tails = _categories(tail_columns)
    heads = None if head_columns is None else _categories(head_columns)
    if not tails or heads == [] or not draw(st.booleans()):
        return None
    tail = draw(st.sampled_from(tails))
    values = tail_columns[tail][1]
    if heads is None:
        joint = homophily_joint(
            np.full(len(values), 1 / len(values)),
            draw(st.sampled_from([0.0, 0.8])),
        )
        return CorrelationSpec(tail, joint, values=tuple(values))
    head = draw(st.sampled_from(heads))
    joint = np.ones((len(values), len(head_columns[head][1])))
    np.fill_diagonal(joint, 4.0)
    return CorrelationSpec(
        tail, joint / joint.sum(), head_property=head,
        values=tuple(values), head_values=tuple(head_columns[head][1]),
    )


def _plants(draw, schema, a_columns, seed):
    """A ``plants:`` block over edge type ``e``, compiled — or none."""
    if not draw(st.booleans()):
        return []
    forced = _categories(a_columns)
    name = draw(st.sampled_from(forced)) if forced else None
    return compile_plants({"p": {
        "edge": "e",
        "template": {
            "kind": draw(st.sampled_from(
                ["ring", "star", "clique", "path", "tree"]
            )),
            "size": draw(st.integers(3, 4)),
        },
        "count": draw(st.integers(1, 2)),
        "attributes": {name: a_columns[name][1][0]} if name else {},
        "noise": {"rewire": draw(st.sampled_from([0.0, 0.3]))},
    }}, schema, seed)


@dataclass
class Draw:
    """One oracle input: what to generate, and how to run the legs."""

    schema: Schema
    scale: dict
    seed: int = 0
    plants: list = field(default_factory=list)
    fmt: str = "csv"
    compress: bool = False
    chunk_size: int = 1000
    shard_rows: int = 64
    workers: int = 2
    fault: str = "ledger:1:crash"
    resume_backend: str = "thread"

    def _repr_pretty_(self, printer, cycle):
        # How hypothesis prints a falsifying draw: every declaration.
        printer.text(repr({
            **vars(self), "plants": [p.name for p in self.plants],
            "schema": [*self.schema.node_types.values(),
                       *self.schema.edge_types.values()],
        }))


@st.composite
def _random_small_schema(draw):
    """A random schema over the structure and property registries —
    chunkable and sequential structures, dependency chains (``tail.x``
    / ``head.x`` included), correlated matchings, plants, node or edge
    scale anchors down to 0 and 1 — and a random way to run it."""
    structure = draw(st.sampled_from(sorted(_STRUCTURE_PALETTE)))
    shape = _STRUCTURE_PALETTE[structure][0]
    a_props, a_columns = _properties(draw, "a", {}, 3, _STRING_COLUMNS)
    schema = Schema(node_types=[NodeType("A", properties=a_props)])
    b_columns = None
    if shape != "mono":
        b_props, b_columns = _properties(draw, "b", {}, 2)
        schema.add_node_type(NodeType("B", properties=b_props))
    inputs = {f"tail.{k}": c for k, c in a_columns.items()}
    inputs.update({
        f"head.{k}": c
        for k, c in (a_columns if b_columns is None else b_columns).items()
    })
    schema.add_edge_type(EdgeType(
        "e", "A", "A" if shape == "mono" else "B",
        cardinality={
            "one_to_many": Cardinality.ONE_TO_MANY,
            "one_to_one": Cardinality.ONE_TO_ONE,
        }.get(structure, Cardinality.MANY_TO_MANY),
        structure=_structure(draw, structure),
        properties=_properties(draw, "w", inputs, 2)[0],
        correlation=_correlation(draw, a_columns, b_columns),
        directed=shape != "mono" or draw(st.booleans()),
    ))
    if draw(st.booleans()):
        # A second matching over A: two edge tables, one id space.
        schema.add_edge_type(EdgeType(
            "f", "A", "A",
            structure=_structure(draw, draw(st.sampled_from(sorted(
                name for name, (kind, _) in _STRUCTURE_PALETTE.items()
                if kind == "mono"
            )))),
            properties=_properties(draw, "v", {
                f"tail.{k}": c for k, c in a_columns.items()
            }, 1)[0],
        ))
    scale = {draw(st.sampled_from(["A", "e"])): draw(
        st.sampled_from([16, 40, 64, 40, 0, 1])
    )}
    if shape == "bipartite":  # many-to-many heads are counted by scale
        scale["B"] = schema.edge_type("e").structure.params["head_nodes"]
    seed = draw(st.integers(0, 2**31))
    return Draw(
        schema, scale, seed,
        plants=_plants(draw, schema, a_columns, seed)
        if shape == "mono" else [],
        fmt=draw(st.sampled_from(["csv", "jsonl", "edgelist", "graphml"])),
        compress=draw(st.booleans()),
        chunk_size=draw(st.sampled_from([7, 1000])),
        shard_rows=draw(st.sampled_from([5, 16, 1000])),
        workers=draw(st.sampled_from([1, 2, 4])),
        fault=f"{draw(st.sampled_from(FAULT_SITES))}:"
              f"{draw(st.integers(0, 3))}:"
              f"{draw(st.sampled_from(['crash', 'ioerror']))}",
        resume_backend=draw(st.sampled_from(["thread", "process"])),
    )


# -- the legs: one context manager per execution path, yielding the
# finished graph (planted as the exporters plant it) after its export
# landed in ``out``.


def _sink(case, out, chunk_size=None):
    return make_sink(
        case.fmt, out, chunk_size=chunk_size or case.chunk_size,
        compress=case.compress,
    )


def _streaming_sink(case, out):
    """Unplanted runs stream their export during generation; planted
    ones export the overlay afterwards (plants append edges)."""
    return None if case.plants else _sink(case, out)


def _finish(case, graph, out):
    if case.plants:
        graph, _ = plant_world(graph, case.plants, case.seed)
        export_graph(graph, _sink(case, out))
    return graph


@contextmanager
def _in_memory(case, out, options=None, **env):
    """The in-memory engine run with ``options`` under the environment
    ``env``, streaming its export during generation."""
    with pytest.MonkeyPatch.context() as patch:
        for name, value in env.items():
            patch.setenv(name, value)
        graph = GraphGenerator(
            case.schema, case.scale, case.seed
        ).generate(_streaming_sink(case, out), options)
        yield _finish(case, graph, out)


def _sharded_run(case, out, backend, **options):
    return GraphGenerator(case.schema, case.scale, case.seed).generate(
        _streaming_sink(case, out), RunOptions(
            shard_rows=case.shard_rows, workers=case.workers,
            backend=backend, spool_dir=f"{out}.spool", **options,
        ),
    )


@contextmanager
def _sharded(case, out, backend):
    result = _sharded_run(case, out, backend)
    try:
        yield _finish(case, result, out)
    finally:
        result.cleanup()


@contextmanager
def _resumed(case, out, reference=None):
    """Crash at ``case.fault`` (if the run gets that far), then resume
    from the catalog the crash left.  Given the serial ``reference``,
    the fault must fire, and leave an export short of it."""
    plan = FaultPlan(case.fault)
    try:
        _sharded_run(
            case, out, case.resume_backend, faults=plan
        ).spool.close_views()
    except (InjectedFault, OSError, ShardedError):
        assert plan.fired_count(plan.specs[0]), "raised, but not the fault"
        assert (Path(f"{out}.spool") / CHECKPOINT_NAME).exists()
        assert oracle.tree_digests(out) != reference
    else:
        assert reference is None, f"{case.fault} never fired"
    finally:
        plan.cleanup()
    with _sharded(case, out, case.resume_backend) as graph:
        yield graph


@contextmanager
def _served(case, out):
    served = VirtualGraph(
        case.schema, case.scale, case.seed, chunk_rows=case.shard_rows,
        plants=case.plants,
    )
    try:
        export_graph(served.graph, _sink(case, out))
        yield served.graph
    finally:
        served.close()


#: Every path but the serial reference, by export directory name.
LEGS = {
    "no-ckernel": lambda case, out: _in_memory(
        case, out, REPRO_NO_CKERNEL="1"
    ),
    "windowed": lambda case, out: _in_memory(
        case, out, RunOptions(workers=case.workers)
    ),
    "sharded-thread": lambda case, out: _sharded(case, out, "thread"),
    "sharded-process": lambda case, out: _sharded(case, out, "process"),
    "served": _served,
    "resumed": _resumed,
}


def _assert_leg_agrees(leg, case, out, reference, expected):
    """A leg writes the serial ``reference`` digests — every table it
    produced held to the protocol laws against the serial ``expected``
    tables first — or raises the serial run's structured error."""
    try:
        with leg(case, out) as graph:
            if expected is not None:
                _hold_to_laws(graph, expected)
    except (SchemaError, PlantingError) as exc:
        assert f"{type(exc).__name__}: {exc}" == reference
        return
    assert expected is not None, f"the serial run raised {reference}"
    assert oracle.tree_mismatches(reference, oracle.tree_digests(out)) == []


def _hold_to_laws(graph, expected):
    assert graph.node_counts == expected.node_counts
    for mine, theirs in (
        (graph.node_properties, expected.node_properties),
        (graph.edge_properties, expected.edge_properties),
    ):
        assert list(mine) == list(theirs)
        for key, table in mine.items():
            assert_property_laws(table, np.asarray(theirs[key].values))
    assert list(graph.edge_tables) == list(expected.edge_tables)
    for key, table in graph.edge_tables.items():
        assert_edge_laws(table, expected.edge_tables[key])


def _reference(case, out):
    """The serial run's export digests — written after the fact, in
    whole-table chunks — and its tables, or its structured error."""
    try:
        graph = GraphGenerator(
            case.schema, case.scale, case.seed
        ).generate()
        if case.plants:
            graph, _ = plant_world(graph, case.plants, case.seed)
        export_graph(graph, _sink(case, out, chunk_size=10**9))
    except (SchemaError, PlantingError) as exc:
        return f"{type(exc).__name__}: {exc}", None
    return oracle.tree_digests(out), graph.materialize()


def _assert_source_reads_back(case, out, expected):
    """CSV / JSONL / edge-list exports read back to the serial tables."""
    if case.fmt == "graphml":
        return
    source = make_source(case.fmt, out)
    tables = {**expected.node_properties, **expected.edge_properties}
    for key in source.property_table_names():
        values = np.array(tables[key].values)  # a copy: edited below
        for i, value in enumerate(values):
            if isinstance(value, tuple):
                # Multi-value sets leave as text (CSV) or lists (JSONL).
                values[i] = str(value) if case.fmt == "csv" else list(value)
        _assert_values_round_tripped(
            np.asarray(source.read_property_table(key).values), values,
        )
    for key in source.edge_table_names():
        back = source.read_edge_table(key)
        assert np.array_equal(back.tails, expected.edge_tables[key].tails)
        assert np.array_equal(back.heads, expected.edge_tables[key].heads)


def _zoo(name, scale, **run):
    compiled = compile_scenario(load_zoo(name), scale=scale)
    return Draw(compiled.schema, compiled.scale, compiled.seed,
                plants=compiled.plants, **run)


def _one_edge(structure, params, head="A", a_props=(), **edge):
    """``A`` (with ``a_props``) joined to ``head`` by edge type ``e``."""
    return Schema(
        node_types=[NodeType("A", properties=list(a_props))]
        + ([NodeType("B")] if head == "B" else []),
        edge_types=[EdgeType(
            "e", "A", head, structure=GeneratorSpec(structure, params),
            **edge,
        )],
    )


_UNIFORM = PropertyDef("x", "long", GeneratorSpec(
    "uniform_int", {"low": 0, "high": 100}
))

#: Every fixed draw the oracle runs on each pass, by test id.  First the
#: inputs of the per-path byte matrices it replaced — zoo recipes with
#: chunkable and sequential structures, strict cardinality, both
#: correlated matchings and plants; the running example; an edge-count
#: anchor; the crash matrix's schema; two independent structures, one
#: correlated, to keep two threads busy — each with a fault that fires,
#: at one, two or four workers.  Then the counterexamples it shrank to: a
#: correlated matching of an empty graph (the served path skipped it,
#: the others raised), and scales their generator cannot make, which
#: raised a bare ``ValueError`` from inside it, not a ``SchemaError``.
PINNED = {
    "social-recipe": _zoo(
        "social_network", {"Person": 220}, fmt="graphml", compress=True,
        shard_rows=97, workers=4, fault="count:0:crash",
    ),
    "rmat-recipe": _zoo(
        "web_graph_rmat", {"Page": 512}, fmt="jsonl", shard_rows=97,
        fault="structure:0:crash", resume_backend="process",
    ),
    "recommender-recipe": _zoo(
        "recommender_bipartite", {"User": 400, "Item": 200},
        compress=True, shard_rows=101, workers=4, fault="match:1:crash",
        resume_backend="process",
    ),
    "planted-recipe": _zoo(
        "fraud_ring_social", {"Person": 300}, fault="spill:0:crash"
    ),
    "running-example": Draw(
        social_network_schema(num_countries=8), {"Person": 400}, 23,
        fmt="edgelist", chunk_size=7, workers=1, fault="property:1:crash",
    ),
    "edge-anchor": Draw(_one_edge(
        "erdos_renyi_m", {"edges_per_node": 4}, a_props=[_UNIFORM]
    ), {"e": 1000}, 6, compress=True, fault="export:2:ioerror"),
    "crash-matrix": Draw(_one_edge(
        "erdos_renyi_m", {"edges_per_node": 3}, a_props=[_UNIFORM]
    ), {"A": 200}, workers=1, fault="ledger:1:crash",
        resume_backend="process"),
    "overlapped": Draw(Schema(
        node_types=[NodeType("A", properties=[_UNIFORM, PropertyDef(
            "c", "long", GeneratorSpec("categorical", {"values": [0, 1, 2]})
        )])],
        edge_types=[
            EdgeType("e", "A", "A", structure=GeneratorSpec("lfr", {
                "avg_degree": 8, "max_degree": 24, "mu": 0.2,
            }), correlation=CorrelationSpec(
                "c", homophily_joint(np.full(3, 1 / 3), 0.8),
                values=(0, 1, 2),
            )),
            EdgeType("f", "A", "A", structure=GeneratorSpec(
                "erdos_renyi_m", {"edges_per_node": 4}
            ), properties=[_UNIFORM]),
        ],
    ), {"A": 3000}, 11, shard_rows=997, workers=2,
        fault="structure:1:crash"),
    "empty-correlated": Draw(_one_edge(
        "attributed_sbm",
        {"joint": homophily_joint(np.full(2, 0.5), 0.7), "avg_degree": 3},
        a_props=[PropertyDef("a0", "long", GeneratorSpec(
            "categorical", {"values": [0]}
        ))],
        correlation=CorrelationSpec(
            "a0", homophily_joint(np.ones(1), 0.0), values=(0,)
        ),
    ), {"A": 0}),
    "no-heads": Draw(_one_edge("bipartite_configuration", {
        "tail_distribution": Zipf(1.2, 4),
        "head_distribution": Zipf(1.2, 4),
        "tail_offset": 1, "head_offset": 1, "head_nodes": 0,
    }, head="B", directed=True), {"A": 1, "B": 0}),
    "no-edges-to-anchor": Draw(_one_edge(
        "one_to_many", {"degree_distribution": Zipf(0.5, 1)}, head="B",
        cardinality=Cardinality.ONE_TO_MANY, directed=True,
    ), {"e": 16}),
    "too-few-for-degrees": Draw(
        _one_edge("bter", {"avg_degree": 3, "max_degree": 8}), {"A": 2}
    ),
    "not-a-power": Draw(_one_edge(
        "kronecker", {"initiator": [[0.9, 0.5], [0.5, 0.2]]}
    ), {"A": 40}),
}


@pytest.fixture(scope="module", params=list(PINNED))
def pinned(request, tmp_path_factory):
    """A pinned draw, its export root, and its serial reference — run
    once for all of its legs."""
    case = PINNED[request.param]
    root = tmp_path_factory.mktemp(request.param)
    return (case, root, *_reference(case, root / "serial"))


class TestDifferentialOracle:
    """For any drawn schema every execution path in ``LEGS`` writes the
    serial run's bytes — or raises the serial run's structured error —
    and every table it produces obeys the table-protocol laws.

    A counterexample hypothesis shrinks to is pinned by writing its
    draw out as one more entry of ``PINNED`` (or as a golden fixture,
    when the fix changes bytes on purpose); each pinned draw runs down
    every leg as its own test."""

    def test_palettes_cover_the_registries(self):
        """The strategy draws every registered generator: a new one
        joins the oracle by joining a palette."""
        assert set(_PROPERTY_PALETTE) == set(
            available_property_generators()
        )
        assert set(_STRUCTURE_PALETTE) == set(available_generators())

    @settings(
        max_examples=12,
        derandomize=True,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(case=_random_small_schema())
    def test_every_leg_matches_the_serial_run(self, case,
                                              tmp_path_factory):
        root = tmp_path_factory.mktemp("oracle")
        reference, expected = _reference(case, root / "serial")
        if expected is not None:
            _assert_source_reads_back(case, root / "serial", expected)
        for name, leg in LEGS.items():
            try:
                _assert_leg_agrees(leg, case, root / name, reference,
                                   expected)
            except AssertionError as exc:
                raise AssertionError(name) from exc

    def test_pinned_export_reads_back(self, pinned):
        case, root, _, expected = pinned
        if expected is not None:
            _assert_source_reads_back(case, root / "serial", expected)

    @pytest.mark.parametrize("leg", list(LEGS))
    def test_pinned_leg_matches_the_serial_run(self, pinned, leg):
        """A pinned draw's fault fires: its resume is a real one."""
        case, root, reference, expected = pinned
        run = LEGS[leg] if leg != "resumed" else (
            lambda case, out: _resumed(case, out, reference)
        )
        _assert_leg_agrees(run, case, root / leg, reference, expected)


class TestMixingMatrixProperty:
    @common_settings
    @given(
        n=st.integers(min_value=2, max_value=40),
        m=st.integers(min_value=1, max_value=100),
        k=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=5000),
    )
    def test_total_mass_equals_edge_count(self, n, m, k, seed):
        """diag + off-diag/2 must equal m for any labelling."""
        from repro.partitioning import mixing_matrix

        rng = np.random.default_rng(seed)
        tails = rng.integers(0, n, m).astype(np.int64)
        heads = rng.integers(0, n, m).astype(np.int64)
        table = EdgeTable("e", tails, heads, num_tail_nodes=n)
        labels = rng.integers(0, k, n).astype(np.int64)
        w = mixing_matrix(table, labels, k=k)
        diag = float(np.trace(w))
        off = float((w.sum() - diag) / 2)
        assert diag + off == pytest.approx(table.num_edges)
