"""Property-based tests (hypothesis) on core invariants.

These exercise the load-bearing contracts:

* skip-seed PRNG — random access equals batch access, values in range;
* distributions — pmf validity and exact integer splitting for any
  parameters;
* joint distributions — symmetry/normalisation closure;
* edge tables — transformation invariants (dedup idempotent, relabel
  preserves counts);
* stub pairing — realised degrees never exceed prescriptions;
* SBM-Part — capacities are hard constraints for arbitrary targets;
* DSL tokenizer — never crashes with a non-DslError on arbitrary input.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dsl.errors import DslError
from repro.core.matching import sbm_part_assign
from repro.prng import RandomStream, splitmix64
from repro.stats import (
    Categorical,
    Geometric,
    JointDistribution,
    TruncatedGeometric,
    Zipf,
    empirical_joint,
)
from repro.structure import pair_stubs
from repro.tables import EdgeTable

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


class TestEngineDeterminismProperty:
    @common_settings
    @given(
        seed=st.integers(min_value=0, max_value=2**31),
        persons=st.integers(min_value=60, max_value=120),
    )
    def test_generation_is_seed_deterministic(self, seed, persons):
        """Two engine runs with identical inputs are table-identical."""
        from repro.core import GraphGenerator
        from repro.datasets import social_network_schema

        schema = social_network_schema(num_countries=6)
        a = GraphGenerator(
            schema, {"Person": persons}, seed=seed
        ).generate()
        b = GraphGenerator(
            schema, {"Person": persons}, seed=seed
        ).generate()
        assert a.edges("knows") == b.edges("knows")
        assert np.array_equal(
            a.node_property("Person", "country").values,
            b.node_property("Person", "country").values,
        )


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


@st.composite
def _random_small_schema(draw):
    """A random schema over the chunkable structure generators and
    the full property-generator palette — the shapes the sharded
    executor must reproduce bit-for-bit."""
    from repro.core.schema import (
        Cardinality,
        EdgeType,
        GeneratorSpec,
        NodeType,
        PropertyDef,
        Schema,
    )
    from repro.stats import Zipf

    def random_property(name):
        kind = draw(st.sampled_from(
            ["uniform_int", "categorical_str", "categorical_int",
             "composite_key", "date_range"]
        ))
        if kind == "uniform_int":
            low = draw(st.integers(-100, 100))
            return PropertyDef(name, "long", GeneratorSpec(
                "uniform_int",
                {"low": low, "high": low + draw(st.integers(1, 50))},
            ))
        if kind == "categorical_str":
            k = draw(st.integers(1, 4))
            return PropertyDef(name, "string", GeneratorSpec(
                "categorical",
                {"values": [f"v{j}" for j in range(k)],
                 "weights": [j + 1 for j in range(k)]},
            ))
        if kind == "categorical_int":
            k = draw(st.integers(1, 4))
            return PropertyDef(name, "long", GeneratorSpec(
                "categorical",
                {"values": [10 * j for j in range(k)],
                 "weights": [1] * k},
            ))
        if kind == "composite_key":
            return PropertyDef(name, "string", GeneratorSpec(
                "composite_key", {"prefix": name},
            ))
        return PropertyDef(name, "long", GeneratorSpec(
            "date_range", {"start": 10**9, "end": 2 * 10**9},
        ))

    a_props = [
        random_property(f"p{i}")
        for i in range(draw(st.integers(0, 3)))
    ]
    one_to_many = draw(st.booleans())
    mono = draw(st.booleans()) or not one_to_many
    node_types = [NodeType("A", properties=a_props)]
    if one_to_many:
        node_types.append(NodeType("B", properties=[
            random_property("q0"),
        ]))
    schema = Schema(node_types=node_types)
    if mono:
        edge_props = [
            random_property(f"e{i}")
            for i in range(draw(st.integers(0, 2)))
        ]
        schema.add_edge_type(EdgeType(
            "knows", tail_type="A", head_type="A",
            properties=edge_props,
            structure=GeneratorSpec(
                "erdos_renyi_m",
                {"edges_per_node": draw(st.integers(1, 3))},
            ),
        ))
    if one_to_many:
        schema.add_edge_type(EdgeType(
            "makes", tail_type="A", head_type="B",
            cardinality=Cardinality.ONE_TO_MANY, directed=True,
            structure=GeneratorSpec("one_to_many", {
                "degree_distribution": Zipf(
                    draw(st.floats(min_value=0.5, max_value=2.0)),
                    draw(st.integers(1, 5)),
                ),
                "degree_offset": draw(st.integers(0, 1)),
            }),
        ))
    return schema


class TestShardedEquivalenceProperty:
    """For ANY small schema, seed, shard size and export format, the
    sharded executor → sink → GraphSource round-trip must reproduce
    the serial engine's tables exactly — including the zero-node
    degenerate graph."""

    @settings(
        max_examples=15,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        schema=_random_small_schema(),
        seed=st.integers(min_value=0, max_value=2**31),
        count=st.sampled_from([0, 1, 17, 40]),
        shard_rows=st.sampled_from([7, 64, 10**9]),
        fmt=st.sampled_from(["csv", "jsonl"]),
    )
    def test_source_tables_equal_serial_engine(
        self, schema, seed, count, shard_rows, fmt,
        tmp_path_factory,
    ):
        from repro.core import GraphGenerator, execute_sharded
        from repro.io import export_graph, make_sink, make_source

        root = tmp_path_factory.mktemp("sharded_eq")
        scale = {"A": count}
        serial = GraphGenerator(schema, scale, seed=seed).generate()
        export_graph(serial, make_sink(fmt, root / "ref"))
        execute_sharded(
            schema, scale, seed=seed,
            sink=make_sink(
                fmt, root / "out",
                chunk_size=min(shard_rows, 1000),
            ),
            shard_rows=shard_rows, spool_dir=root / "spool",
        ).cleanup()
        ref_files = sorted(p.name for p in (root / "ref").iterdir())
        out_files = sorted(p.name for p in (root / "out").iterdir())
        assert out_files == ref_files
        for name in ref_files:
            assert (root / "out" / name).read_bytes() == (
                root / "ref" / name
            ).read_bytes(), name
        # Read back through GraphSource whatever the manifest names
        # as standalone tables (csv: one file per property; jsonl
        # groups properties into records, so only edges appear).
        source = make_source(fmt, root / "out")
        serial_props = dict(serial.node_properties)
        serial_props.update(serial.edge_properties)
        for key in source.property_table_names():
            _assert_values_round_tripped(
                np.asarray(source.read_property_table(key).values),
                np.asarray(serial_props[key].values),
            )
        for key in source.edge_table_names():
            back = source.read_edge_table(key)
            table = serial.edge_tables[key]
            assert np.array_equal(back.tails, table.tails), key
            assert np.array_equal(back.heads, table.heads), key


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
