"""Tests for shared-nothing execution (the in-place claim): any worker
regenerates any id range of a property table from the seed alone."""

from __future__ import annotations

import numpy as np

from repro.core import GeneratorSpec, GraphGenerator
from repro.core.tasks import property_shard_values
from repro.datasets import social_network_schema


def shard_ranges(count, num_shards):
    """``range(count)`` cut into ``num_shards`` contiguous ranges
    (empty ones when ``num_shards > count``)."""
    cuts = [count * i // num_shards for i in range(num_shards + 1)]
    return list(zip(cuts, cuts[1:]))


def sharded_values(spec, qualified_name, count, seed, num_shards,
                   dependency_columns=()):
    """One independent kernel call per shard (fresh generator and
    stream each, as a remote worker would), concatenated in id order."""
    return np.concatenate([
        property_shard_values(
            spec, f"property:{qualified_name}", seed, start, stop,
            [col[start:stop] for col in dependency_columns],
        )
        for start, stop in shard_ranges(count, num_shards)
    ])


class TestInPlaceGeneration:
    """The distributed-generation claim of Section 4.1: any worker can
    regenerate any id range and the result is bit-identical."""

    def test_sharded_equals_engine_output(self):
        schema = social_network_schema(num_countries=8)
        graph = GraphGenerator(
            schema, {"Person": 400}, seed=77
        ).generate()
        spec = schema.node_type("Person").property_named(
            "country"
        ).generator
        for num_shards in (1, 3, 7, 400):
            sharded = sharded_values(
                spec, "Person.country", 400, 77, num_shards
            )
            assert np.array_equal(
                sharded,
                graph.node_property("Person", "country").values,
            )

    def test_sharded_with_dependencies(self):
        """Conditional properties shard correctly too, given the
        dependency columns."""
        schema = social_network_schema(num_countries=8)
        graph = GraphGenerator(
            schema, {"Person": 300}, seed=5
        ).generate()
        spec = schema.node_type("Person").property_named(
            "name"
        ).generator
        countries = graph.node_property("Person", "country").values
        sexes = graph.node_property("Person", "sex").values
        sharded = sharded_values(
            spec, "Person.name", 300, 5, 6,
            dependency_columns=(countries, sexes),
        )
        assert np.array_equal(
            sharded,
            graph.node_property("Person", "name").values,
        )

    def test_single_row_regeneration(self):
        """The strongest form: regenerate ONE instance from its id."""
        schema = social_network_schema(num_countries=8)
        graph = GraphGenerator(
            schema, {"Person": 200}, seed=13
        ).generate()
        spec = schema.node_type("Person").property_named(
            "creationDate"
        ).generator
        full = graph.node_property("Person", "creationDate").values
        from repro.prng import RandomStream, derive_seed
        from repro.properties.registry import create_property_generator

        stream = RandomStream(
            derive_seed(13, "property:Person.creationDate")
        )
        generator = create_property_generator(spec.name, **spec.params)
        for instance in (0, 57, 199):
            value = generator.run_many(
                np.array([instance], dtype=np.int64), stream
            )[0]
            assert value == full[instance]

    def test_empty_table(self):
        spec = GeneratorSpec(
            "uniform_int", {"low": 0, "high": 3}
        )
        assert len(sharded_values(spec, "T.x", 0, 1, 4)) == 0

    def test_empty_table_keeps_generator_dtype(self):
        """count == 0 must stay bit-identical to single-shot output:
        empty shards carry the generator's dtype, not object."""
        for name, params, in (
            ("uniform_int", {"low": 0, "high": 3}),
            ("uniform_float", {"low": 0.0, "high": 1.0}),
        ):
            spec = GeneratorSpec(name, params)
            sharded = sharded_values(spec, "T.x", 0, 1, 4)
            single = property_shard_values(spec, "property:T.x", 1, 0, 0)
            assert sharded.dtype == single.dtype
            assert np.array_equal(sharded, single)
