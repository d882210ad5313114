"""Tests for embedded datasets, schema factory options and degree
sequence calibration helpers."""

from __future__ import annotations

import hashlib
import json

import numpy as np
import pytest

from repro.core import checkpoint

from repro.datasets import (
    COUNTRIES,
    INTERESTS,
    NAMES_BY_REGION_SEX,
    REGION_OF_COUNTRY,
    TOPICS,
    VOCABULARY,
    conditional_name_table,
    country_names,
    country_weights,
    social_network_schema,
)
from repro.scenarios import compile_scenario, load_zoo
from repro.stats import homophily_joint
from repro.structure import powerlaw_degree_sequence, solve_powerlaw_xmin
from repro.structure.degree_sequences import expected_mean


class TestDictionaries:
    def test_countries_descending_population(self):
        weights = country_weights()
        # The head is sorted by population (the tail has ties).
        assert weights[0] >= weights[1] >= weights[5]

    def test_country_names_align_with_weights(self):
        assert len(country_names()) == len(country_weights())
        assert len(COUNTRIES) == len(country_names())

    def test_every_mapped_country_exists(self):
        names = set(country_names())
        for country in REGION_OF_COUNTRY:
            assert country in names, country

    def test_name_table_covers_both_sexes(self):
        table = conditional_name_table()
        countries = {key[0] for key in table}
        for country in countries:
            assert (country, "female") in table
            assert (country, "male") in table

    def test_name_lists_nonempty_and_weighted(self):
        table = conditional_name_table()
        for _key, (names, weights) in table.items():
            assert names
            assert len(weights) == len(names)
            assert all(w > 0 for w in weights)

    def test_region_name_pools_disjoint_enough(self):
        # Different regions should have mostly different names — the
        # conditioning is observable.
        anglo = set(NAMES_BY_REGION_SEX[("anglo", "female")])
        east = set(NAMES_BY_REGION_SEX[("east_asia", "female")])
        assert not (anglo & east)

    def test_word_lists(self):
        assert len(TOPICS) >= 10
        assert len(INTERESTS) >= 10
        assert len(VOCABULARY) >= 50
        assert len(set(VOCABULARY)) == len(VOCABULARY)


def _country_joint(affinity, limit=None):
    weights = np.asarray(country_weights()[:limit], dtype=np.float64)
    return homophily_joint(weights / weights.sum(), affinity)


class TestCountryJoint:
    """The running example's ``P'_country(X, Y)``: a homophily joint
    over the country weights."""

    def test_one_category_per_country(self):
        assert _country_joint(0.5).k == len(country_names())

    def test_truncation(self):
        assert _country_joint(0.5, limit=5).k == 5

    def test_affinity_controls_diagonal(self):
        low = _country_joint(0.1)
        high = _country_joint(0.9)
        assert np.trace(high.matrix) > np.trace(low.matrix)

    def test_is_the_schema_joint(self):
        schema = social_network_schema(num_countries=8, affinity=0.3)
        correlation = schema.edge_type("knows").correlation
        assert list(correlation.values) == country_names()[:8]
        np.testing.assert_array_equal(
            correlation.joint.matrix, _country_joint(0.3, limit=8).matrix
        )


#: sha256 of the canonical schema, first 16 hex digits, per set of
#: ``social_network_schema`` arguments — recorded from the hand-built
#: schema the recipe replaced, so output bytes and the resume
#: fingerprint of every configuration stay the same.
SCHEMA_DIGESTS = [
    ({}, "c5ca4496efc3e0ff"),
    ({"num_countries": 6}, "d83fce91d5741388"),
    ({"num_countries": 8}, "80617dd117038dc4"),
    ({"num_countries": 10}, "7b355c0fb2394ee8"),
    ({"num_countries": 12}, "1a8c80ce617f06a8"),
    ({"num_countries": 16}, "86fabcdc8ea4033c"),
    ({"num_countries": 8, "affinity": 0.1}, "810ed90094eceabe"),
    ({"num_countries": 8, "affinity": 0.9}, "215ed22bac73a9bb"),
    ({"num_countries": 8, "structure": "bter", "avg_know_degree": 12},
     "8fa69d025df0948d"),
    ({"num_countries": 8, "avg_know_degree": 8, "max_know_degree": 20},
     "839fac9002c6e5dc"),
]


def _digest(schema):
    text = json.dumps(checkpoint._canonical(schema), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class TestOneDefinition:
    """The running example is the zoo recipe with overrides."""

    @pytest.mark.parametrize("kwargs,digest", SCHEMA_DIGESTS)
    def test_schema_digest(self, kwargs, digest):
        assert _digest(social_network_schema(**kwargs)) == digest

    def test_zoo_recipe_is_the_builder(self):
        zoo = compile_scenario(load_zoo("social_network")).schema
        builder = social_network_schema(num_countries=16,
                                        avg_know_degree=18)
        assert _digest(zoo) == _digest(builder) == "59c0da91503ac39e"


class TestSchemaFactoryOptions:
    def test_bter_structure_variant(self):
        from repro.core import GraphGenerator

        schema = social_network_schema(
            num_countries=8, structure="bter", avg_know_degree=12
        )
        graph = GraphGenerator(
            schema, {"Person": 600}, seed=4
        ).generate()
        assert graph.num_edges("knows") > 0

    def test_degree_knobs_propagate(self):
        schema = social_network_schema(
            num_countries=8, avg_know_degree=8, max_know_degree=20
        )
        params = schema.edge_type("knows").structure.params
        assert params["avg_degree"] == 8
        assert params["max_degree"] == 20

    def test_affinity_propagates(self):
        weak = social_network_schema(num_countries=8, affinity=0.1)
        strong = social_network_schema(num_countries=8, affinity=0.9)
        weak_joint = weak.edge_type("knows").correlation.joint
        strong_joint = strong.edge_type("knows").correlation.joint
        assert np.trace(strong_joint.matrix) > np.trace(
            weak_joint.matrix
        )


class TestDegreeSequenceCalibration:
    def test_expected_mean_monotone_in_xmin(self):
        means = [expected_mean(2.0, xmin, 50) for xmin in (1, 5, 10)]
        assert means[0] < means[1] < means[2]

    def test_solve_xmin_hits_target(self):
        xmin = solve_powerlaw_xmin(2.0, 20.0, 50)
        achieved = expected_mean(2.0, xmin, 50)
        assert abs(achieved - 20.0) < 4.0

    def test_solve_xmin_unreachable_target(self):
        with pytest.raises(ValueError, match="exceeds"):
            solve_powerlaw_xmin(2.0, 100.0, 50)

    def test_sequence_statistics(self, stream):
        degrees = powerlaw_degree_sequence(
            5000, 2.0, 20, 50, stream
        )
        assert degrees.size == 5000
        assert int(degrees.sum()) % 2 == 0
        assert degrees.max() <= 50
        assert 15 <= degrees.mean() <= 25

    def test_max_degree_clamped_to_n(self, stream):
        degrees = powerlaw_degree_sequence(10, 2.0, 4, 50, stream)
        assert degrees.max() <= 9

    def test_explicit_min_degree(self, stream):
        degrees = powerlaw_degree_sequence(
            1000, 2.0, 20, 50, stream, min_degree=10
        )
        assert degrees.min() >= 10

    def test_invalid_gamma(self, stream):
        with pytest.raises(ValueError, match="gamma"):
            powerlaw_degree_sequence(100, 1.0, 10, 20, stream)
