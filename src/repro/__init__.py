"""repro: a reproduction of *Towards a property graph generator for
benchmarking* (Prat-Pérez et al., 2017) — the DataSynth framework.

The package implements, in pure Python (numpy-vectorised):

* the DataSynth generation pipeline — text scenario recipes
  (:mod:`repro.scenarios`), dependency analysis,
  in-place property generation over skip-seed PRNG streams, pluggable
  structure generators, and the SBM-Part property-to-node matching
  algorithm (:mod:`repro.core`);
* every structure generator the paper references: R-MAT, LFR, BTER,
  Darwini, plus standard baselines (:mod:`repro.structure`);
* the LDG streaming partitioner and partition metrics
  (:mod:`repro.partitioning`);
* the statistical substrate: distributions, joint distributions,
  CDF comparison metrics (:mod:`repro.stats`);
* the evaluation protocol of Figures 3 and 4 (:mod:`repro.experiments`).

Quickstart::

    from repro import GraphGenerator, social_network_schema

    schema = social_network_schema(num_countries=12)
    graph = GraphGenerator(schema, {"Person": 10_000}, seed=42).generate()
    print(graph.summary())
"""

from .core import (
    Cardinality,
    CorrelationSpec,
    EdgeType,
    GeneratorSpec,
    GraphGenerator,
    NodeType,
    PropertyDef,
    PropertyGraph,
    Schema,
    SchemaError,
    sbm_part_match,
)
from .datasets import social_network_schema
from .prng import RandomStream
from .stats import JointDistribution, compare_joints, empirical_joint
from .tables import EdgeTable, PropertyTable

__version__ = "0.1.0"

__all__ = [
    "Cardinality",
    "CorrelationSpec",
    "EdgeTable",
    "EdgeType",
    "GeneratorSpec",
    "GraphGenerator",
    "JointDistribution",
    "NodeType",
    "PropertyDef",
    "PropertyGraph",
    "PropertyTable",
    "RandomStream",
    "Schema",
    "SchemaError",
    "__version__",
    "compare_joints",
    "empirical_joint",
    "sbm_part_match",
    "social_network_schema",
]
