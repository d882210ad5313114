"""Property-to-node matching: SBM-Part and its baselines (Section 4.2).

Each streaming matcher is defined once, in the shared placement kernel
(:mod:`repro.core.matching.kernel`): :func:`sbm_part_assign`,
:func:`~repro.core.matching.kernel.ldg_partition` (exported by
:mod:`repro.partitioning`) and the bipartite stream behind
:func:`bipartite_sbm_part_match`.  The monopartite matchers
(:func:`sbm_part_match`, :func:`ldg_degree_match`,
:func:`greedy_label_match`) share one result assembly.  The original
per-node loops are frozen verbatim in ``tests/legacy_matching.py`` as
the equivalence reference.
"""

from .baselines import greedy_label_match, ldg_degree_match
from .bipartite import BipartiteMatchResult, bipartite_sbm_part_match
from .kernel import (
    MatchPrep,
    available_impls,
    prepare_match_stream,
    sbm_part_assign,
    tie_threshold,
)
from .random_matching import random_match
from .sbm_part import SbmPartResult, sbm_part_match
from .targets import bipartite_edge_count_target, edge_count_target

__all__ = [
    "BipartiteMatchResult",
    "MatchPrep",
    "SbmPartResult",
    "available_impls",
    "bipartite_edge_count_target",
    "bipartite_sbm_part_match",
    "edge_count_target",
    "greedy_label_match",
    "ldg_degree_match",
    "prepare_match_stream",
    "random_match",
    "sbm_part_assign",
    "sbm_part_match",
    "tie_threshold",
]
