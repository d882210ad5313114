"""Statistics substrate: distributions, joints and comparison metrics."""

from .comparison import (
    CdfComparison,
    compare_joints,
    frobenius_distance,
    jensen_shannon,
    ks_distance,
    l1_distance,
    total_variation,
)
from .distributions import (
    Categorical,
    Constant,
    Distribution,
    Empirical,
    Geometric,
    Poisson,
    PowerLaw,
    TruncatedGeometric,
    Uniform,
    Zipf,
)
from .fitting import (
    empirical_degree_distribution,
    fit_power_law_exponent,
    rescale_degree_sequence,
)
from .joint import JointDistribution, empirical_joint, homophily_joint
from .multivalue import empirical_multivalue_joint, encode_value_sets

__all__ = [
    "Categorical",
    "CdfComparison",
    "Constant",
    "Distribution",
    "Empirical",
    "Geometric",
    "JointDistribution",
    "Poisson",
    "PowerLaw",
    "TruncatedGeometric",
    "Uniform",
    "Zipf",
    "compare_joints",
    "empirical_degree_distribution",
    "empirical_joint",
    "empirical_multivalue_joint",
    "encode_value_sets",
    "fit_power_law_exponent",
    "frobenius_distance",
    "homophily_joint",
    "jensen_shannon",
    "ks_distance",
    "l1_distance",
    "rescale_degree_sequence",
    "total_variation",
]
