"""Post-generation validation of property graph contracts."""

from .checks import (
    CardinalityCheck,
    Check,
    CheckResult,
    DateOrderingCheck,
    DegreeDistributionCheck,
    Grade,
    GradedReport,
    JointDistributionCheck,
    MarginalDistributionCheck,
    UniquenessCheck,
    run_graded,
)
from .standard import standard_checks

__all__ = [
    "CardinalityCheck",
    "Check",
    "CheckResult",
    "DateOrderingCheck",
    "DegreeDistributionCheck",
    "Grade",
    "GradedReport",
    "JointDistributionCheck",
    "MarginalDistributionCheck",
    "UniquenessCheck",
    "run_graded",
    "standard_checks",
]
