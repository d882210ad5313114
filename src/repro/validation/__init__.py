"""Post-generation validation of property graph contracts."""

from .checks import (
    CardinalityCheck,
    Check,
    CheckResult,
    DateOrderingCheck,
    DegreeDistributionCheck,
    Grade,
    JointDistributionCheck,
    MarginalDistributionCheck,
    UniquenessCheck,
    ValidationReport,
    validate,
)
from .standard import standard_checks

__all__ = [
    "CardinalityCheck",
    "Check",
    "CheckResult",
    "DateOrderingCheck",
    "DegreeDistributionCheck",
    "Grade",
    "JointDistributionCheck",
    "MarginalDistributionCheck",
    "UniquenessCheck",
    "ValidationReport",
    "standard_checks",
    "validate",
]
