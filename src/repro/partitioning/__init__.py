"""Streaming graph partitioning substrate (LDG and friends).

:func:`ldg_partition` is LDG (Stanton & Kliot, KDD 2012), of which
SBM-Part (Section 4.2) is "a variation": it runs on the matchers'
streaming-placement kernel and is defined there
(:func:`repro.core.matching.kernel.ldg_partition`).
"""

from .hashing import capacity_respecting_random_partition, hash_partition
from .metrics import balance, cut_fraction, edge_cut, mixing_matrix
from .streams import arrival_order
from ..core.matching.kernel import ldg_partition

__all__ = [
    "arrival_order",
    "balance",
    "capacity_respecting_random_partition",
    "cut_fraction",
    "edge_cut",
    "hash_partition",
    "ldg_partition",
    "mixing_matrix",
]
