"""Columnar data model: Property Tables and Edge Tables (Section 4.1)."""

from .edge_table import EdgeTable, bucket_order, csr_arrays
from .property_table import PropertyTable
from .ranged import EdgeRows, PropertyRows, RangeColumn, chunk_bounds

__all__ = [
    "EdgeRows",
    "EdgeTable",
    "PropertyRows",
    "PropertyTable",
    "RangeColumn",
    "bucket_order",
    "chunk_bounds",
    "csr_arrays",
]
