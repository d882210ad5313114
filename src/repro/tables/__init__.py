"""Columnar data model: Property Tables and Edge Tables (Section 4.1)."""

from .edge_table import EdgeTable, bucket_order, csr_arrays
from .property_table import PropertyTable, value_codes
from .ranged import EdgeRows, PropertyRows, RangeColumn, chunk_bounds
from .strings import StringColumn

__all__ = [
    "EdgeRows",
    "EdgeTable",
    "PropertyRows",
    "PropertyTable",
    "RangeColumn",
    "StringColumn",
    "bucket_order",
    "chunk_bounds",
    "csr_arrays",
    "value_codes",
]
