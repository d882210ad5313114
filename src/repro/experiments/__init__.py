"""Experiment harnesses reproducing the paper's evaluation."""

from .figure34 import MATCHERS, ProtocolResult, make_graph, run_protocol
from .report import generate_report, render_markdown_table
from .scale import fixed_k, k_values, lfr_sizes, profile_name, rmat_scales

__all__ = [
    "MATCHERS", "ProtocolResult", "generate_report", "render_markdown_table",
    "fixed_k", "k_values", "lfr_sizes", "make_graph", "profile_name",
    "rmat_scales", "run_protocol",
]
