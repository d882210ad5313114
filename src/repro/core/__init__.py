"""DataSynth core: schema, dependency analysis, matching, engine."""

from .checkpoint import CHECKPOINT_NAME, CheckpointError, run_fingerprint
from .dependency import DependencyError, Task, TaskGraph, build_task_graph
from .engine import GraphGenerator, ShardedExecutor
from .faults import FaultPlan, InjectedFault, parse_faults
from .matching import (
    BipartiteMatchResult,
    SbmPartResult,
    bipartite_sbm_part_match,
    edge_count_target,
    greedy_label_match,
    ldg_degree_match,
    random_match,
    sbm_part_assign,
    sbm_part_match,
)
from .result import PropertyGraph
from .run import RunOptions, parse_memory_budget
from .sharded import ShardedError
from .schema import (
    Cardinality,
    CorrelationSpec,
    EdgeType,
    GeneratorSpec,
    NodeType,
    PropertyDef,
    Schema,
    SchemaError,
)

__all__ = [
    "BipartiteMatchResult",
    "CHECKPOINT_NAME",
    "Cardinality",
    "CheckpointError",
    "CorrelationSpec",
    "DependencyError",
    "EdgeType",
    "FaultPlan",
    "GeneratorSpec",
    "GraphGenerator",
    "InjectedFault",
    "NodeType",
    "PropertyDef",
    "PropertyGraph",
    "RunOptions",
    "SbmPartResult",
    "Schema",
    "SchemaError",
    "ShardedError",
    "ShardedExecutor",
    "Task",
    "TaskGraph",
    "bipartite_sbm_part_match",
    "build_task_graph",
    "edge_count_target",
    "greedy_label_match",
    "ldg_degree_match",
    "parse_faults",
    "parse_memory_budget",
    "random_match",
    "run_fingerprint",
    "sbm_part_assign",
    "sbm_part_match",
]
