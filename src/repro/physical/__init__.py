"""Volcano-style physical operators and the execution driver."""

from repro.physical import division
from repro.physical.aggregate import HashAggregate
from repro.physical.base import (
    DEFAULT_BATCH_SIZE,
    Chunk,
    PhysicalOperator,
    PhysicalProperties,
    PlanStatistics,
    TupleProjector,
    collect_statistics,
)
from repro.physical.basic import (
    DifferenceOp,
    DuplicateElimination,
    Filter,
    IntersectOp,
    ProductOp,
    ProjectOp,
    RenameOp,
    UnionOp,
)
from repro.physical.division import (
    GREAT_DIVIDE_ALGORITHMS,
    SMALL_DIVIDE_ALGORITHMS,
    AlgebraSimulationDivision,
    GroupwiseSmallDivision,
    HashDivision,
    HashGreatDivision,
    MergeCountDivision,
    MergeSortDivision,
    NestedLoopsDivision,
    NestedLoopsGreatDivision,
)
from repro.physical.executor import ExecutionResult, execute_plan, set_debug_verify
from repro.physical.parallel import (
    HashPartitionExchange,
    PartitionedAggregate,
    PartitionedDivision,
    PartitionedHashJoin,
    PartitionedOperator,
    PartitionSource,
)
from repro.physical.joins import (
    JOIN_ALGORITHMS,
    HashAntiJoin,
    HashJoin,
    HashLeftOuterJoin,
    HashSemiJoin,
    NestedLoopsJoin,
    NestedLoopsNaturalJoin,
)
from repro.physical.compile import active_kernel, use_kernel
from repro.physical.compile.segments import compile_plan  # noqa: F401 - benchmark replay stub
from repro.physical.scans import RelationScan, TableScan
from repro.physical.view_ops import CounterTableScan

__all__ = [
    "division",
    "DEFAULT_BATCH_SIZE",
    "Chunk",
    "PhysicalOperator",
    "PhysicalProperties",
    "PlanStatistics",
    "TupleProjector",
    "collect_statistics",
    "ExecutionResult",
    "execute_plan",
    "set_debug_verify",
    # leaves
    "RelationScan",
    "TableScan",
    "CounterTableScan",
    # basic
    "Filter",
    "ProjectOp",
    "RenameOp",
    "DuplicateElimination",
    "UnionOp",
    "IntersectOp",
    "DifferenceOp",
    "ProductOp",
    # joins
    "NestedLoopsJoin",
    "HashJoin",
    "NestedLoopsNaturalJoin",
    "JOIN_ALGORITHMS",
    "HashSemiJoin",
    "HashAntiJoin",
    "HashLeftOuterJoin",
    # aggregation
    "HashAggregate",
    # partition-parallel exchange
    "HashPartitionExchange",
    "PartitionSource",
    "PartitionedOperator",
    "PartitionedDivision",
    "PartitionedHashJoin",
    "PartitionedAggregate",
    # division
    "NestedLoopsDivision",
    "HashDivision",
    "MergeSortDivision",
    "MergeCountDivision",
    "AlgebraSimulationDivision",
    "SMALL_DIVIDE_ALGORITHMS",
    "NestedLoopsGreatDivision",
    "HashGreatDivision",
    "GroupwiseSmallDivision",
    "GREAT_DIVIDE_ALGORITHMS",
    # bitset kernels
    "active_kernel",
    "use_kernel",
]
