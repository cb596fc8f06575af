"""Rule-based query optimizer: rewriter, statistics, cost model, planner."""

from repro.optimizer.optimizer import Optimizer
from repro.optimizer.physical_cost import PhysicalCostModel
from repro.optimizer.planner import PhysicalPlanner, PlannerOptions
from repro.optimizer.rewriter import Rewriter, RewriteReport
from repro.optimizer.statistics import (
    CardinalityEstimator,
    Estimate,
    StatisticsCatalog,
    TableStatistics,
)

__all__ = [
    "Optimizer",
    "PhysicalCostModel",
    "PhysicalPlanner",
    "PlannerOptions",
    "Rewriter",
    "RewriteReport",
    "CardinalityEstimator",
    "Estimate",
    "StatisticsCatalog",
    "TableStatistics",
]
