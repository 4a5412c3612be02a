"""STOREL's core: rewrite rules, cardinality / cost models, and the optimizer."""

from .cardinality import Card, CardinalityEstimator, estimate
from .compose import compose, compose_with_lets
from .cost import CostInfo, CostModel, Gamma
from .optimizer import OptimizationResult, Optimizer, StageReport, optimize
from .rules import all_rules, logical_rules, physical_rules, rule_names
from .statistics import Statistics
from . import strategies

__all__ = [
    "Card", "CardinalityEstimator", "estimate",
    "compose", "compose_with_lets",
    "CostInfo", "CostModel", "Gamma",
    "OptimizationResult", "Optimizer", "StageReport", "optimize",
    "all_rules", "logical_rules", "physical_rules", "rule_names",
    "Statistics",
    "strategies",
]
