"""An equality-saturation engine (e-graph) — a from-scratch Egg reimplementation."""

from .egraph import EClass, EGraph
from .extract import Extractor, ast_size_cost, extract_smallest
from .language import ENode, ast_to_label, label_binders, label_to_ast
from .pattern import Pattern, parse_pattern
from .rewrite import Rewrite, bidirectional, var_independent_of, vars_distinct
from .runner import (
    BackoffScheduler,
    IterationStats,
    RuleStats,
    Runner,
    RunnerReport,
)
from .unionfind import UnionFind

__all__ = [
    "EClass", "EGraph",
    "Extractor", "ast_size_cost", "extract_smallest",
    "ENode", "ast_to_label", "label_binders", "label_to_ast",
    "Pattern", "parse_pattern",
    "Rewrite", "bidirectional", "var_independent_of", "vars_distinct",
    "BackoffScheduler", "IterationStats", "RuleStats",
    "Runner", "RunnerReport",
    "UnionFind",
]
