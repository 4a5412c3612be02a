"""The STOREL cost-based optimizer (Sec. 5 of the paper).

Pipeline (Fig. 2):

1. the tensor program (TP) and the tensor storage mappings (TSMs) are parsed
   and converted to De Bruijn form;
2. **stage 1** — the TP alone is rewritten with the storage-independent rules
   under equality saturation, and the cheapest equivalent program is
   extracted (Sec. 6.4 explains why the pipeline is split in two stages: a
   single saturation over the composed plan is too large a search space);
3. the result is composed with the TSMs into the naive logical plan
   (Sec. 5.1);
4. **stage 2** — the composed plan is rewritten with the full rule set
   (fusion, physical annotations); the e-graph is additionally seeded with
   the cheapest candidate plan of the deterministic strategies (the greedy
   pick), so that plan is always represented regardless of whether
   saturation completes within its limits;
5. the cheapest physical plan is extracted with the cost model of Fig. 6 and
   returned together with the Egg-style metrics of both stages (Table 4).

A ``method="greedy"`` mode skips equality saturation and picks the cheapest
of the strategy-generated candidates directly; it is used by the benchmark
harness when only the *plan quality* (not the optimization process) is being
measured.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Mapping

from ..egraph.egraph import EGraph
from ..egraph.runner import Runner, RunnerReport
from ..sdqlite.ast import Expr
from ..sdqlite.debruijn import to_debruijn_safe
from ..sdqlite.errors import OptimizationError
from . import rules as rule_sets
from . import strategies
from .compose import compose
from .cost import CostModel
from .statistics import Statistics


@dataclass
class StageReport:
    """Egg metrics for one optimization stage (one row of Table 4)."""

    name: str
    runner: RunnerReport
    extracted_cost: float

    def as_row(self) -> dict:
        row = {"stage": self.name, **self.runner.as_row(), "cost": self.extracted_cost}
        return row


@dataclass
class OptimizationResult:
    """The chosen physical plan plus everything needed to report on it."""

    plan: Expr
    cost: float
    naive_plan: Expr
    stage1: StageReport | None = None
    stage2: StageReport | None = None
    candidate_costs: dict[str, float] = field(default_factory=dict)
    chosen_candidate: str | None = None
    optimization_time_ms: float = 0.0
    #: Wall-clock milliseconds per phase of this optimization, in pipeline
    #: order (the keys of :data:`PHASES` that ran).
    phase_ms: dict[str, float] = field(default_factory=dict)

    def table4_rows(self) -> list[dict]:
        rows = []
        for stage in (self.stage1, self.stage2):
            if stage is not None:
                rows.append(stage.as_row())
        return rows


#: The phases ``OptimizationResult.phase_ms`` accounts for, in pipeline order.
#: ``rule_tables`` is the one-time construction of the shared rule objects
#: (0 after the process's first saturation); ``compose`` covers both the
#: naive plan and the composition of the stage-1 result; ``candidates`` is
#: running and costing the deterministic strategies (and seeding stage 2).
PHASES = ("rule_tables", "stage1_saturation", "stage1_extraction", "compose",
          "candidates", "stage2_saturation", "stage2_extraction")


class _PhaseClock:
    """Accumulates wall-clock time per named phase of one optimization."""

    def __init__(self) -> None:
        self.phase_ms: dict[str, float] = {}
        self._last = time.perf_counter()

    def lap(self, phase: str) -> None:
        """Charge the time since the previous lap to ``phase``."""
        now = time.perf_counter()
        self.phase_ms[phase] = self.phase_ms.get(phase, 0.0) + (now - self._last) * 1_000.0
        self._last = now


#: Engine configuration that reproduces the textbook (pre-index) saturation
#: loop: full rescans, materialized match lists, no rule scheduling, lazy
#: best-term maintenance.  Used by ``benchmarks/bench_optimizer.py`` as the
#: before-side of the before/after comparison; pass ``**LEGACY_ENGINE`` to
#: :class:`Optimizer` to get it.
LEGACY_ENGINE: dict = {
    "scheduler": "simple",
    "indexed": False,
    "incremental": False,
    "eager_terms": False,
}


class Optimizer:
    """Cost-based optimizer over flexible storage."""

    def __init__(self, stats: Statistics, *, iter_limit: int = 8,
                 node_limit: int = 5_000, time_limit: float = 5.0,
                 match_limit_per_rule: int = 400, seed_candidates: bool = True,
                 scheduler: str = "backoff", indexed: bool = True,
                 incremental: bool = True, ban_length: int = 4,
                 eager_terms: bool = True):
        self.stats = stats
        self.iter_limit = iter_limit
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.match_limit_per_rule = match_limit_per_rule
        self.seed_candidates = seed_candidates
        self.scheduler = scheduler
        self.indexed = indexed
        self.incremental = incremental
        self.ban_length = ban_length
        self.eager_terms = eager_terms

    def _make_runner(self, egraph: EGraph, rules) -> Runner:
        return Runner(egraph, rules,
                      iter_limit=self.iter_limit, node_limit=self.node_limit,
                      time_limit=self.time_limit,
                      match_limit_per_rule=self.match_limit_per_rule,
                      scheduler=self.scheduler, indexed=self.indexed,
                      incremental=self.incremental, ban_length=self.ban_length)

    # ------------------------------------------------------------------

    def optimize(self, program: Expr, mappings: Mapping[str, Expr], *,
                 method: str = "egraph") -> OptimizationResult:
        """Optimize ``program`` for tensors stored according to ``mappings``."""
        start = time.perf_counter()
        clock = _PhaseClock()
        program = to_debruijn_safe(program)
        mappings = {name: to_debruijn_safe(mapping) for name, mapping in mappings.items()}
        naive = compose(program, mappings)
        clock.lap("compose")

        if method == "greedy":
            result = self._optimize_greedy(mappings, naive, clock)
        elif method == "egraph":
            result = self._optimize_egraph(program, mappings, naive, clock)
        else:
            raise OptimizationError(f"unknown optimization method {method!r}")
        result.phase_ms = {phase: round(clock.phase_ms[phase], 3)
                           for phase in PHASES if phase in clock.phase_ms}
        result.optimization_time_ms = (time.perf_counter() - start) * 1_000.0
        return result

    # ------------------------------------------------------------------
    # greedy mode: strategy candidates + cost model
    # ------------------------------------------------------------------

    def _optimize_greedy(self, mappings: Mapping[str, Expr], naive: Expr,
                         clock: _PhaseClock) -> OptimizationResult:
        model = CostModel(self.stats)
        candidates = strategies.candidate_plans(naive, symbol_ranks(self.stats, mappings))
        costs = {name: model.plan_cost(plan) for name, plan in candidates.items()}
        chosen = min(costs, key=costs.get)
        clock.lap("candidates")
        return OptimizationResult(
            plan=candidates[chosen],
            cost=costs[chosen],
            naive_plan=naive,
            candidate_costs=costs,
            chosen_candidate=chosen,
        )

    # ------------------------------------------------------------------
    # e-graph mode: two-stage equality saturation + cost-based extraction
    # ------------------------------------------------------------------

    def _optimize_egraph(self, program: Expr, mappings: Mapping[str, Expr],
                         naive: Expr, clock: _PhaseClock) -> OptimizationResult:
        ranks = symbol_ranks(self.stats, mappings)
        logical_rules = rule_sets.logical_rules()
        all_rules = rule_sets.all_rules()
        clock.lap("rule_tables")
        # One logical cost model per optimize: stage-1 extraction, the
        # candidates' costs and the relaxed fallback share its memo.
        logical_model = CostModel(self.stats, require_physical=False)

        # Stage 1: storage-independent optimization of the tensor program.
        stage1_graph = EGraph(eager_terms=self.eager_terms)
        stage1_graph.symbol_ranks = ranks
        root1 = stage1_graph.add_expr(program)
        report1 = self._make_runner(stage1_graph, logical_rules).run()
        clock.lap("stage1_saturation")
        stage1_plan, stage1_cost = logical_model.extract(stage1_graph, root1)
        stage1 = StageReport("storage-independent", report1, stage1_cost)
        clock.lap("stage1_extraction")

        # Compose the optimized program with the storage mappings.
        composed = compose(stage1_plan, mappings)
        clock.lap("compose")

        # Stage 2: storage-aware optimization of the composed plan.
        stage2_graph = EGraph(eager_terms=self.eager_terms)
        stage2_graph.symbol_ranks = ranks
        root2 = stage2_graph.add_expr(composed)
        candidate_costs: dict[str, float] = {}
        chosen = None
        if self.seed_candidates:
            # Seed with the greedy pick alone: its plan is then in the graph
            # whatever saturation reaches, and the other candidates — whose
            # shapes the rules rediscover from the composed plan anyway — no
            # longer each grow the graph by their own rewrites.
            candidates = strategies.candidate_plans(composed, ranks)
            candidate_costs = {name: logical_model.plan_cost(plan)
                               for name, plan in candidates.items()}
            chosen = min(candidate_costs, key=candidate_costs.get)
            stage2_graph.union(root2, stage2_graph.add_expr(candidates[chosen]))
            stage2_graph.rebuild()
        clock.lap("candidates")
        report2 = self._make_runner(stage2_graph, all_rules).run()
        clock.lap("stage2_saturation")

        try:
            physical_model = CostModel(self.stats, require_physical=True)
            plan, cost = physical_model.extract(stage2_graph, root2)
        except OptimizationError:
            # Saturation stopped before the physical-annotation rules reached
            # every dictionary constructor; fall back to the logical cost.
            plan, cost = logical_model.extract(stage2_graph, root2)
        stage2 = StageReport("storage-aware", report2, cost)
        clock.lap("stage2_extraction")

        return OptimizationResult(
            plan=plan,
            cost=cost,
            naive_plan=composed,
            stage1=stage1,
            stage2=stage2,
            candidate_costs=candidate_costs,
            chosen_candidate=chosen,
        )


def symbol_ranks(stats: Statistics, mappings: Mapping[str, Expr]) -> strategies.SymbolRanks:
    """Nesting rank per dictionary-valued symbol, plus the integer symbols.

    Logical tensor names (they stand for their storage mappings) and every
    physical symbol the statistics know a cardinality profile for; scalars
    are simply absent.  Rules that are only sound for scalar operands (the
    dict-factor rules) consult the ranks, the range rewrites the integer
    symbols (``stats.integral``), through ``EGraph.symbol_ranks`` and the
    strategies' ``symbol_ranks`` argument.
    """
    ranks: dict[str, int] = {}
    for name, card in stats.profiles.items():
        rank = card.depth()
        if rank > 0:
            ranks[name] = rank
    for name in mappings:
        ranks.setdefault(name, 1)
    return strategies.SymbolRanks(ranks, stats.integral)


def optimize(program: Expr, mappings: Mapping[str, Expr], stats: Statistics,
             *, method: str = "egraph", **limits) -> OptimizationResult:
    """Convenience wrapper: build an :class:`Optimizer` and run it once."""
    return Optimizer(stats, **limits).optimize(program, mappings, method=method)
