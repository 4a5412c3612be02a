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
4. **stage 2** — the deterministic strategies rewrite the composed plan
   into candidate plans, and the cheapest of them (the greedy pick) seeds
   the stage-2 e-graph alone; the full rule set (fusion, physical
   annotations) then saturates around that already fused, factorized plan
   instead of re-deriving it from the naive one, and the pick stays in the
   graph whatever the limits cut short;
5. the cheapest physical plan is extracted with the cost model of Fig. 6 and
   returned together with the Egg-style metrics of both stages (Table 4);
6. a last pass resolves the equality probes the picked plan still carries
   (:data:`~repro.core.strategies.PROBE_TRANSFORMS`: F1 and its range form)
   and collapses full traversals of declared segmented arrays into one loop
   each, and the cost is re-estimated when it changed anything — the plan
   returned is the plan the executor runs, in both modes.

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
    #: The segmented arrays of which the final pass collapsed a traversal,
    #: segment by segment, into one loop over the array
    #: (:func:`~repro.core.strategies.collapse_segments`), sorted.
    collapsed_segments: tuple[str, ...] = ()

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
#: The final probe pass is charged to the method's last phase.
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


class Optimizer:
    """Cost-based optimizer over flexible storage."""

    def __init__(self, stats: Statistics, *, iter_limit: int = 8,
                 node_limit: int = 5_000, time_limit: float = 5.0,
                 match_limit_per_rule: int = 400):
        self.stats = stats
        self.iter_limit = iter_limit
        self.node_limit = node_limit
        self.time_limit = time_limit
        self.match_limit_per_rule = match_limit_per_rule

    def _make_runner(self, egraph: EGraph, rules) -> Runner:
        return Runner(egraph, rules,
                      iter_limit=self.iter_limit, node_limit=self.node_limit,
                      time_limit=self.time_limit,
                      match_limit_per_rule=self.match_limit_per_rule)

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

        ranks = symbol_ranks(self.stats, mappings)
        if method == "greedy":
            result = self._optimize_greedy(naive, ranks)
            last_phase = "candidates"
        elif method == "egraph":
            result = self._optimize_egraph(program, mappings, ranks, clock)
            last_phase = "stage2_extraction"
        else:
            raise OptimizationError(f"unknown optimization method {method!r}")
        # Whatever the search returned, resolve the equality probes it left:
        # the plan returned — and costed — is the plan the executor runs.
        plan = strategies.rewrite_everywhere(result.plan, strategies.PROBE_TRANSFORMS,
                                             symbol_ranks=ranks)
        if plan != result.plan:
            before = strategies.segment_loops(result.plan, ranks)
            after = strategies.segment_loops(plan, ranks)
            result.collapsed_segments = tuple(sorted(
                name for name, loops in before.items() if after[name] < loops))
            result.plan = plan
            result.cost = CostModel(self.stats).plan_cost(plan)
        clock.lap(last_phase)
        result.phase_ms = {phase: round(clock.phase_ms[phase], 3)
                           for phase in PHASES if phase in clock.phase_ms}
        result.optimization_time_ms = (time.perf_counter() - start) * 1_000.0
        return result

    # ------------------------------------------------------------------
    # greedy mode: strategy candidates + cost model
    # ------------------------------------------------------------------

    def _optimize_greedy(self, naive: Expr,
                         ranks: strategies.SymbolRanks) -> OptimizationResult:
        model = CostModel(self.stats)
        candidates = strategies.candidate_plans(naive, ranks)
        costs = {name: model.plan_cost(plan) for name, plan in candidates.items()}
        chosen = min(costs, key=costs.get)
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
                         ranks: strategies.SymbolRanks,
                         clock: _PhaseClock) -> OptimizationResult:
        logical_rules = rule_sets.logical_rules()
        all_rules = rule_sets.all_rules()
        clock.lap("rule_tables")
        # One logical cost model per optimize: stage-1 extraction, the
        # candidates' costs and the relaxed fallback share its memo.
        logical_model = CostModel(self.stats, require_physical=False)

        # Stage 1: storage-independent optimization of the tensor program.
        stage1_graph = EGraph()
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

        # Stage 2: storage-aware optimization, saturating from the greedy
        # pick.  The pick is the composed plan under sound rewrites — the
        # same program — already fused and factorized, so the rules explore
        # around it instead of re-deriving it from the naive plan, and
        # extraction can never return a costlier plan than greedy's.
        candidates = strategies.candidate_plans(composed, ranks)
        candidate_costs = {name: logical_model.plan_cost(plan)
                           for name, plan in candidates.items()}
        chosen = min(candidate_costs, key=candidate_costs.get)
        stage2_graph = EGraph()
        stage2_graph.symbol_ranks = ranks
        root2 = stage2_graph.add_expr(candidates[chosen])
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
    """Nesting rank per dictionary-valued symbol, plus the integer symbols
    and the declared segmentation.

    Logical tensor names (they stand for their storage mappings) and every
    physical symbol the statistics know a cardinality profile for; scalars
    are simply absent.  Rules that are only sound for scalar operands (the
    dict-factor rules) consult the ranks, the range rewrites the integer
    symbols (``stats.integral``) and the segment collapse the declared
    segments (``stats.segmentation``), through ``EGraph.symbol_ranks`` and
    the strategies' ``symbol_ranks`` argument.
    """
    ranks: dict[str, int] = {}
    for name, card in stats.profiles.items():
        rank = card.depth()
        if rank > 0:
            ranks[name] = rank
    for name in mappings:
        ranks.setdefault(name, 1)
    return strategies.SymbolRanks(ranks, stats.integral, stats.segmentation)


def optimize(program: Expr, mappings: Mapping[str, Expr], stats: Statistics,
             *, method: str = "egraph", **limits) -> OptimizationResult:
    """Convenience wrapper: build an :class:`Optimizer` and run it once."""
    return Optimizer(stats, **limits).optimize(program, mappings, method=method)
