"""Extraction and plan costing apply one cost model.

The cost :meth:`CostModel.extract` reports for the plan it picks must be
exactly :meth:`CostModel.plan_cost` of that plan under the same statistics
and ``require_physical``, with and without runtime observations: both walks
drive the same per-node rule, :meth:`CostModel.node_info`.
"""

import pytest

from repro.core import Card, CostModel, Statistics, estimate
from repro.core.feedback import FeedbackConfig, FeedbackStore
from repro.core.optimizer import optimize
from repro.egraph.egraph import EGraph
from repro.execution.profile import ExecutionProfile
from repro.kernels import KERNELS
from repro.sdqlite import parse_expr, to_debruijn
from repro.sdqlite.ast import children, postorder
from repro.sdqlite.debruijn import is_closed

from test_execution import _PARITY_CASES, _parity_catalog

#: Observed sizes in the overlay are this multiple of the estimate.
OVERLAY_FACTOR = 7.0


def db(source):
    return to_debruijn(parse_expr(source))


def _assert_parity(egraph, root, stats, require_physical):
    """Extraction's cost is ``plan_cost`` of its pick; returns the pick."""
    plan, cost = CostModel(stats, require_physical=require_physical).extract(egraph, root)
    assert cost == CostModel(stats, require_physical=require_physical).plan_cost(plan)
    return plan


def _overlay(stats, plan):
    """``stats`` plus an observation, at 7x its estimate, of every closed,
    non-leaf, dictionary-valued sub-expression of ``plan`` (none for most
    scalar-valued plans)."""
    overlaid = stats.with_selectivity(stats.selectivity)
    for node in postorder(plan):
        if children(node) and is_closed(node):
            card = estimate(node, stats)
            if not card.is_scalar:
                overlaid.observe(node, card.scale(OVERLAY_FACTOR))
    return overlaid


# ---------------------------------------------------------------------------
# hand-built e-graphs
# ---------------------------------------------------------------------------

#: Program and observed sub-expression, per case where the two walks once
#: disagreed: extraction read no observation below a leaf, and sized
#: dictionary ÷ dictionary as an intersection where Fig. 5 makes it scalar.
HAND_BUILT = {
    "observed-union": ("sum(<i, v> in (A + B)) v", "A + B"),
    "observed-intersection": ("sum(<i, v> in (A * B)) v", "A * B"),
    "dict-division": ("sum(<i, v> in (A / B)) v", None),
}


@pytest.mark.parametrize("require_physical", [False, True])
@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_extraction_cost_is_plan_cost_on_hand_built_graphs(name, require_physical):
    program, observed = HAND_BUILT[name]
    stats = Statistics()
    stats.profiles["A"] = Card.of(100.0)
    stats.profiles["B"] = Card.of(40.0)
    if observed is not None:
        stats.observe(db(observed), Card.of(5000.0))
    egraph = EGraph()
    root = egraph.add_expr(db(program))
    assert _assert_parity(egraph, root, stats, require_physical) == db(program)


# ---------------------------------------------------------------------------
# every extraction the optimizer makes on the kernel x format parity grid
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kernel_name,fmt", _PARITY_CASES,
                         ids=[f"{k}-{f}" for k, f in _PARITY_CASES])
def test_extraction_cost_is_plan_cost_on_the_parity_grid(kernel_name, fmt, monkeypatch):
    """Each stage-1 and stage-2 extraction of the e-graph optimizer, under the
    model it used (logical, or physical with the logical fallback), with and
    without an observation overlay."""
    calls = []
    original = CostModel.extract

    def recording(model, egraph, root):
        result = original(model, egraph, root)
        calls.append((egraph, root, model.stats, model.require_physical))
        return result

    monkeypatch.setattr(CostModel, "extract", recording)
    catalog = _parity_catalog(kernel_name, fmt)
    optimize(KERNELS[kernel_name].program, catalog.mappings(),
             Statistics.from_catalog(catalog), method="egraph")
    monkeypatch.setattr(CostModel, "extract", original)
    assert len(calls) == 2  # stage 1, then stage 2

    for egraph, root, stats, require_physical in calls:
        pick = _assert_parity(egraph, root, stats, require_physical)
        _assert_parity(egraph, root, _overlay(stats, pick), require_physical)


# ---------------------------------------------------------------------------
# feedback estimates with the observations adopted earlier in the same ingest
# ---------------------------------------------------------------------------


def test_one_ingest_sizes_the_output_from_the_source_it_just_observed():
    """The loop source is misestimated and adopted; the output estimate then
    reads that observation, matches the measured output and adopts nothing."""
    stats = Statistics()
    stats.profiles["X"] = Card.of(100.0)
    plan = db("sum(<i, v> in X) { i -> v }")
    source = plan.source

    class Prepared:
        def __init__(self):
            self.plan = plan

        def loop_sources(self):
            return {0: source}

    profile = ExecutionProfile()
    profile.record_loop(0, 40.0)
    profile.output_card = Card.of(40.0)
    store = FeedbackStore(FeedbackConfig(sample_every=1, threshold=1.5))
    report = store.ingest(stats, Prepared(), profile, catalog_version=0)
    assert report["feedback_checked"] == 2
    assert report["feedback_misestimations"] == 1
    assert stats.observations == {source: Card.of(40.0)}
