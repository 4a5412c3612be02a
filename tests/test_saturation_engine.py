"""Determinism and engine-parity tests for the saturation engine.

The fast engine (operator index + incremental e-matching + backoff
scheduler + eager best terms) must be deterministic — saturating the same
kernel twice yields byte-identical extracted plans and costs — and must
extract plans that are byte-identical to (or strictly cheaper than) the
textbook full-rescan engine's under identical budgets.
"""

import numpy as np
import pytest

from repro.baselines import reference_result
from repro.core import LEGACY_ENGINE, Optimizer, Statistics
from repro.data.synthetic import random_dense_vector, random_sparse_matrix
from repro.kernels import BATAX_NESTED, MMM, SUM_MMM
from repro.sdqlite import evaluate
from repro.storage import Catalog, CSRFormat, DenseFormat


def batax_catalog(size=10, density=0.3, seed=1):
    a = random_sparse_matrix(size, size, density, seed=seed)
    x = random_dense_vector(size, seed=seed + 1)
    return (Catalog()
            .add(CSRFormat.from_dense("A", a))
            .add(DenseFormat.from_dense("X", x))
            .add_scalar("beta", 2.0))


def mmm_catalog(size=8, density=0.3, seed=2):
    return (Catalog()
            .add(CSRFormat.from_dense("A", random_sparse_matrix(size, size, density, seed=seed)))
            .add(CSRFormat.from_dense("B", random_sparse_matrix(size, size, density, seed=seed + 1))))


KERNEL_CASES = [
    (BATAX_NESTED, batax_catalog),
    (MMM, mmm_catalog),
    (SUM_MMM, mmm_catalog),
]


@pytest.mark.parametrize("kernel,make_catalog", KERNEL_CASES,
                         ids=[k.name for k, _ in KERNEL_CASES])
def test_saturation_is_deterministic(kernel, make_catalog):
    """Same kernel, same budgets, two runs -> identical plans and costs."""
    catalog = make_catalog()
    stats = Statistics.from_catalog(catalog)
    outcomes = []
    for _ in range(2):
        optimizer = Optimizer(stats, iter_limit=5, node_limit=2500)
        result = optimizer.optimize(kernel.program, catalog.mappings(), method="egraph")
        outcomes.append((str(result.plan), result.cost,
                         result.stage1.runner.stop_reason,
                         result.stage2.runner.stop_reason))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("kernel,make_catalog", KERNEL_CASES,
                         ids=[k.name for k, _ in KERNEL_CASES])
def test_legacy_engine_is_deterministic_too(kernel, make_catalog):
    catalog = make_catalog()
    stats = Statistics.from_catalog(catalog)
    outcomes = []
    for _ in range(2):
        optimizer = Optimizer(stats, iter_limit=5, node_limit=2500, **LEGACY_ENGINE)
        result = optimizer.optimize(kernel.program, catalog.mappings(), method="egraph")
        outcomes.append((str(result.plan), result.cost))
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("kernel,make_catalog", KERNEL_CASES,
                         ids=[k.name for k, _ in KERNEL_CASES])
def test_fast_engine_plan_parity_with_legacy(kernel, make_catalog):
    """Indexed/incremental/backoff engine extracts the same plan as the
    textbook loop (or a strictly cheaper one when the naive loop's match
    truncation starves it — never a worse one)."""
    catalog = make_catalog()
    stats = Statistics.from_catalog(catalog)
    legacy = Optimizer(stats, iter_limit=5, node_limit=2500,
                       **LEGACY_ENGINE).optimize(kernel.program, catalog.mappings(),
                                                 method="egraph")
    fast = Optimizer(stats, iter_limit=5, node_limit=2500).optimize(
        kernel.program, catalog.mappings(), method="egraph")
    if str(fast.plan) == str(legacy.plan):
        assert fast.cost == legacy.cost
    else:
        assert fast.cost < legacy.cost


def test_fast_engine_plan_is_correct():
    """The plan extracted by the fast engine computes the right answer."""
    catalog = batax_catalog()
    stats = Statistics.from_catalog(catalog)
    result = Optimizer(stats).optimize(BATAX_NESTED.program, catalog.mappings(),
                                       method="egraph")
    value = evaluate(result.plan, catalog.globals())
    expected = reference_result(BATAX_NESTED, catalog)
    got = np.array([value.get(j, 0.0) for j in range(10)])
    np.testing.assert_allclose(got, expected, rtol=1e-9)


def test_engine_knobs_reachable_through_optimizer_options():
    """The engine knobs thread through the high-level API (session options)."""
    from repro import storel

    catalog = batax_catalog(size=6)
    naive = storel.run(BATAX_NESTED.source, catalog, dense_shape=(6,),
                       optimizer_options={"scheduler": "simple", "indexed": False,
                                          "incremental": False, "eager_terms": False,
                                          "iter_limit": 3})
    fast = storel.run(BATAX_NESTED.source, catalog, dense_shape=(6,),
                      optimizer_options={"iter_limit": 3})
    np.testing.assert_allclose(naive, fast)


# ---------------------------------------------------------------------------
# The wall-clock limit is a deadline inside the iteration
# ---------------------------------------------------------------------------


class FakeClock:
    """A ``perf_counter`` the test moves: by hand, or by ``tick`` per read."""

    def __init__(self, tick: float = 0.0):
        self.now = 0.0
        self.tick = tick

    def __call__(self) -> float:
        self.now += self.tick
        return self.now


def test_time_limit_stops_within_one_rule_and_leaves_the_graph_congruent(monkeypatch):
    from repro.egraph import EGraph, Rewrite, Runner
    from repro.egraph import runner as runner_module
    from repro.sdqlite import parse_expr
    from repro.sdqlite.debruijn import to_debruijn

    clock = FakeClock()
    monkeypatch.setattr(runner_module, "perf_counter", clock)

    def an_hour_passes(egraph, subst) -> bool:
        clock.now += 3600.0
        return True

    rules = [
        Rewrite.syntactic("first", "?a * ?b", "?b * ?a"),
        Rewrite.syntactic("slow", "?a + ?b", "?b + ?a", an_hour_passes),
        Rewrite.syntactic("never", "?a * (?b + ?c)", "?a * ?b + ?a * ?c"),
    ]
    egraph = EGraph()
    egraph.add_expr(to_debruijn(parse_expr("x * (a + b) * (c + d) * (e + f)")))
    report = Runner(egraph, rules, iter_limit=10, time_limit=5.0).run()
    stats = report.rule_stats
    assert report.stop_reason == "time_limit" and report.iterations == 1
    assert stats["first"].applied == stats["first"].matches > 0
    # The deadline passed during the slow rule's first application: that one
    # finishes, its two other matches and the third rule are never run.
    assert stats["slow"].matches == 3 and stats["slow"].applied == 1
    assert stats["never"].matches == 0 and stats["never"].search_ms == 0.0
    assert not egraph._pending     # the cut iteration still ended with a rebuild
    egraph.sanity_check()
    # An untouched clock saturates the same rules on the same term.
    clock.now = 0.0
    rules[1] = Rewrite.syntactic("slow", "?a + ?b", "?b + ?a")
    egraph = EGraph()
    egraph.add_expr(to_debruijn(parse_expr("x * (a + b) * (c + d) * (e + f)")))
    assert Runner(egraph, rules, iter_limit=10, time_limit=5.0).run().stop_reason == "saturated"


@pytest.mark.parametrize("tick_ms", [0.02, 0.1, 1.0])
def test_a_plan_extracted_after_a_timeout_is_no_costlier_than_greedy(monkeypatch, tick_ms):
    from repro.egraph import runner as runner_module

    # Every clock read costs ``tick_ms``: the 25 ms budget runs out in the
    # middle of an iteration (earlier the coarser the tick), where the old
    # end-of-iteration check would have let the iteration finish first.
    monkeypatch.setattr(runner_module, "perf_counter", FakeClock(tick=tick_ms / 1e3))
    catalog = batax_catalog()
    stats = Statistics.from_catalog(catalog)
    result = Optimizer(stats, time_limit=0.025).optimize(
        BATAX_NESTED.program, catalog.mappings(), method="egraph")
    report = result.stage2.runner
    assert report.stop_reason == "time_limit"
    assert report.time_ms <= 25.0 + 400 * tick_ms   # one rule's reads past the limit
    assert np.isfinite(result.cost)
    assert result.cost <= min(result.candidate_costs.values()) * (1 + 1e-12)
    value = evaluate(result.plan, catalog.globals())
    got = np.array([value.get(j, 0.0) for j in range(10)])
    np.testing.assert_allclose(got, reference_result(BATAX_NESTED, catalog), rtol=1e-9)
