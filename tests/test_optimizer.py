"""End-to-end tests of the cost-based optimizer (both pipelines)."""

import numpy as np
import pytest

from repro import storel
from repro.baselines import reference_result
from repro.core import Optimizer, Statistics
from repro.data.synthetic import random_dense_vector, random_sparse_matrix
from repro.execution import ExecutionEngine, result_to_dense
from repro.kernels import BATAX_NESTED, MMM, SUM_MMM, get_kernel
from repro.sdqlite import evaluate, values_equal
from repro.sdqlite.errors import OptimizationError
from repro.storage import Catalog, CSRFormat, DenseFormat, TrieFormat


def batax_catalog(size=10, density=0.3, seed=1):
    a = random_sparse_matrix(size, size, density, seed=seed)
    x = random_dense_vector(size, seed=seed + 1)
    return (Catalog()
            .add(CSRFormat.from_dense("A", a))
            .add(DenseFormat.from_dense("X", x))
            .add_scalar("beta", 2.0))


def mmm_catalog(size=10, density=0.3, seed=2):
    return (Catalog()
            .add(CSRFormat.from_dense("A", random_sparse_matrix(size, size, density, seed=seed)))
            .add(CSRFormat.from_dense("B", random_sparse_matrix(size, size, density, seed=seed + 1))))


@pytest.mark.parametrize("method", ["greedy", "egraph"])
def test_optimizer_produces_correct_batax_plan(method):
    catalog = batax_catalog()
    stats = Statistics.from_catalog(catalog)
    optimizer = Optimizer(stats, iter_limit=5, node_limit=2500)
    result = optimizer.optimize(BATAX_NESTED.program, catalog.mappings(), method=method)
    assert np.isfinite(result.cost)
    value = evaluate(result.plan, catalog.globals())
    expected = reference_result(BATAX_NESTED, catalog)
    got = np.array([value.get(j, 0.0) for j in range(10)])
    np.testing.assert_allclose(got, expected, rtol=1e-9)
    # The chosen plan must be much cheaper than the naive plan.
    naive_cost = result.candidate_costs.get("naive")
    assert naive_cost is not None and result.cost < naive_cost / 10


def test_optimizer_greedy_picks_cheapest_candidate():
    catalog = batax_catalog()
    stats = Statistics.from_catalog(catalog)
    result = Optimizer(stats).optimize(BATAX_NESTED.program, catalog.mappings(),
                                       method="greedy")
    assert result.chosen_candidate in ("fused+factorized", "fused+factorized+merge", "fused")
    assert result.cost == min(result.candidate_costs.values())
    assert result.optimization_time_ms > 0


def test_optimizer_reports_table4_metrics():
    catalog = mmm_catalog(size=6)
    stats = Statistics.from_catalog(catalog)
    result = Optimizer(stats, iter_limit=4, node_limit=1500).optimize(
        MMM.program, catalog.mappings(), method="egraph")
    rows = result.table4_rows()
    assert len(rows) == 2
    assert rows[0]["stage"] == "storage-independent"
    assert rows[1]["stage"] == "storage-aware"
    for row in rows:
        assert row["iterations"] >= 1
        assert row["nodes"] > 0 and row["classes"] > 0 and row["memos"] > 0
        assert row["time_ms"] > 0


def test_optimizer_rejects_unknown_method():
    catalog = mmm_catalog(size=4)
    stats = Statistics.from_catalog(catalog)
    with pytest.raises(OptimizationError):
        Optimizer(stats).optimize(MMM.program, catalog.mappings(), method="quantum")


def test_optimizer_adapts_to_storage_choice():
    """The plan chosen for a trie-stored matrix differs from the CSR one (Fig. 9 story)."""
    size = 10
    a = random_sparse_matrix(size, size, 0.2, seed=5)
    x = random_dense_vector(size, seed=6)
    csr_catalog = (Catalog().add(CSRFormat.from_dense("A", a))
                   .add(DenseFormat.from_dense("X", x)).add_scalar("beta", 2.0))
    trie_catalog = (Catalog().add(TrieFormat.from_dense("A", a))
                    .add(DenseFormat.from_dense("X", x)).add_scalar("beta", 2.0))
    expected = reference_result(BATAX_NESTED, csr_catalog)
    for catalog in (csr_catalog, trie_catalog):
        stats = Statistics.from_catalog(catalog)
        result = Optimizer(stats).optimize(BATAX_NESTED.program, catalog.mappings(),
                                           method="greedy")
        value = evaluate(result.plan, catalog.globals())
        got = np.array([value.get(j, 0.0) for j in range(size)])
        np.testing.assert_allclose(got, expected, rtol=1e-9)
    # CSR plans mention the segmented position arrays; trie plans do not have them.
    csr_stats = Statistics.from_catalog(csr_catalog)
    csr_plan = Optimizer(csr_stats).optimize(
        BATAX_NESTED.program, csr_catalog.mappings(), method="greedy").plan
    assert "A_pos2" in str(csr_plan)
    trie_stats = Statistics.from_catalog(trie_catalog)
    trie_plan = Optimizer(trie_stats).optimize(
        BATAX_NESTED.program, trie_catalog.mappings(), method="greedy").plan
    assert "A_trie" in str(trie_plan)


# ---------------------------------------------------------------------------
# the high-level storel API
# ---------------------------------------------------------------------------


def test_storel_run_quickstart():
    catalog = batax_catalog(size=8)
    result = storel.run(BATAX_NESTED.source, catalog, dense_shape=(8,))
    expected = reference_result(BATAX_NESTED, catalog)
    np.testing.assert_allclose(result, expected)


def test_storel_run_detailed_and_explain():
    catalog = mmm_catalog(size=6)
    outcome = storel.run_detailed(MMM.source, catalog, dense_shape=(6, 6))
    expected = reference_result(MMM, catalog)
    np.testing.assert_allclose(outcome.result, expected)
    assert outcome.plan_source.startswith("<typed:")
    assert outcome.execution_stats["fallback_sums"] == 0
    assert outcome.optimization.cost > 0
    text = storel.explain(SUM_MMM.source, mmm_catalog(size=6))
    assert "chosen plan" in text and "candidate costs" in text


def test_storel_interpret_backend():
    catalog = mmm_catalog(size=5)
    default = storel.run(MMM.source, catalog, dense_shape=(5, 5))
    interpreted = storel.run(MMM.source, catalog, dense_shape=(5, 5), backend="interpret")
    np.testing.assert_allclose(default, interpreted)


# ---------------------------------------------------------------------------
# Observability: where the optimization time went, and when a stage gave up
# ---------------------------------------------------------------------------


def test_phase_ms_accounts_for_the_optimization_in_pipeline_order():
    from repro.core.optimizer import PHASES

    catalog = batax_catalog()
    stats = Statistics.from_catalog(catalog)
    optimizer = Optimizer(stats, iter_limit=4, node_limit=2000)
    optimizer.optimize(BATAX_NESTED.program, catalog.mappings(), method="egraph")
    result = optimizer.optimize(BATAX_NESTED.program, catalog.mappings(), method="egraph")
    assert tuple(result.phase_ms) == PHASES
    assert all(ms >= 0.0 for ms in result.phase_ms.values())
    assert sum(result.phase_ms.values()) <= result.optimization_time_ms + 0.01
    assert sum(result.phase_ms.values()) >= 0.9 * result.optimization_time_ms
    # The rule tables are process-wide: after first use, handing them out is
    # a list copy, and both stages run the very same rule objects.
    assert result.phase_ms["rule_tables"] < 1.0
    assert result.phase_ms["stage2_saturation"] >= result.stage2.runner.time_ms * 0.99
    greedy = optimizer.optimize(BATAX_NESTED.program, catalog.mappings(), method="greedy")
    assert tuple(greedy.phase_ms) == ("compose", "candidates")


def test_rule_tables_are_built_once_and_handed_out_as_fresh_lists():
    from repro.core.rules import all_rules, logical_rules, physical_rules

    first, second = all_rules(), all_rules()
    assert first is not second and first == second
    assert all(a is b for a, b in zip(first, second))
    assert [rule.name for rule in logical_rules() + physical_rules()] == \
        [rule.name for rule in first]
    first.clear()                       # a caller's list, not the table
    assert len(all_rules()) == len(second)


def test_rule_stats_count_declined_memo_hits_and_new_nodes():
    catalog = batax_catalog()
    stats = Statistics.from_catalog(catalog)
    result = Optimizer(stats, iter_limit=4, node_limit=2000).optimize(
        BATAX_NESTED.program, catalog.mappings(), method="egraph")
    rules = result.stage2.runner.rule_stats
    assert sum(rule.new_nodes for rule in rules.values()) > 0
    # A dynamic rule re-matched on an unchanged (e-node, term) is a memo hit,
    # not a second transform; a syntactic rule has no memo.
    assert any(rule.memo_hits > 0 for rule in rules.values())
    assert rules["mul-comm"].memo_hits == 0
    # Commutativity re-applied to its own output produces what is there.
    assert rules["mul-comm"].declined > 0
    assert rules["mul-comm"].applied + rules["mul-comm"].declined <= rules["mul-comm"].matches
    # The pre-existing row format is unchanged.
    assert list(rules["mul-comm"].as_row()) == [
        "rule", "matches", "applied", "search_ms", "apply_ms", "bans"]


def test_explanation_names_phases_top_rules_and_a_stage_that_gave_up():
    from repro.session import format_explanation

    catalog = batax_catalog()
    stats = Statistics.from_catalog(catalog)
    saturated = Optimizer(stats).optimize(
        BATAX_NESTED.program, catalog.mappings(), method="egraph")
    text = format_explanation(saturated)
    assert "optimization time by phase (ms): rule_tables" in text
    assert "rules with the most apply time:" in text
    assert "memo hits" in text and "declined" in text
    if saturated.stage2.runner.stop_reason == "saturated":
        assert "did NOT saturate" not in text
    cut = Optimizer(stats, iter_limit=1).optimize(
        BATAX_NESTED.program, catalog.mappings(), method="egraph")
    assert cut.stage2.runner.stop_reason == "iter_limit"
    loud = [line for line in format_explanation(cut).splitlines()
            if line.startswith("!!")]
    assert any("storage-aware stage did NOT saturate: stopped on iter_limit" in line
               for line in loud)
    greedy = Optimizer(stats).optimize(
        BATAX_NESTED.program, catalog.mappings(), method="greedy")
    greedy_text = format_explanation(greedy)
    assert "rules with the most apply time" not in greedy_text
    assert "time by phase" not in greedy_text      # greedy text stays reproducible
