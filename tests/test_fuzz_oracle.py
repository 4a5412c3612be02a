"""Tests for the differential oracle, the shrinker and the corpus format.

Four layers:

* the comparison layer itself (``canonical`` / ``results_match``) — the one
  place result equality is defined;
* a seeded smoke campaign over the real pipeline (both backends, greedy and
  e-graph optimization) that must be divergence-free;
* an *injected bug* — the optimizer's chosen plan is corrupted by flipping a
  multiplication into an addition, mimicking a wrong rewrite rule — which the
  oracle must catch, the shrinker must minimize to a tiny repro, and the
  corpus round-trip must replay;
* the one case model: views, feedback and point-updates checked together,
  and an injected wrong witness shrunk through the update-sequence passes.
"""

import random

import numpy as np
import pytest

from repro.core.optimizer import Optimizer
from repro.fuzz import (
    CaseSkipped,
    FuzzCase,
    OracleConfig,
    campaign,
    canonical,
    check_case,
    generate_case,
    load_corpus_case,
    render_corpus_case,
    replay,
    results_match,
    shrink_case,
)
from repro.sdqlite import node_count, parse_expr
from repro.sdqlite.ast import Add, Mul, children, postorder, rebuild, symbols
from repro.sdqlite.values import SemiringDict


# ---------------------------------------------------------------------------
# canonical / results_match: the single comparison layer
# ---------------------------------------------------------------------------


def test_canonical_prunes_near_zeros_and_normalizes():
    value = SemiringDict({0: 1.0, 1: {2: 1e-15}, 3: True})
    assert canonical(value) == {0: 1.0, 3: 1}
    assert canonical(np.float64(2.5)) == 2.5
    assert canonical(0.0) == 0.0


def test_canonical_keeps_nan_entries():
    """A NaN entry is not a zero: pruning it would hide a result that has one."""
    value = canonical({0: float("nan"), 1: 2.0, 2: {3: float("nan")}})
    assert set(value) == {0, 1, 2} and value[0] != value[0] and value[2][3] != value[2][3]
    assert not results_match(value, canonical({1: 2.0}))
    assert results_match(value, canonical({0: float("nan"), 1: 2.0, 2: {3: float("nan")}}))


def test_results_match_tolerates_missing_keys_as_zero():
    assert results_match({0: 1.0}, {0: 1.0, 1: 1e-12})
    assert results_match({}, 0.0)
    assert results_match(0.0, {0: {1: 1e-12}})
    assert not results_match({0: 1.0}, {0: 1.0, 1: 0.5})
    assert not results_match({0: 1.0}, {})
    assert not results_match(1.0, {0: 1.0})


def test_results_match_is_tolerant_to_float_reassociation():
    left = {0: 0.1 + 0.2}
    right = {0: 0.3}
    assert results_match(left, right)
    assert not results_match({0: 1.0}, {0: 1.0 + 1e-3})


# ---------------------------------------------------------------------------
# the oracle on the real pipeline
# ---------------------------------------------------------------------------


def _mmm_case() -> FuzzCase:
    rng = np.random.default_rng(0)
    return FuzzCase(
        seed=0,
        program=parse_expr("sum(<(i,j), a> in T0, <(j2,k), b> in T1) "
                           "if (j == j2) then { (i, k) -> a * b * c0 }"),
        tensors={"T0": rng.uniform(0.1, 1, (4, 3)) * (rng.random((4, 3)) < 0.6),
                 "T1": rng.uniform(0.1, 1, (3, 4)) * (rng.random((3, 4)) < 0.6)},
        formats={"T0": "csr", "T1": "csc"},
        scalars={"c0": 2.0},
    )


def test_check_case_agrees_on_handwritten_kernel_all_engines():
    config = OracleConfig()
    assert {method for method, _ in config.pairs()} == {"unoptimized", "greedy", "egraph"}
    assert check_case(_mmm_case(), config) is None


def test_check_case_skips_when_reference_fails():
    case = _mmm_case().replace(program=parse_expr("1 / 0"))
    with pytest.raises(CaseSkipped):
        check_case(case)


def test_seeded_smoke_campaign_is_divergence_free():
    report = campaign(seed=7, cases=25, shrink=False)
    assert report.cases_run == 25
    assert report.ok, "\n".join(d.describe() for d in report.divergences)
    assert "OK" in report.summary()
    # ... and says, in one line, what `typed` did not kernelize.
    assert report.typed_loops > 0
    assert report.fallback_loops == sum(report.fallback_reasons.values())
    assert report.fallback_cases <= min(report.fallback_loops, report.cases_run)
    census = report.summary().splitlines()[1]
    assert census.startswith(f"typed census: {report.fallback_loops} of "
                             f"{report.typed_loops} loops fell back to Python")
    assert all(reason in census for reason in report.fallback_reasons)


def test_campaign_report_folds_typed_counters_per_case():
    from repro.fuzz import CampaignReport

    report = CampaignReport(seed=0)
    clean = {"sum_loops": 3, "merge_loops": 1, "fallback_sums": 0,
             "fallback_merges": 0, "fallback_reasons": {}, "proven_guards": 2,
             "contiguous_reads": 1, "segment_tables": 1, "collapsed_segments": 1}
    report.record_typed([clean, clean])
    report.record_typed([clean, {**clean, "fallback_sums": 2, "fallback_merges": 1,
                                 "fallback_reasons": {"a": 2, "b": 1}}])
    report.record_typed([{**clean, "fallback_sums": 1, "fallback_reasons": {"a": 1}}])
    assert (report.typed_loops, report.fallback_loops, report.fallback_cases) == (20, 4, 2)
    assert report.fallback_reasons == {"a": 3, "b": 1}
    assert report.summary().endswith(
        "typed census: 4 of 20 loops fell back to Python in 2 case(s), "
        "10 guard(s) proven, 5 contiguous read(s), 5 segment table(s), "
        "5 collapsed segment traversal(s): 3 x a; 1 x b")
    # Campaigns that collect no typed counters print no census line.
    assert "census" not in CampaignReport(seed=0).summary()


# ---------------------------------------------------------------------------
# injected bug: flip Mul -> Add in the optimizer's chosen plan
# ---------------------------------------------------------------------------


def _flip_first_mul(expr):
    for node in postorder(expr):
        if isinstance(node, Mul):
            target = node
            break
    else:
        return expr

    def rewrite(node):
        if node is target:
            return Add(node.left, node.right)
        kids = [rewrite(child) for child in children(node)]
        return rebuild(node, kids) if kids else node

    return rewrite(expr)


@pytest.fixture
def broken_optimizer(monkeypatch):
    """An optimizer whose chosen plan has one Mul flipped into an Add."""
    real = Optimizer.optimize

    def corrupt(self, program, mappings, method="egraph"):
        result = real(self, program, mappings, method=method)
        result.plan = _flip_first_mul(result.plan)
        return result

    monkeypatch.setattr(Optimizer, "optimize", corrupt)


def test_injected_bug_is_caught_shrunk_and_serialized(broken_optimizer, tmp_path):
    report = campaign(seed=11, cases=60, shrink=True,
                      out_dir=tmp_path, max_failures=1)
    assert not report.ok, "the injected Mul->Add bug was not detected"
    divergence = report.divergences[0]
    assert divergence.method in ("greedy", "egraph")
    # Shrinking must produce a tiny, self-contained repro.
    assert node_count(divergence.case.program) <= 25
    assert len(divergence.case.tensors) <= 2
    rendered = render_corpus_case(divergence)
    assert rendered.count("\n") <= 10, rendered
    assert report.corpus_paths, "no corpus file written"

    # The corpus file round-trips: load it and re-check under the recorded
    # configs.  Under the still-broken optimizer it diverges...
    case, configs = load_corpus_case(report.corpus_paths[0])
    assert replay(case, configs) is not None


def test_corpus_case_replays_clean_once_bug_is_fixed(tmp_path):
    # Build a corpus file from an injected-bug run, then replay it against
    # the healthy code: the regression test passes once the bug is gone.
    real = Optimizer.optimize

    def corrupt(self, program, mappings, method="egraph"):
        result = real(self, program, mappings, method=method)
        result.plan = _flip_first_mul(result.plan)
        return result

    try:
        Optimizer.optimize = corrupt
        report = campaign(seed=11, cases=60, shrink=True,
                          out_dir=tmp_path, max_failures=1)
    finally:
        Optimizer.optimize = real
    assert report.corpus_paths
    case, configs = load_corpus_case(report.corpus_paths[0])
    assert replay(case, configs) is None


def test_corpus_entry_naming_an_unknown_backend_is_rejected_at_load(tmp_path):
    from repro.fuzz import load_corpus_entry
    from repro.sdqlite.errors import ExecutionError

    path = tmp_path / "stale.py"
    path.write_text('PROGRAM = "sum(<k, v> in T0) v"\n'
                    'TENSORS = {"T0": [1.0, 2.0]}\n'
                    'FORMATS = {"T0": "dense"}\n'
                    'CONFIGS = [("greedy", "typed"), ("egraph", "vectorize")]\n')
    with pytest.raises(ExecutionError, match="'vectorize' backend was removed"):
        load_corpus_entry(path)


def test_corpus_entry_naming_an_unknown_method_is_rejected_at_load(tmp_path):
    from repro.fuzz import load_corpus_entry
    from repro.sdqlite.errors import OptimizationError

    path = tmp_path / "stale.py"
    path.write_text('PROGRAM = "sum(<k, v> in T0) v"\n'
                    'TENSORS = {"T0": [1.0, 2.0]}\n'
                    'FORMATS = {"T0": "dense"}\n'
                    'CONFIGS = [("egraph", "interpret"), ("egraph-legacy", "interpret")]\n')
    with pytest.raises(OptimizationError, match="'egraph-legacy' method was removed"):
        load_corpus_entry(path)
    path.write_text(path.read_text().replace("egraph-legacy", "simplex"))
    with pytest.raises(OptimizationError, match="unknown method 'simplex'"):
        load_corpus_entry(path)


# ---------------------------------------------------------------------------
# one case model: updates x views x feedback in one check
# ---------------------------------------------------------------------------


def test_views_feedback_and_point_updates_check_clean_together(monkeypatch):
    """Maintained views and the always-profiling feedback loop on one server,
    across seeded sparse point-updates: every view and every statement
    equals the reference at every step, while the loop re-optimizes and the
    views maintain through their delta statements."""
    from repro.fuzz import ADAPTIVE_FUZZ_FEEDBACK, case_seed, oracle

    case = generate_case(case_seed(5, 3)).replace(views=True, feedback=True)
    case = case.replace(updates=tuple(oracle.generate_updates(
        case, random.Random(case.seed), 4, delta=True)))
    assert case.mode == "ivm+adaptive"
    assert [update.kind for update in case.updates] == ["delta"] * 4
    assert ADAPTIVE_FUZZ_FEEDBACK["sample_every"] == 1
    opened = []
    real = oracle._open_session
    monkeypatch.setattr(oracle, "_open_session",
                        lambda *args: opened.append(real(*args)) or opened[-1])
    assert check_case(case) is None
    server, = opened
    assert server.feedback_report()["refinements"] > 0
    assert server.stats.snapshot()["delta_executions"] > 0


def _wrong_after_wide_delta(real):
    """A wrong reference (a wrong IVM witness) at every state after the first
    point-update with two or more entries."""
    def state_results(case, config):
        results = real(case, config)
        wide = [index for index, update in enumerate(case.updates) if len(update.coords) >= 2]
        if not wide:
            return results
        return results[:wide[0] + 1] + [{"wrong": 1.0}] * (len(results) - wide[0] - 1)
    return state_results


def test_injected_update_bug_shrinks_through_the_update_passes(monkeypatch, tmp_path):
    from repro.fuzz import load_corpus_entry, oracle

    real = oracle._state_results
    monkeypatch.setattr(oracle, "_state_results", _wrong_after_wide_delta(real))
    report = campaign(seed=5, cases=4, views=True, out_dir=tmp_path, max_failures=1)
    assert not report.ok
    divergence = report.divergences[0]
    # Only the bug's trigger survives: one update, pared down to two entries,
    # and the failure moved to the step right after it.
    assert len(divergence.case.updates) == 1
    assert len(divergence.case.updates[0].coords) == 2
    assert divergence.step == 0 and divergence.expected == {"wrong": 1.0}
    assert divergence.method != "*"
    assert node_count(divergence.case.program) <= 3
    # The corpus file round-trips: same case, diverging under the bug ...
    entry = load_corpus_entry(report.corpus_paths[0])
    assert entry.mode == "ivm" and entry.updates == list(divergence.case.updates)
    assert replay(entry.case, entry.configs) is not None
    # ... and clean once the bug is gone.
    monkeypatch.setattr(oracle, "_state_results", real)
    assert replay(entry.case, entry.configs) is None


# ---------------------------------------------------------------------------
# shrinker mechanics
# ---------------------------------------------------------------------------


def test_shrinker_reduces_an_artificial_divergence():
    # A fake predicate: "fails" whenever the program still references T0 and
    # T0 still has a non-zero somewhere.  The shrinker should strip the
    # program to a bare reference and the tensor to a single non-zero.
    from repro.fuzz.oracle import Divergence
    import repro.fuzz.shrink as shrink_module

    case = _mmm_case()
    divergence = Divergence(case, "greedy", "typed", expected=0, actual=1)

    def fake_check(candidate, config):
        if "T0" not in candidate.tensors or not candidate.tensors["T0"].any():
            return None
        if "T0" not in symbols(candidate.program):
            return None
        return Divergence(candidate, "greedy", "typed", expected=0, actual=1)

    real_check = shrink_module.check_case
    shrink_module.check_case = fake_check
    try:
        shrunk = shrink_case(divergence, OracleConfig())
    finally:
        shrink_module.check_case = real_check
    assert node_count(shrunk.case.program) < node_count(case.program)
    assert np.count_nonzero(shrunk.case.tensors["T0"]) <= 1
    assert "T1" not in shrunk.case.tensors  # garbage-collected
