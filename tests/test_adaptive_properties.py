"""Property tests for the adaptive feedback loop (repro.core.feedback).

The loop's contract, pinned property-style (see ``docs/adaptive.md``):

* **feedback converges** — feeding back the *exact* observed cardinality of a
  loop must make the cost model's estimate for that loop match the
  observation, so the q-error of every profiled loop is non-increasing
  across consecutive profiled runs on unchanged data;
* **refinement is idempotent** — ingesting the same profile twice adopts
  nothing new the second time (estimates already include the first
  ingest's observations), so the epoch — and with it statement
  re-preparation — settles instead of oscillating;
* the observation overlay only ever *replaces the cardinality* of a node the
  estimator would otherwise mispredict: costs keep their formulas, open
  expressions and unrelated nodes are untouched, and any catalog mutation
  clears the overlay.

Hypothesis drives the data shapes; every backend is exercised through the
same public ``Session`` surface the serving layer uses.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core.cardinality import Card, CardinalityEstimator  # noqa: E402
from repro.core.cost import CostModel  # noqa: E402
from repro.core.feedback import FeedbackConfig, FeedbackStore, q_error  # noqa: E402
from repro.core.statistics import Statistics  # noqa: E402
from repro.execution.engine import BACKENDS  # noqa: E402
from repro.execution.profile import (  # noqa: E402
    ExecutionProfile,
    observed_card,
    sum_sources_of,
)
from repro.sdqlite.ast import Idx, Sym  # noqa: E402
from repro.sdqlite.debruijn import to_debruijn_safe  # noqa: E402
from repro.sdqlite.parser import parse_expr  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.storage import CSRFormat, DenseFormat  # noqa: E402

SIZE = 24
SUM_V = "sum(<i, v> in X) v"
FILTERED = "sum(<i, v> in X) (if (v > 0.5) then v)"


def vector_session(values, **feedback):
    session = Session(feedback=FeedbackConfig(**feedback) if feedback else None)
    session.register(DenseFormat.from_dense("X", np.asarray(values, float)))
    return session


def closed_plan(source):
    return to_debruijn_safe(parse_expr(source))


# ---------------------------------------------------------------------------
# q_error
# ---------------------------------------------------------------------------

positive = st.floats(min_value=0.0, max_value=1e9, allow_nan=False)


@given(positive, positive)
def test_q_error_is_at_least_one(estimated, actual):
    assert q_error(estimated, actual) >= 1.0


@given(positive, positive)
def test_q_error_is_symmetric(estimated, actual):
    assert q_error(estimated, actual) == q_error(actual, estimated)


@given(positive)
def test_q_error_of_exact_estimate_is_one(value):
    assert q_error(value, value) == 1.0


@given(st.floats(min_value=0.0, max_value=1.0),
       st.floats(min_value=0.0, max_value=1.0))
def test_q_error_clamps_sub_row_cardinalities(estimated, actual):
    """Below one row there is nothing to misestimate: never an error."""
    assert q_error(estimated, actual) == 1.0


@given(st.floats(min_value=1.0, max_value=1e4),
       st.floats(min_value=1.0, max_value=1e4))
def test_q_error_is_the_larger_ratio(factor, base):
    assert q_error(factor * base, base) == pytest.approx(max(factor, 1.0 / 1.0))


# ---------------------------------------------------------------------------
# the observation overlay (Statistics / estimator / cost model)
# ---------------------------------------------------------------------------


@given(st.floats(min_value=1.0, max_value=1e6))
@settings(max_examples=50)
def test_observation_overrides_the_estimate_exactly(size):
    stats = Statistics()
    stats.profiles["X"] = Card.of(100.0)
    expr = to_debruijn_safe(Sym("X"))
    stats.observe(expr, Card(size, Card.scalar()))
    estimated = CardinalityEstimator(stats).estimate(expr, ())
    assert estimated.size() == pytest.approx(size)


def test_observation_does_not_touch_other_expressions():
    stats = Statistics()
    stats.profiles["X"] = Card.of(100.0)
    stats.profiles["Y"] = Card.of(7.0)
    stats.observe(to_debruijn_safe(Sym("X")), Card.of(3.0))
    estimator = CardinalityEstimator(stats)
    assert estimator.estimate(to_debruijn_safe(Sym("Y")), ()).size() == 7.0


def test_cost_model_adopts_observed_card_but_keeps_the_cost_formula():
    """The overlay corrects *cardinalities*; each node's cost formula stays."""
    stats = Statistics()
    stats.profiles["X"] = Card.of(100.0)
    expr = to_debruijn_safe(Sym("X"))
    before = CostModel(stats).analyze(expr)
    stats.observe(expr, Card.of(5.0))
    after = CostModel(stats).analyze(expr)
    assert after.card.size() == 5.0
    assert after.cost == before.cost
    assert after.kind == before.kind


def test_with_selectivity_carries_observations_with_formats_drops_them():
    stats = Statistics()
    stats.profiles["X"] = Card.of(100.0)
    expr = to_debruijn_safe(Sym("X"))
    stats.observe(expr, Card.of(5.0))
    assert stats.with_selectivity(0.5).observation(expr) is not None
    # A hypothetical format change re-derives everything: stale observations
    # about the old layout must not leak into what-if costing.
    assert not stats.with_formats({}).observations


def test_clear_observations_empties_the_overlay():
    stats = Statistics()
    expr = to_debruijn_safe(Sym("X"))
    stats.observe(expr, Card.of(5.0))
    stats.clear_observations()
    assert stats.observation(expr) is None


# ---------------------------------------------------------------------------
# FeedbackConfig / FeedbackStore mechanics
# ---------------------------------------------------------------------------


def test_feedback_config_rejects_zero_sampling():
    with pytest.raises(ValueError, match="sample_every"):
        FeedbackConfig(sample_every=0)


def test_feedback_config_rejects_sub_one_threshold():
    with pytest.raises(ValueError, match="threshold"):
        FeedbackConfig(threshold=0.5)


@given(st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=40))
@settings(max_examples=30)
def test_should_sample_fires_every_kth_call_starting_with_the_first(k, calls):
    store = FeedbackStore(FeedbackConfig(sample_every=k))
    fired = [store.should_sample() for _ in range(calls)]
    assert fired == [index % k == 0 for index in range(calls)]


def test_ingest_version_backstop_clears_foreign_observations():
    """A catalog mutated behind the session's back must not keep stale cards."""
    stats = Statistics()
    stats.profiles["X"] = Card.of(100.0)
    stats.observe(to_debruijn_safe(Sym("X")), Card.of(3.0))
    store = FeedbackStore(FeedbackConfig(sample_every=1))

    class NoLoops:
        plan = None

        def loop_sources(self):
            return {}

    store.ingest(stats, NoLoops(), ExecutionProfile(), catalog_version=1)
    assert not stats.observations
    stats.observe(to_debruijn_safe(Sym("X")), Card.of(3.0))
    store.ingest(stats, NoLoops(), ExecutionProfile(), catalog_version=1)
    assert stats.observations  # same version: overlay left alone


def test_store_snapshot_reports_lifetime_counters():
    store = FeedbackStore(FeedbackConfig(sample_every=4, threshold=3.0))
    snapshot = store.snapshot()
    assert snapshot == {"epoch": 0, "profiled_runs": 0,
                        "observations_checked": 0, "misestimations": 0,
                        "refinements": 0, "sample_every": 4, "threshold": 3.0}


# ---------------------------------------------------------------------------
# ExecutionProfile / observed_card
# ---------------------------------------------------------------------------


def test_profile_means_iterations_over_loop_entries():
    profile = ExecutionProfile()
    profile.record_loop("slot", 10.0)
    profile.record_loop("slot", 20.0)
    assert profile.mean_iterations("slot") == 15.0
    assert profile.mean_iterations("other") is None


def test_loop_observations_drop_open_and_unknown_sources():
    profile = ExecutionProfile()
    profile.record_loop(0, 8.0)
    profile.record_loop(1, 4.0)
    profile.record_loop(2, 2.0)
    closed = to_debruijn_safe(Sym("X"))
    observed = profile.loop_observations({0: closed, 1: Idx(0)})
    assert observed == {closed: 8.0}  # Idx(0) is open, slot 2 has no source


@given(st.lists(st.lists(st.floats(min_value=0.1, max_value=9.0),
                         min_size=1, max_size=5),
                min_size=1, max_size=6))
@settings(max_examples=40)
def test_observed_card_top_level_is_exact(rows):
    value = {i: {j: x for j, x in enumerate(row)} for i, row in enumerate(rows)}
    card = observed_card(value)
    assert card.count == len(rows)
    assert not card.is_scalar


def test_observed_card_of_a_scalar_is_scalar():
    assert observed_card(3.5).is_scalar


def test_observed_card_of_empty_buffer_dict_truncates_at_empty_level():
    # Regression: the BufferDict fast path used to emit a 0.0 per *declared*
    # level below an empty one — zero-cardinality observations for loops that
    # never ran, which poisoned the feedback overlay.  An empty level has no
    # children; the card must stop there.
    from repro.execution.buffers import BufferDict, BufferLevels

    levels = BufferLevels.from_sorted_coords(
        np.empty((0, 3), dtype=np.int64), np.empty(0))
    card = observed_card(BufferDict(levels))
    assert card.count == 0.0
    assert card.elem().is_scalar  # truncated: no spurious deeper levels


def test_observed_card_of_nonempty_buffer_dict_is_exact_per_level():
    from repro.execution.buffers import BufferDict, BufferLevels

    coords = np.array([[0, 0], [0, 1], [2, 0]], dtype=np.int64)
    levels = BufferLevels.from_sorted_coords(coords, np.ones(3))
    card = observed_card(BufferDict(levels))
    assert card.count == 2.0            # two distinct outer keys
    assert card.elem().count == 1.5     # three inner entries over two parents


def test_sum_sources_of_finds_every_loop():
    plan = closed_plan("sum(<i, v> in X) sum(<j, w> in v) w")
    assert len(sum_sources_of(plan)) == 2


# ---------------------------------------------------------------------------
# the convergence property, end-to-end per backend
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_profiled_run_reports_feedback_counters(backend):
    session = vector_session(np.arange(SIZE, dtype=float), sample_every=1)
    statement = session.prepare(SUM_V, backend=backend)
    stats: dict = {}
    result = statement.execute_with_stats(stats)
    assert result == pytest.approx(float(np.arange(SIZE).sum()))
    assert stats["profiled_runs"] == 1
    assert stats["feedback_checked"] >= 1
    assert stats["feedback_max_q_error"] >= 1.0


@pytest.mark.parametrize("backend", BACKENDS)
def test_unprofiled_run_reports_no_feedback_counters(backend):
    session = vector_session(np.arange(SIZE, dtype=float))
    stats: dict = {}
    session.prepare(SUM_V, backend=backend).execute_with_stats(stats)
    assert "profiled_runs" not in stats
    assert session.feedback is None


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("program", [SUM_V, FILTERED])
def test_feedback_q_error_never_worsens_on_static_data(backend, program):
    """Exact observations make estimates match: q-error is non-increasing."""
    rng = np.random.default_rng(11)
    session = vector_session(rng.random(SIZE), sample_every=1, threshold=1.01)
    statement = session.prepare(program, backend=backend)
    errors = []
    for _ in range(4):
        stats: dict = {}
        statement.execute_with_stats(stats)
        errors.append(stats["feedback_max_q_error"])
    assert all(late <= early + 1e-9
               for early, late in zip(errors, errors[1:]))
    # Once adopted, the observation *is* the estimate: the final profiled
    # run sees (essentially) no error left on anything it can observe.
    assert errors[-1] <= max(1.02, errors[0])


@pytest.mark.parametrize("backend", BACKENDS)
def test_refinement_is_idempotent_on_static_data(backend):
    """After the loop settles, further profiled runs adopt nothing new."""
    rng = np.random.default_rng(5)
    session = vector_session(rng.random(SIZE), sample_every=1, threshold=1.01)
    statement = session.prepare(FILTERED, backend=backend)
    statement.execute()
    settled = session.feedback.epoch
    before = statement.execute()
    for _ in range(3):
        assert statement.execute() == pytest.approx(before)
    assert session.feedback.epoch == settled
    assert session.feedback.refinements == settled


def test_ingesting_the_same_profile_twice_adopts_nothing_new():
    stats = Statistics()
    stats.profiles["X"] = Card.of(100.0)
    plan = closed_plan(SUM_V)
    (sum_node, source), = sum_sources_of(plan).items()

    class Prepared:
        plan = None

        def loop_sources(self):
            return {0: source}

    profile = ExecutionProfile()
    profile.record_loop(0, 40.0)
    store = FeedbackStore(FeedbackConfig(sample_every=1, threshold=1.5))
    first = store.ingest(stats, Prepared(), profile, catalog_version=0)
    assert first["feedback_refined"] == 1 and store.epoch == 1
    second = store.ingest(stats, Prepared(), profile, catalog_version=0)
    assert second["feedback_refined"] == 0 and store.epoch == 1
    assert second["feedback_max_q_error"] == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# session integration: transparent re-preparation, epoch discipline
# ---------------------------------------------------------------------------


def make_matrix_session(**feedback):
    rng = np.random.default_rng(3)
    a = np.where(rng.random((SIZE, SIZE)) < 0.3, rng.random((SIZE, SIZE)), 0.0)
    x = rng.random(SIZE)
    session = Session(feedback=FeedbackConfig(**feedback) if feedback else None)
    session.register(CSRFormat.from_dense("A", a))
    session.register(DenseFormat.from_dense("X", x))
    return session, a, x


def test_misestimation_triggers_transparent_reprepare():
    session, a, x = make_matrix_session(sample_every=1, threshold=2.0)
    program = "sum(<i, Ai> in A) sum(<j, v> in Ai) v * X(j)"
    statement = session.prepare(program, backend="typed")
    # Corrupt the derived statistics the optimizer loops over so the first
    # profiled run observes a massive q-error on the outer range loop.
    session.statistics().scalar_values["A_len1"] = 1_000_000.0
    expected = float((a @ x).sum())
    assert statement.execute() == pytest.approx(expected)
    assert session.feedback.epoch >= 1
    seen = statement._feedback_seen
    # The next execution revalidates against the moved epoch, re-prepares
    # with the adopted observation, and still returns the same value.
    assert statement.execute() == pytest.approx(expected)
    assert statement._feedback_seen == session.feedback.epoch >= seen


def test_catalog_mutation_clears_the_observation_overlay():
    session, _, _ = make_matrix_session(sample_every=1, threshold=1.01)
    statement = session.prepare(SUM_V.replace("X", "A"), backend="interpret")
    statement.execute()
    session.set_scalar("c", 2.0)
    assert not session.statistics().observations


def test_enable_feedback_is_idempotent_and_reconfigurable():
    session, _, _ = make_matrix_session()
    assert session.feedback is None
    session.enable_feedback(sample_every=2)
    store = session.feedback
    session.enable_feedback(sample_every=2)
    assert session.feedback is store          # same config: same store
    session.enable_feedback(sample_every=5)
    assert session.feedback is not store      # new config: fresh store


def test_disable_feedback_stops_the_loop_but_keeps_observations():
    session, _, _ = make_matrix_session(sample_every=1, threshold=1.01)
    session.statistics().scalar_values["A_len1"] = 1_000_000.0  # force a lie
    statement = session.prepare(SUM_AX, backend="typed")
    statement.execute()                       # profiled: adopts observations
    adopted = dict(session.statistics().observations)
    assert adopted

    session.disable_feedback()
    assert session.feedback is None
    assert session.feedback_report() == {}
    statement.execute()                       # no store: nothing profiled
    assert session.statistics().observations == adopted

    session.enable_feedback(sample_every=1)   # fresh store, reset counters
    assert session.feedback.profiled_runs == 0


def test_run_outcome_explain_renders_feedback_counters():
    session, _, _ = make_matrix_session(sample_every=1)
    outcome = session.run_detailed("sum(<i, Ai> in A) sum(<j, v> in Ai) v",
                                   backend="typed")
    rendered = outcome.explain()
    assert "feedback_checked" in rendered
    assert "profiled_runs" in rendered
    assert "feedback_max_q_error" in rendered


def test_feedback_report_mirrors_store_snapshot():
    session, _, _ = make_matrix_session(sample_every=1)
    assert session.feedback_report()["profiled_runs"] == 0
    session.prepare(SUM_V.replace("X", "A"), backend="typed").execute()
    report = session.feedback_report()
    assert report["profiled_runs"] == 1
    assert report["epoch"] == session.feedback.epoch


# ---------------------------------------------------------------------------
# serving-layer integration
# ---------------------------------------------------------------------------


def make_server(**overrides):
    from repro.serving import Server
    from repro.storage import Catalog

    rng = np.random.default_rng(3)
    a = np.where(rng.random((SIZE, SIZE)) < 0.3, rng.random((SIZE, SIZE)), 0.0)
    x = rng.random(SIZE)
    catalog = (Catalog()
               .add(CSRFormat.from_dense("A", a))
               .add(DenseFormat.from_dense("X", x)))
    return Server(catalog, **overrides), a, x


SUM_AX = "sum(<i, Ai> in A) sum(<j, v> in Ai) v * X(j)"


def test_server_profile_every_zero_disables_the_loop():
    server, a, x = make_server()
    with server:
        assert server.feedback is None
        assert server.feedback_report() == {}
        assert server.execute(SUM_AX) == pytest.approx(float((a @ x).sum()))
        assert server.stats.snapshot()["profiled_runs"] == 0


def test_server_profiled_requests_are_counted_and_correct():
    server, a, x = make_server(profile_every=1)
    with server:
        for _ in range(3):
            assert server.execute(SUM_AX) == pytest.approx(float((a @ x).sum()))
        snapshot = server.stats.snapshot()
        assert snapshot["profiled_runs"] == 3
        assert server.feedback_report()["profiled_runs"] == 3


def test_server_reoptimizes_without_schema_reprepare_on_misestimation():
    """A bumped adaptive epoch re-optimizes the plan; the schema never moved."""
    server, a, x = make_server(profile_every=1, reoptimize_threshold=2.0)
    with server:
        # Poison the snapshot's derived statistics so the first profiled run
        # observes a massive q-error on the outer loop's range.
        server.statistics().scalar_values["A_len1"] = 1_000_000.0
        expected = float((a @ x).sum())
        assert server.execute(SUM_AX) == pytest.approx(expected)
        assert server.feedback.epoch >= 1
        assert server.execute(SUM_AX) == pytest.approx(expected)
        snapshot = server.stats.snapshot()
        assert snapshot["misestimations"] >= 1
        assert snapshot["re_optimizations"] >= 1
        assert snapshot["re_prepares"] == 0


# ---------------------------------------------------------------------------
# the adaptive fuzz oracle (divergence detection + seeded smoke)
# ---------------------------------------------------------------------------


def test_adaptive_fuzz_smoke_campaign_is_divergence_free():
    from repro.fuzz import adaptive_campaign

    report = adaptive_campaign(13, 12)
    assert report.cases_run == 12
    assert not report.divergences


def test_adaptive_oracle_detects_a_wrong_witness(monkeypatch):
    """If results ever disagreed with the reference, the oracle would say so."""
    import random

    from repro.fuzz import oracle
    from repro.fuzz.oracle import (
        case_seed,
        check_adaptive_case,
        generate_case,
        generate_delta_updates,
    )

    case = generate_case(case_seed(7, 12))
    deltas = generate_delta_updates(case, random.Random(case.seed ^ 0x0ADA9FED), 3)
    assert check_adaptive_case(case, deltas) is None
    real = oracle._ivm_state_results
    monkeypatch.setattr(oracle, "_ivm_state_results",
                        lambda *args: [{"wrong": 1.0}
                                       for _ in real(*args)])
    divergence = check_adaptive_case(case, deltas)
    assert divergence is not None
    assert divergence.expected == {"wrong": 1.0}
    assert divergence.step == -1
    assert "adaptive" in divergence.describe() or divergence.method
