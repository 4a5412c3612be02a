"""Tests for the session / prepared-statement API (repro.session)."""

import numpy as np
import pytest

from repro import storel
from repro.baselines.storel_system import StorelSystem
from repro.core.statistics import Statistics
from repro.execution.engine import BACKENDS, PlanCache
from repro.kernels import BATAX
from repro.sdqlite.errors import SDQLiteError, StorageError
from repro.session import Session, Statement
from repro.storage import Catalog, CSRFormat, DenseFormat, TrieFormat

SIZE = 32
BATAX_PROGRAM = (
    "sum(<i, Ai> in A) sum(<j, Aij> in Ai) sum(<k, Aik> in Ai) "
    "{ j -> beta * Aij * Aik * X(k) }"
)


def make_inputs(seed=3):
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((SIZE, SIZE)) < 0.2, rng.random((SIZE, SIZE)), 0.0)
    x = rng.random(SIZE)
    return a, x


def make_session(a, x, beta=2.0, **kwargs):
    return (Session(**kwargs)
            .register(CSRFormat.from_dense("A", a))
            .register(DenseFormat.from_dense("X", x))
            .set_scalar("beta", beta))


def fresh_catalog(a, x, beta):
    return (Catalog()
            .add(CSRFormat.from_dense("A", a))
            .add(DenseFormat.from_dense("X", x))
            .add_scalar("beta", beta))


def batax_oracle(a, x, beta):
    return beta * (a.T @ (a @ x))


# ---------------------------------------------------------------------------
# prepare / execute
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_statement_rebinds_scalars_identically_to_fresh_run(backend):
    """execute(**params) == a fresh storel.run with that catalog, per backend."""
    a, x = make_inputs()
    session = make_session(a, x)
    statement = session.prepare(BATAX_PROGRAM, backend=backend, dense_shape=(SIZE,))
    for beta in (0.25, 1.0, 5.0):
        prepared_result = statement.execute(beta=beta)
        fresh_result = storel.run(BATAX_PROGRAM, fresh_catalog(a, x, beta),
                                  backend=backend, dense_shape=(SIZE,))
        np.testing.assert_allclose(prepared_result, fresh_result)
        np.testing.assert_allclose(prepared_result, batax_oracle(a, x, beta))


def test_statement_without_params_uses_catalog_values():
    a, x = make_inputs()
    session = make_session(a, x, beta=3.0)
    statement = session.prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    np.testing.assert_allclose(statement.execute(), batax_oracle(a, x, 3.0))
    # Parameter overrides are per-execution: the catalog value is untouched.
    statement.execute(beta=9.0)
    assert session.catalog.scalars["beta"] == 3.0
    np.testing.assert_allclose(statement.execute(), batax_oracle(a, x, 3.0))


def test_statement_rejects_unknown_parameters():
    a, x = make_inputs()
    statement = make_session(a, x).prepare(BATAX_PROGRAM)
    with pytest.raises(StorageError, match="gamma"):
        statement.execute(gamma=1.0)
    with pytest.raises(StorageError):
        statement.execute_many([{"beta": 1.0}, {"nope": 2.0}])


def test_execute_many_matches_individual_executes():
    a, x = make_inputs()
    statement = make_session(a, x).prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    betas = [0.1, 0.5, 2.0, 8.0]
    batch = statement.execute_many([{"beta": beta} for beta in betas])
    assert len(batch) == len(betas)
    for beta, result in zip(betas, batch):
        np.testing.assert_allclose(result, statement.execute(beta=beta))


def test_execute_many_heterogeneous_batches_do_not_leak_bindings():
    """A batch without a parameter sees the catalog value, not the previous batch's."""
    a, x = make_inputs()
    statement = make_session(a, x, beta=2.0).prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    first, second = statement.execute_many([{"beta": 1.0}, {}])
    np.testing.assert_allclose(first, batax_oracle(a, x, 1.0))
    np.testing.assert_allclose(second, batax_oracle(a, x, 2.0))  # catalog value


def test_statement_introspection():
    a, x = make_inputs()
    statement = make_session(a, x).prepare(BATAX_PROGRAM)
    assert statement.cost == statement.optimization.cost > 0
    assert statement.plan is statement.optimization.plan
    assert "chosen plan" in statement.explain()
    assert isinstance(statement.plan_source, str) and statement.plan_source
    assert isinstance(statement, Statement)


def test_session_run_matches_one_shot_helpers():
    a, x = make_inputs()
    session = make_session(a, x, beta=1.5)
    catalog = fresh_catalog(a, x, 1.5)
    np.testing.assert_allclose(session.run(BATAX_PROGRAM, dense_shape=(SIZE,)),
                               storel.run(BATAX_PROGRAM, catalog, dense_shape=(SIZE,)))
    detailed = session.run_detailed(BATAX_PROGRAM, dense_shape=(SIZE,))
    assert detailed.optimization.chosen_candidate is not None
    assert detailed.plan_source


def test_explain_shared_pipeline_and_optimizer_options():
    a, x = make_inputs()
    session = make_session(a, x)
    text = session.explain(BATAX_PROGRAM)
    assert "chosen plan" in text and "candidate costs" in text
    # storel.explain routes through the same code path and accepts options.
    via_storel = storel.explain(BATAX_PROGRAM, fresh_catalog(a, x, 2.0),
                                optimizer_options={"iter_limit": 2})
    assert "chosen plan" in via_storel
    # Options must actually reach the optimizer: bogus ones blow up.
    with pytest.raises(TypeError):
        session.explain(BATAX_PROGRAM, optimizer_options={"not_an_option": 1})


def test_session_memoizes_optimization_across_backends_and_statements():
    a, x = make_inputs()
    session = make_session(a, x)
    typed = session.prepare(BATAX_PROGRAM, backend="typed")
    interpreted = session.prepare(BATAX_PROGRAM, backend="interpret")
    assert typed.optimization is interpreted.optimization  # optimized once
    assert session.prepare(BATAX_PROGRAM).optimization is typed.optimization


def test_session_context_manager_closes():
    a, x = make_inputs()
    with make_session(a, x) as session:
        statement = session.prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
        np.testing.assert_allclose(statement.execute(), batax_oracle(a, x, 2.0))
    # close() dropped derived state, but the catalog survives.
    assert "A" in session.catalog


# ---------------------------------------------------------------------------
# catalog mutation and epoch-based invalidation
# ---------------------------------------------------------------------------


def test_value_only_mutation_refreshes_environment_without_staleness():
    a, x = make_inputs()
    session = make_session(a, x, beta=1.0)
    statement = session.prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    statement.execute()
    session.set_scalar("beta", 4.0)
    assert not statement.is_stale  # value-only: the plan is still good
    np.testing.assert_allclose(statement.execute(), batax_oracle(a, x, 4.0))


def test_schema_mutation_marks_statements_stale_and_reprepares():
    a, x = make_inputs()
    session = make_session(a, x)
    statement = session.prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    before = statement.execute(beta=1.0)
    session.replace_format(TrieFormat.from_dense("A", a))
    assert statement.is_stale
    after = statement.execute(beta=1.0)  # transparently re-prepared
    assert not statement.is_stale
    np.testing.assert_allclose(after, before)
    # New data through the same statement.
    a2 = np.triu(a)
    session.replace_format(CSRFormat.from_dense("A", a2))
    np.testing.assert_allclose(statement.execute(beta=1.0), batax_oracle(a2, x, 1.0))


def test_dropping_a_required_tensor_breaks_the_statement():
    a, x = make_inputs()
    session = make_session(a, x)
    statement = session.prepare(BATAX_PROGRAM)
    statement.execute()
    session.drop("X")
    assert statement.is_stale
    with pytest.raises(SDQLiteError):
        statement.execute()


def test_incremental_statistics_match_full_rebuild():
    a, x = make_inputs()
    session = make_session(a, x)
    assert session.statistics() is session.statistics()  # memoized

    def check():
        incremental = session.statistics()
        rebuilt = Statistics.from_catalog(session.catalog)
        assert incremental.profiles == rebuilt.profiles
        assert incremental.kinds == rebuilt.kinds
        assert incremental.scalar_values == rebuilt.scalar_values
        assert incremental.segments == rebuilt.segments

    stats = session.statistics()
    session.register(DenseFormat.from_dense("Y", x * 2))
    assert session.statistics() is stats  # patched in place, not rebuilt
    check()
    session.set_scalar("beta", 7.0)
    check()
    session.set_scalar("gamma", 1.0)
    check()
    session.replace_format(TrieFormat.from_dense("A", a))
    check()
    session.drop("Y")
    session.drop("gamma")
    check()
    assert session.statistics() is stats


def test_direct_catalog_mutation_triggers_full_stats_rebuild():
    a, x = make_inputs()
    session = make_session(a, x)
    stats = session.statistics()
    session.catalog.add_scalar("gamma", 2.0)  # behind the session's back
    rebuilt = session.statistics()
    assert rebuilt is not stats
    assert rebuilt.scalar_values["gamma"] == 2.0


# ---------------------------------------------------------------------------
# plan cache under mutation
# ---------------------------------------------------------------------------


def test_scalar_rebind_does_not_force_relowering():
    """env_signature keys on the schema, so value changes keep the artifact."""
    a, x = make_inputs()
    cache = PlanCache()
    session = make_session(a, x, cache=cache)
    statement = session.prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    assert (cache.hits, cache.misses) == (0, 1)
    statement.execute(beta=0.5)
    statement.execute(beta=2.5)
    session.set_scalar("beta", 9.0)
    statement.execute()
    assert cache.misses == 1  # never re-lowered
    assert len(cache) == 1


def test_schema_bump_evicts_stale_prepared_plans():
    a, x = make_inputs()
    cache = PlanCache()
    session = make_session(a, x, cache=cache)
    statement = session.prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    assert len(cache) == 1
    session.register(DenseFormat.from_dense("Z", x))  # schema epoch bump
    statement.execute(beta=1.0)  # re-prepares: new env schema -> new artifact
    assert cache.misses == 2
    assert len(cache) == 1  # the superseded artifact was evicted


def test_same_format_replace_keeps_the_prepared_plan_warm():
    """Re-storing a tensor in the same format is a value-only epoch bump: the
    prepared statement stays valid and executes without re-probing the cache."""
    a, x = make_inputs()
    cache = PlanCache()
    session = make_session(a, x, cache=cache)
    statement = session.prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    assert (cache.hits, cache.misses) == (0, 1)
    session.replace_format(CSRFormat.from_dense("A", a))  # same format, same stats
    np.testing.assert_allclose(statement.execute(beta=1.0), batax_oracle(a, x, 1.0))
    assert (cache.hits, cache.misses) == (0, 1)  # no re-prepare, no re-lookup
    assert len(cache) == 1


def test_interpret_statements_survive_mutation_without_cache():
    a, x = make_inputs()
    cache = PlanCache()
    session = make_session(a, x, cache=cache)
    statement = session.prepare(BATAX_PROGRAM, backend="interpret", dense_shape=(SIZE,))
    assert (len(cache), cache.misses) == (0, 0)  # interpret bypasses the cache
    session.register(DenseFormat.from_dense("Z", x))
    np.testing.assert_allclose(statement.execute(beta=1.0), batax_oracle(a, x, 1.0))


# ---------------------------------------------------------------------------
# integration with the benchmark substrate
# ---------------------------------------------------------------------------


def test_storel_system_reuses_a_shared_session():
    a, x = make_inputs()
    catalog = fresh_catalog(a, x, 0.5)
    session = Session(catalog)
    runs = [StorelSystem(backend=backend, session=session).prepare(BATAX, catalog)
            for backend in ("typed", "interpret")]
    assert runs[0].optimization is runs[1].optimization  # one optimization, shared
    for run in runs:
        np.testing.assert_allclose(run(), batax_oracle(a, x, 0.5))


def test_storel_system_without_session_still_works():
    a, x = make_inputs()
    catalog = fresh_catalog(a, x, 0.5)
    run = StorelSystem().prepare(BATAX, catalog)
    np.testing.assert_allclose(run(), batax_oracle(a, x, 0.5))
    assert run.plan_source
