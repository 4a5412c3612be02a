"""Tests for the execution engine: ``typed`` agrees with the interpreter."""

import numpy as np
import pytest

from repro import Session, storel
from repro.advisor import Advisor
from repro.baselines.base import output_shape
from repro.baselines.storel_system import StorelSystem
from repro.core import compose, strategies
from repro.core.optimizer import optimize, symbol_ranks
from repro.core.statistics import Statistics
from repro.data.synthetic import random_dense_vector, random_sparse_matrix, random_sparse_tensor3
from repro.execution import (
    BACKENDS,
    ExecutionEngine,
    PlanCache,
    PreparedPlan,
    result_to_dense,
    result_to_matrix,
    result_to_scalar,
    result_to_vector,
    typed_plan,
)
from repro.kernels import KERNELS
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.sdqlite.ast import Cmp, Idx, IfThen, Sum, postorder
from repro.sdqlite.debruijn import hoist_guard, to_debruijn_safe, uses_indices
from repro.sdqlite.errors import ExecutionError
from repro.sdqlite.values import to_plain
from repro.serving import Server
from repro.storage import (
    FORMATS,
    Catalog,
    CSFFormat,
    CSRFormat,
    DenseFormat,
    DOKFormat,
    build_format,
)
from repro.storage.physical import PhysicalArray


def db(source):
    return to_debruijn(parse_expr(source))


def both_backends(plan, env):
    """Run ``plan`` on ``typed``; assert it equals the interpreter's result."""
    typed = typed_plan(plan)(env)
    interpreted = evaluate(plan, env)
    assert values_equal(typed, interpreted)
    return typed


def test_codegen_scalar_expressions():
    assert both_backends(db("1 + 2 * 3"), {}) == 7
    assert both_backends(db("let x = 4 in x * x"), {}) == 16
    assert both_backends(db("if (2 > 3) then 5"), {}) == 0
    assert both_backends(db("if (3 > 2) then 5"), {}) == 5


def test_codegen_sum_and_dict():
    env = {"V": {0: 2.0, 3: -1.0, 5: 4.0}}
    result = both_backends(db("sum(<i, v> in V) if (v > 0) then { i -> 5 * v }"), env)
    assert to_plain(result) == {0: 10.0, 5: 20.0}


def test_codegen_range_slice_and_lookup():
    env = {"A_val": np.array([1.0, 2.0, 3.0, 4.0]), "N": 4}
    result = both_backends(db("sum(<i, _> in 0:N) { i -> A_val(i) * 2 }"), env)
    assert to_plain(result) == {0: 2.0, 1: 4.0, 2: 6.0, 3: 8.0}
    result = both_backends(db("sum(<p, v> in A_val(1:3)) v"), env)
    assert result == pytest.approx(5.0)
    assert both_backends(db("A_val(9)"), env) == 0


def test_codegen_merge():
    env = {"L": {0: 3, 1: 5}, "R": {0: 5, 1: 3, 2: 5},
           "V1": np.array([1.0, 2.0]), "V2": np.array([10.0, 20.0, 30.0])}
    plan = db("merge(<p1, p2, l> in <L, R>) { l -> V1(p1) * V2(p2) }")
    result = both_backends(plan, env)
    assert to_plain(result) == {5: 2.0 * 10.0 + 2.0 * 30.0, 3: 1.0 * 20.0}


def test_codegen_named_variables_rejected():
    with pytest.raises(ExecutionError):
        typed_plan(parse_expr("sum(<i, v> in V) { i -> v }"))  # named form


@pytest.mark.parametrize("kernel_name", ["MMM", "SUMMM", "BATAX", "BATAX-nested", "TTM", "MTTKRP"])
def test_codegen_matches_interpreter_on_all_kernels(kernel_name):
    kernel = KERNELS[kernel_name]
    size = 8
    catalog = Catalog()
    a = random_sparse_matrix(size, size, 0.3, seed=21)
    if kernel_name in ("MMM", "SUMMM"):
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(CSRFormat.from_dense("B", random_sparse_matrix(size, size, 0.3, seed=22)))
    elif kernel_name.startswith("BATAX"):
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(DenseFormat.from_dense("X", random_dense_vector(size, seed=23)))
        catalog.add_scalar("beta", 2.0)
    else:
        coords, values = random_sparse_tensor3(size, 5, 6, 0.1, seed=24)
        catalog.add(CSFFormat.from_coo("A", coords, values, (size, 5, 6)))
        catalog.add(CSRFormat.from_dense("B", random_sparse_matrix(5 if kernel_name == "MTTKRP" else 4, 6 if kernel_name == "TTM" else 4, 0.5, seed=25)))
        if kernel_name == "MTTKRP":
            catalog.add(CSRFormat.from_dense("C", random_sparse_matrix(6, 4, 0.5, seed=26)))
    naive = compose(kernel.program, catalog.mappings())
    env = catalog.globals()
    for name, plan in strategies.candidate_plans(naive).items():
        both_backends(plan, env)


def test_execution_engine_backends_agree():
    catalog = Catalog()
    catalog.add(DOKFormat.from_dense("A", random_sparse_matrix(6, 6, 0.4, seed=31)))
    plan = db("sum(<(i,j), v> in A_hash) { i -> v }")
    typed_engine = ExecutionEngine.for_catalog(catalog)        # the default
    interpreted_engine = ExecutionEngine.for_catalog(catalog, backend="interpret")
    assert values_equal(typed_engine.run(plan), interpreted_engine.run(plan))
    assert typed_engine.prepare(plan).source.startswith("<typed:")
    assert interpreted_engine.prepare(plan).source == "<interpreted>"


def _vector_catalog():
    return Catalog().add(DenseFormat.from_dense("X", np.array([1.0, 2.0])))


_SUM_X = "sum(<i, x> in X) x"

#: Everywhere a backend name is taken: constructors and per-call overrides.
_BACKEND_ENTRY_POINTS = {
    "ExecutionEngine": lambda name: ExecutionEngine(env={}, backend=name),
    "ExecutionEngine.for_catalog": lambda name: ExecutionEngine.for_catalog(
        _vector_catalog(), backend=name),
    "Session": lambda name: Session(_vector_catalog(), backend=name),
    "Session.prepare": lambda name: Session(_vector_catalog()).prepare(_SUM_X, backend=name),
    "Session.run": lambda name: Session(_vector_catalog()).run(_SUM_X, backend=name),
    "Session.create_view": lambda name: Session(_vector_catalog()).create_view(
        "v", _SUM_X, backend=name),
    "Session.advise": lambda name: Session(_vector_catalog()).advise(_SUM_X, backend=name),
    "storel.run": lambda name: storel.run(_SUM_X, _vector_catalog(), backend=name),
    "Server": lambda name: Server(_vector_catalog(), backend=name),
    "Server.execute": lambda name: Server(_vector_catalog()).execute(_SUM_X, backend=name),
    "Server.prepare": lambda name: Server(_vector_catalog()).prepare(_SUM_X, backend=name),
    "Server.run": lambda name: Server(_vector_catalog()).run(_SUM_X, backend=name),
    "Advisor": lambda name: Advisor(Session(_vector_catalog()), backend=name),
    "StorelSystem": lambda name: StorelSystem(backend=name),
}


@pytest.mark.parametrize("name", ["julia", "compile", "vectorize"])
@pytest.mark.parametrize("entry", _BACKEND_ENTRY_POINTS)
def test_unknown_backend_is_one_error_at_the_entry_point(entry, name):
    """One exception type, one message, raised where the name was written."""
    with pytest.raises(ExecutionError) as info:
        _BACKEND_ENTRY_POINTS[entry](name)
    message = str(info.value)
    assert message.startswith(
        f"unknown execution backend {name!r}; expected one of ('interpret', 'typed')")
    assert ("removed in favour of 'typed'" in message) == (name != "julia")


def test_unknown_backend_is_rejected_before_optimization_is_paid():
    session = Session(_vector_catalog())
    with pytest.raises(ExecutionError):
        session.prepare(_SUM_X, backend="compile")
    assert len(session.plans) == 0
    server = Server(_vector_catalog())
    with pytest.raises(ExecutionError):
        server.execute(_SUM_X, backend="compile")
    assert len(server.plans) == 0 and server.stats.plan_misses == 0


# ---------------------------------------------------------------------------
# kernel × format parity with the interpreter
# ---------------------------------------------------------------------------

MATRIX_FORMATS = ("dense", "coo", "csr", "csc", "dcsr", "dok", "trie")
TENSOR3_FORMATS = ("coo", "csf", "dok", "trie")

_PARITY_CASES = [
    (kernel, fmt)
    for kernel in ("MMM", "SUMMM", "BATAX", "BATAX-nested")
    for fmt in MATRIX_FORMATS
] + [
    (kernel, fmt)
    for kernel in ("TTM", "MTTKRP")
    for fmt in TENSOR3_FORMATS
]


def _parity_catalog(kernel_name: str, fmt: str, size: int = 8) -> Catalog:
    catalog = Catalog()
    a = random_sparse_matrix(size, size, 0.3, seed=21)
    if kernel_name in ("MMM", "SUMMM"):
        catalog.add(build_format(fmt, "A", a))
        catalog.add(build_format(fmt, "B", random_sparse_matrix(size, size, 0.3, seed=22)))
    elif kernel_name.startswith("BATAX"):
        catalog.add(build_format(fmt, "A", a))
        catalog.add(DenseFormat.from_dense("X", random_dense_vector(size, seed=23)))
        catalog.add_scalar("beta", 2.0)
    else:
        coords, values = random_sparse_tensor3(size, 5, 6, 0.15, seed=24)
        catalog.add(FORMATS[fmt].from_coo("A", coords, values, (size, 5, 6)))
        other_rows = 5 if kernel_name == "MTTKRP" else 4
        other_cols = 6 if kernel_name == "TTM" else 4
        catalog.add(CSRFormat.from_dense(
            "B", random_sparse_matrix(other_rows, other_cols, 0.5, seed=25)))
        if kernel_name == "MTTKRP":
            catalog.add(build_format("csc", "C", random_sparse_matrix(6, 4, 0.5, seed=26)))
    return catalog


_parity = pytest.mark.parametrize("kernel_name,fmt", _PARITY_CASES,
                                  ids=[f"{k}-{f}" for k, f in _PARITY_CASES])


def _assert_kernelized(plan, env, shape, same_dense):
    """``typed`` equals the interpreter on ``plan`` without a Python-loop
    fallback, and asking it for the dense ``shape`` gives exactly what
    densifying its dictionary result gives.  Returns whether the root
    reduction went straight to the dense array."""
    artifact = typed_plan(plan)
    stats = {}
    result = artifact(env, stats)
    assert values_equal(result, evaluate(plan, env))
    assert stats["fallback_sums"] == stats["fallback_merges"] == 0, \
        stats["fallback_reasons"]
    assert stats["fallback_reasons"] == {}
    assert stats["dense_sink"] == 0
    sink_stats = {}
    dense = PreparedPlan(plan, env, artifact).run(stats=sink_stats, dense_shape=shape)
    same_dense(dense, result_to_dense(result, shape))
    return sink_stats["dense_sink"] == 1


# The three tests below walk the matrix over every plan the pipeline can hand
# the executor: 36 cells x (5 strategy variants, with and without the
# optimizer's symbol facts, + the greedy and the e-graph pick) = 432 plans,
# each of which must lower to kernels only, and each of the 348 with a
# non-scalar output must sum its root reduction straight into the dense
# output.  (Two of them carry the test IDs of the deleted backends' parity
# matrices.)


@_parity
def test_typed_matches_interpreter(kernel_name, fmt, same_dense):
    """Every strategy variant of every kernel × format kernelizes and is right.

    Without symbol facts no range bound is a proven integer and the range
    rewrites stay off; with them (what the optimizer passes) they fire.
    """
    catalog = _parity_catalog(kernel_name, fmt)
    naive = compose(KERNELS[kernel_name].program, catalog.mappings())
    env = catalog.globals()
    shape = output_shape(KERNELS[kernel_name], catalog)
    facts = symbol_ranks(Statistics.from_catalog(catalog), catalog.mappings())
    for ranks in (None, facts):
        for plan in strategies.candidate_plans(naive, ranks).values():
            assert _assert_kernelized(plan, env, shape, same_dense) == bool(shape)


@_parity
def test_codegen_matches_interpreter_parity_matrix(kernel_name, fmt, same_dense):
    """The plans the optimizer itself picks kernelize and are right.

    ``candidate_plans`` is what the strategies can produce; what a request
    runs is the greedy pick or the e-graph's extraction, which need not be
    one of them (TTM's picks were where ``typed`` used to fall back).
    """
    catalog = _parity_catalog(kernel_name, fmt)
    env = catalog.globals()
    shape = output_shape(KERNELS[kernel_name], catalog)
    stats = Statistics.from_catalog(catalog)
    for method in ("greedy", "egraph"):
        pick = optimize(KERNELS[kernel_name].program, catalog.mappings(), stats,
                        method=method)
        assert _assert_kernelized(to_debruijn_safe(pick.plan), env, shape,
                                  same_dense) == bool(shape)


def _key_filtered_strict_sums(plan):
    """The ``sum(<k,v> in S) [let ...] if (k == x) then e`` of ``plan`` with
    ``x`` independent of the loop and ``e`` strict in ``v``: exactly the
    sums F1 turns into the lookup ``S(x)``."""
    found = []
    for node in postorder(plan):
        if not isinstance(node, Sum):
            continue
        body = hoist_guard(node.body)
        if not (isinstance(body, IfThen) and isinstance(body.cond, Cmp)
                and body.cond.op == "=="):
            continue
        left, right = body.cond.left, body.cond.right
        probe = (right if left == Idx(1) else left if right == Idx(1) else None)
        if (probe is not None and not uses_indices(probe, (0, 1))
                and strategies.is_strict_in(body.then, 0)):
            found.append(node)
    return found


@_parity
def test_optimizer_picks_carry_no_key_filtered_sum(kernel_name, fmt):
    """The plan the optimizer returns is the plan that runs: no pick leaves an
    equality probe F1 could resolve for the executor to find (``typed`` would
    iterate it), whichever search produced the pick."""
    catalog = _parity_catalog(kernel_name, fmt)
    stats = Statistics.from_catalog(catalog)
    for method in ("greedy", "egraph"):
        pick = optimize(KERNELS[kernel_name].program, catalog.mappings(), stats,
                        method=method)
        assert not _key_filtered_strict_sums(to_debruijn_safe(pick.plan)), method


@_parity
def test_egraph_pick_is_no_costlier_than_greedy_and_saturates(kernel_name, fmt):
    """Stage 2 saturates from the greedy pick, so at default limits it runs
    to saturation, and the plan the e-graph returns — after the final probe
    pass — never costs more than the one greedy returns."""
    catalog = _parity_catalog(kernel_name, fmt)
    stats = Statistics.from_catalog(catalog)
    program, mappings = KERNELS[kernel_name].program, catalog.mappings()
    greedy = optimize(program, mappings, stats, method="greedy")
    egraph = optimize(program, mappings, stats, method="egraph")
    assert egraph.stage2.runner.stop_reason == "saturated"
    assert egraph.cost <= greedy.cost * (1 + 1e-12)


@_parity
def test_vectorize_matches_interpreter(kernel_name, fmt):
    """The default pipeline end to end: what a user gets with no ``backend=``.

    ``storel.run`` on its defaults (greedy, ``typed``) must return the dense
    array the interpreter backend returns, with nothing run as a Python loop.
    """
    kernel = KERNELS[kernel_name]
    catalog = _parity_catalog(kernel_name, fmt)
    shape = output_shape(kernel, catalog)
    outcome = storel.run_detailed(kernel.program, catalog, dense_shape=shape)
    expected = storel.run(kernel.program, catalog, dense_shape=shape,
                          backend="interpret")
    np.testing.assert_allclose(outcome.result, expected)
    assert outcome.execution_stats["fallback_sums"] == 0
    assert outcome.execution_stats["fallback_reasons"] == {}
    assert outcome.execution_stats["dense_sink"] == (1 if shape else 0)


def test_vectorize_engine_agrees_with_other_backends():
    catalog = Catalog()
    catalog.add(CSRFormat.from_dense("A", random_sparse_matrix(9, 9, 0.4, seed=51)))
    plan = db("sum(<row, _> in 0:A_len1) "
              "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
              "{ col -> A_val(off) }")
    results = {backend: ExecutionEngine.for_catalog(catalog, backend=backend,
                                                    cache=PlanCache()).run(plan)
               for backend in BACKENDS}
    assert values_equal(results["typed"], results["interpret"])


def test_vectorize_probe_shortcut_semantics():
    """Equality-probe loops: in range, out of range, and non-integer probes."""
    env = {"V": np.array([5.0, 6.0, 7.0]), "N": 3}
    for j, expected in [(1, 6.0), (7, 0), (-2, 0)]:
        assert both_backends(db(f"sum(<i, v> in V) if (i == {j}) then v"), env) == expected
    assert both_backends(db("sum(<i, _> in 0:N) if (i == 1.5) then 9"), env) == 0
    # Probe expression referencing an outer binder.
    both_backends(
        db("sum(<j, _> in 0:N) { j -> sum(<i, v> in V) if (i == j) then 2 * v }"), env)


# ---------------------------------------------------------------------------
# PreparedPlan caching
# ---------------------------------------------------------------------------


def test_plan_cache_hits_on_repeated_prepare():
    cache = PlanCache(maxsize=8)
    env = {"V": np.array([1.0, 2.0, 3.0])}
    engine = ExecutionEngine(env=env, cache=cache)
    plan = db("sum(<i, v> in V) v")
    first = engine.prepare(plan)
    assert (cache.hits, cache.misses) == (0, 1)
    second = engine.prepare(plan)
    assert (cache.hits, cache.misses) == (1, 1)
    # The lowered artifact is shared; the bound environment is per-prepare.
    assert second.artifact is first.artifact
    assert first.run() == second.run() == pytest.approx(6.0)


def test_plan_cache_lru_eviction_and_clear():
    cache = PlanCache(maxsize=2)
    env = {"V": np.array([1.0])}
    engine = ExecutionEngine(env=env, cache=cache)
    plans = [db(f"sum(<i, v> in V) {k} * v") for k in (1, 2, 3)]
    engine.prepare(plans[0])
    engine.prepare(plans[1])
    engine.prepare(plans[2])          # evicts plans[0]
    assert len(cache) == 2
    engine.prepare(plans[0])          # miss again after eviction
    assert cache.misses == 4
    cache.clear()
    assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0
    with pytest.raises(ValueError):
        PlanCache(maxsize=0)


def test_plan_cache_interpret_bypasses_cache():
    cache = PlanCache()
    env = {"V": {0: 2.0}}
    engine = ExecutionEngine(env=env, backend="interpret", cache=cache)
    plan = db("sum(<i, v> in V) v")
    assert engine.run(plan) == 2.0
    assert (cache.hits, cache.misses, len(cache)) == (0, 0, 0)


def test_one_artifact_serves_environments_of_different_physical_kinds():
    """Lowering never reads the environment: a plan's artifact, cached on
    ``(backend, plan)``, runs environments binding ``V`` to a NumPy array, a
    :class:`PhysicalArray` and a dictionary alike."""
    cache = PlanCache()
    plan = db("sum(<i, v> in V) { i -> 2 * v }")
    data = np.array([1.5, 0.0, -2.0, 4.0])
    envs = ({"V": data}, {"V": PhysicalArray("V", data)}, {"V": {0: 1.5, 5: 4.0}})
    prepared = [ExecutionEngine(env=env, backend="typed", cache=cache).prepare(plan)
                for env in envs]
    assert all(each.artifact is prepared[0].artifact for each in prepared)
    assert (cache.misses, cache.hits, len(cache)) == (1, 2, 1)
    for env, plan_for_env in zip(envs, prepared):
        assert values_equal(plan_for_env.run(), evaluate(plan, env))


def test_plan_cache_misses_on_plan_not_on_env_schema():
    """The key is ``(backend, plan)``: another plan lowers again, another
    environment schema does not."""
    cache = PlanCache(maxsize=8)
    plan = db("sum(<i, v> in V) v")
    array_env = {"V": np.array([1.0, 2.0])}
    dict_env = {"V": {0: 1.0, 5: 4.0}}
    first = ExecutionEngine(env=array_env, backend="typed", cache=cache).prepare(plan)
    ExecutionEngine(env=dict_env, backend="typed", cache=cache).prepare(plan)
    assert (cache.misses, cache.hits) == (1, 1)  # environment schema is not keyed
    assert first.cache_key == ("typed", plan)
    ExecutionEngine(env=array_env, backend="typed", cache=cache).prepare(
        db("sum(<i, v> in V) 2 * v"))
    assert (cache.misses, len(cache)) == (2, 2)  # different plan hash


def test_prepared_plan_backend_property():
    catalog = Catalog()
    catalog.add(DenseFormat.from_dense("V", np.array([1.0, 2.0])))
    plan = db("sum(<i, v> in V_val) v")
    for backend in BACKENDS:
        engine = ExecutionEngine.for_catalog(catalog, backend=backend, cache=PlanCache())
        assert engine.prepare(plan).backend == backend


def test_result_conversions():
    assert result_to_scalar(5.0) == 5.0
    assert result_to_scalar({}) == 0.0
    with pytest.raises(ExecutionError):
        result_to_scalar({1: 2.0})
    np.testing.assert_array_equal(result_to_vector({0: 1.0, 3: 2.0}, 5),
                                  [1.0, 0.0, 0.0, 2.0, 0.0])
    np.testing.assert_array_equal(result_to_matrix({0: {1: 3.0}}, (2, 2)),
                                  [[0.0, 3.0], [0.0, 0.0]])
    tensor = result_to_dense({0: {1: {2: 4.0}}}, (2, 2, 3))
    assert tensor[0, 1, 2] == 4.0
    assert result_to_dense(7.5, ()) == 7.5
    np.testing.assert_array_equal(result_to_dense(0, (2,)), [0.0, 0.0])
