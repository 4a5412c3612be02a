"""Equality probes, resolved at plan time, and what that buys.

* The range rewrites — the range-probe resolution, T4 and the lookup of a
  range-built dictionary — agree with the interpreter on fractional,
  negative, out-of-range and boundary keys: a range has only integer keys.
* F1 over a dictionary or an array, with its guard under ``let`` bindings,
  agrees with the interpreter on absent, fractional and negative keys, and
  leaves a body that is not strict a loop.
* Flat BATAX reaches the factorized plan of the paper's Fig. 9: no probe is
  left for the backend, the cost is no worse than BATAX-nested's, and no
  candidate buries the ``i == i2`` join guard in a product factor.
* Identical closed invariants share one evaluation per run.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import strategies
from repro.core.compose import compose
from repro.core.optimizer import symbol_ranks
from repro.core.statistics import Statistics
from repro.core.strategies import (
    lookup_of_range_sum,
    resolve_range_probe,
    rewrite_everywhere,
    sum_to_lookup,
)
from repro.data.synthetic import random_sparse_matrix_coo
from repro.execution import typed_plan
from repro.execution.engine import PlanCache
from repro.kernels import BATAX, BATAX_NESTED
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.sdqlite.ast import Cmp, Get, IfThen, Idx, Let, Mul, RangeExpr, Sum, postorder
from repro.sdqlite.debruijn import hoist_guard
from repro.sdqlite.values import SemiringDict
from repro.session import Session
from repro.storage import Catalog, CSCFormat, CSRFormat, DenseFormat

RANGE_REWRITES = (resolve_range_probe, lookup_of_range_sum)


def db(source):
    return to_debruijn(parse_expr(source))


def range_probes(plan):
    """The ``sum``s over a range whose body is an equality guard on a binder."""
    probes = []
    for node in postorder(plan):
        if not (isinstance(node, Sum) and isinstance(node.source, RangeExpr)):
            continue
        body = hoist_guard(node.body)
        if (isinstance(body, IfThen) and isinstance(body.cond, Cmp)
                and body.cond.op == "=="
                and {body.cond.left, body.cond.right} & {Idx(0), Idx(1)}):
            probes.append(node)
    return probes


def range_lookups(plan):
    """Lookups into a range or into a dictionary a ``sum`` over a range builds."""
    return [node for node in postorder(plan) if isinstance(node, Get) and (
        isinstance(node.target, RangeExpr)
        or isinstance(node.target, Sum) and isinstance(node.target.source, RangeExpr))]


# ---------------------------------------------------------------------------
# (c) the rewrites agree with the interpreter on every kind of key
# ---------------------------------------------------------------------------

KEYS = st.one_of(
    st.integers(min_value=-4, max_value=8),
    st.sampled_from([-1.5, -0.5, -0.0, 0.25, 0.5, 2.0, 2.5, 3.0, 3.999, 4.0, 7.5]),
    st.floats(min_value=-5, max_value=9, allow_nan=False),
)
BOUNDS = st.tuples(st.integers(min_value=-3, max_value=4), st.integers(min_value=0, max_value=4))


def _rewritten_agrees(source: str, env: dict, ranks=None):
    term = db(source)
    rewritten = rewrite_everywhere(term, RANGE_REWRITES, symbol_ranks=ranks)
    assert values_equal(evaluate(term, env), evaluate(rewritten, env)), (source, env)
    return rewritten


@settings(max_examples=150, deadline=None)
@given(key=KEYS, bounds=BOUNDS)
def test_range_rewrites_agree_with_the_interpreter_on_any_key(key, bounds):
    lo, width = bounds
    rng = f"{lo}:{lo + width}"
    env = {"x": key}
    # The probe key is a global of unknown type: the rewrite must keep an
    # exact integrality test in its guard.
    for source in (f"sum(<k, v> in {rng}) if (x == k) then {{ 0 -> k + 10 * v + 1 }}",
                   f"sum(<k, v> in {rng}) let w = v * 2 in if (v == x) then w + k + 1",
                   f"(sum(<k, v> in {rng}) {{ k -> k * 3 + 1 }})(x)"):
        assert _rewritten_agrees(source, env) != db(source)
    # T4 proves nothing about ``x``, so it leaves the range lookup alone.
    assert _rewritten_agrees(f"({rng})(x) + 1", env) == db(f"({rng})(x) + 1")


@settings(max_examples=60, deadline=None)
@given(bounds=BOUNDS, shift=st.integers(min_value=-3, max_value=3))
def test_range_rewrites_on_proven_integers_drop_the_integrality_test(bounds, shift):
    lo, width = bounds
    rng = f"{lo}:{lo + width}"
    outer = "sum(<i, _> in -5:9)"
    for source in (f"{outer} sum(<k, v> in {rng}) if (i + {shift} == k) then {{ i -> v + 1 }}",
                   f"{outer} {{ i -> ({rng})(i - {shift}) + 1 }}",
                   f"{outer} {{ i -> (sum(<k, v> in {rng}) {{ k -> v * 2 + 1 }})(i) }}"):
        rewritten = _rewritten_agrees(source, {})
        # Neither a probe nor a lookup is left: the guard is the bounds check.
        assert not range_probes(rewritten) and not range_lookups(rewritten)


@settings(max_examples=25, deadline=None)
@given(values=st.lists(KEYS, min_size=1, max_size=6), bounds=BOUNDS)
def test_optimized_range_lookups_agree_with_the_interpreter(values, bounds):
    """The whole pipeline — greedy and e-graph (conditional T4 rule), both backends."""
    lo, width = bounds
    rng = f"{lo}:{lo + width}"
    catalog = Catalog()
    catalog.add(DenseFormat.from_dense("X", np.array(values, dtype=float)))
    programs = (f"sum(<i, x> in X) {{ i -> ({rng})(x) + 1 }}",
                f"sum(<i, x> in X) {{ i -> (sum(<k, v> in {rng}) {{ k -> 1.0 }})(x) }}",
                f"sum(<i, x> in X) sum(<k, v> in {rng}) if (x == k) then {{ i -> 1.0 }}")
    for program in programs:
        naive = compose(db(program), catalog.mappings())
        expected = evaluate(naive, catalog.globals())
        session = Session(catalog, cache=PlanCache())
        for method in ("greedy", "egraph"):
            for backend in ("typed", "interpret"):
                got = session.run(program, method=method, backend=backend)
                assert values_equal(got, expected), (program, method, backend)


#: F1 through lets: ``x`` is a global of unknown type, ``i`` an outer key.
F1_STRICT = (
    "sum(<k, v> in {S}) let w = v * 2 in if (k == x) then {{ 0 -> (w + k) * v }}",
    "sum(<k, v> in {S}) let w = k + 1 in let u = v in if (x == k) then w * u",
    "sum(<i, _> in 0:4) sum(<k, v> in {S}) let w = v in if (k == i - 2) then {{ i -> w * k }}",
)
#: Bodies that are not strict in ``v``: a missing key must not read as 0.
F1_LOOSE = (
    "sum(<k, v> in {S}) let w = v + 1 in if (k == x) then w",
    "sum(<k, v> in {S}) let w = v in if (k == x) then {{ k -> w + 3 }}",
)


@settings(max_examples=120, deadline=None)
@given(key=KEYS,
       entries=st.dictionaries(st.integers(min_value=-2, max_value=5),
                               st.floats(min_value=-4, max_value=4, allow_nan=False)
                               .filter(bool), max_size=5),
       array=st.lists(st.floats(min_value=-4, max_value=4, allow_nan=False),
                      min_size=0, max_size=5))
def test_sum_to_lookup_through_lets_agrees_with_the_interpreter(key, entries, array):
    env = {"x": key, "D": SemiringDict(entries), "V": np.array(array, dtype=float)}
    for source in ("D", "V"):
        for template in F1_STRICT:
            term = db(template.format(S=source))
            rewritten = rewrite_everywhere(term, (sum_to_lookup,))
            assert rewritten != term, template
            expected = evaluate(term, env)
            assert values_equal(evaluate(rewritten, env), expected), (template, env)
            assert values_equal(typed_plan(rewritten)(env), expected), (template, env)
        for template in F1_LOOSE:
            term = db(template.format(S=source))
            assert rewrite_everywhere(term, (sum_to_lookup,)) == term, template
            assert values_equal(typed_plan(term)(env), evaluate(term, env)), (template, env)


# ---------------------------------------------------------------------------
# (a), (b) flat BATAX reaches the factorized plan
# ---------------------------------------------------------------------------


def _batax_catalog(fmt, n=144, density=0.02):
    rng = np.random.default_rng(20261015)
    coords, values = random_sparse_matrix_coo(n, n, density, rng=rng)
    catalog = Catalog()
    catalog.add(fmt.from_coo("A", coords, values, (n, n)))
    catalog.add(DenseFormat.from_dense("X", rng.uniform(0.1, 1.0, n)))
    catalog.add_scalar("beta", 0.5)
    return catalog


@pytest.mark.parametrize("fmt", [CSRFormat, CSCFormat], ids=["csr", "csc"])
def test_flat_batax_plan_resolves_its_probes_and_costs_no_more_than_nested(fmt):
    catalog = _batax_catalog(fmt)
    session = Session(catalog, cache=PlanCache())
    flat = session.prepare(BATAX.source, method="greedy", dense_shape=(144,))
    nested = session.prepare(BATAX_NESTED.source, method="greedy", dense_shape=(144,))
    assert not range_probes(flat.optimization.plan)
    assert flat.optimization.cost <= nested.optimization.cost
    np.testing.assert_allclose(flat.execute(), nested.execute())
    stats = {}
    flat.execute_with_stats(stats)
    assert stats["fallback_sums"] == 0


def _guard_in_product_factor(plan) -> bool:
    """A ``*`` operand that is (under lets) an equality-guarded term."""
    for node in postorder(plan):
        if not isinstance(node, Mul):
            continue
        for factor in (node.left, node.right):
            while isinstance(factor, Let):
                factor = factor.body
            if isinstance(factor, IfThen) and any(
                    isinstance(part, Cmp) and part.op == "=="
                    for part in postorder(factor.cond)):
                return True
    return False


def test_no_flat_batax_candidate_buries_the_join_guard_in_a_product():
    """Factorizing through guards before fusion would hoist ``if (i == i2)``
    into a factor, where neither F1 nor the range probe sees it (the cost
    model then picked a cross-product plan 700x slower than this one)."""
    catalog = _batax_catalog(CSRFormat)
    mappings = catalog.mappings()
    naive = compose(BATAX.program, mappings)
    ranks = symbol_ranks(Statistics.from_catalog(catalog), mappings)
    candidates = strategies.candidate_plans(naive, ranks)
    for name, plan in candidates.items():
        assert not _guard_in_product_factor(plan), name
    assert not range_probes(candidates["fused+factorized"])


# ---------------------------------------------------------------------------
# (d) one evaluation per distinct closed invariant
# ---------------------------------------------------------------------------


class _CountingEnv(dict):
    def __init__(self, *args):
        super().__init__(*args)
        self.reads = {}

    def __getitem__(self, name):
        self.reads[name] = self.reads.get(name, 0) + 1
        return super().__getitem__(name)


def test_identical_closed_invariants_are_evaluated_once_per_run():
    # The transpose-like invariant occurs twice: as a source and looked up.
    invariant = "(sum(<k, v> in V) { k -> 2 * v })"
    plan = db(f"sum(<i, a> in {invariant}) {{ i -> a * {invariant}(i) }}")
    env = _CountingEnv({"V": np.array([1.0, 0.0, 3.0, 4.0])})
    artifact = typed_plan(plan)
    result = artifact(env)
    assert values_equal(result, evaluate(plan, dict(env)))
    assert env.reads["V"] == 1
    artifact(env)
    assert env.reads["V"] == 2       # once per run, not once per process


def test_a_probe_left_in_the_plan_is_counted_and_explained():
    """An equality guard no plan-time rewrite may resolve — over an array (not
    a range), with a body that is not strict (a missing key would give 1, not
    0) — stays in the plan, and the backend runs it as the loop the plan and
    ``explain()`` show: one batched loop, no Python fallback."""
    catalog = Catalog()
    catalog.add(DenseFormat.from_dense("X", np.array([0.5, 2.0, 3.0, 0.25])))
    outcome = Session(catalog).run_detailed("sum(<k, v> in X_val) if (k == 2) then v + 1")
    assert outcome.result == 4.0
    assert isinstance(outcome.optimization.plan, Sum)
    stats = outcome.execution_stats
    assert stats["sum_loops"] == 1
    assert stats["fallback_sums"] == 0 and stats["fallback_reasons"] == {}
