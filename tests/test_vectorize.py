"""Semantics of batched (one lane per iteration) evaluation, on ``typed``.

The kernel × format parity matrix lives in ``tests/test_execution.py`` and
the typed backend's own mechanisms in ``tests/test_typed_backend.py``; these
cases pin what any batched evaluation of a ``sum`` must preserve: arithmetic
and comparisons per lane, masked conditionals, gather with out-of-range
keys, dictionary construction with repeated and non-integer keys, probe
short-circuiting and per-execution memoization of loop-invariant sums —
plus the two plan-shape predicates of ``repro.execution.lowering``.  (They
were written against the whole-array backend this one replaced; the file
keeps its name because the test IDs are pinned.)
"""

import numpy as np
import pytest

from repro.execution import typed_plan
from repro.execution.lowering import is_closed, uses_sum_binders
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.sdqlite.ast import Cmp, Idx, Sum, Sym
from repro.sdqlite.values import SemiringDict, to_plain
from repro.storage import TrieFormat


def db(source):
    return to_debruijn(parse_expr(source))


def check(source, env):
    plan = db(source)
    typed = typed_plan(plan)(env)
    interpreted = evaluate(plan, env)
    assert values_equal(typed, interpreted)
    return typed


# ---------------------------------------------------------------------------
# batched evaluation of scalar bodies
# ---------------------------------------------------------------------------


def test_batched_arithmetic_and_comparisons():
    env = {"V": np.array([1.0, -2.0, 3.0, 4.0]), "N": 4}
    assert check("sum(<i, v> in V) v * v + 1", env) == pytest.approx(34.0)
    assert check("sum(<i, v> in V) v - i", env) == pytest.approx(0.0)
    assert check("sum(<i, v> in V) v / 2", env) == pytest.approx(3.0)
    assert check("sum(<i, v> in V) -v", env) == pytest.approx(-6.0)
    assert check("sum(<i, v> in V) if (v > 0 && i < 3) then v", env) == pytest.approx(4.0)
    assert check("sum(<i, v> in V) if (v < 0 || i >= 3) then 1", env) == 2
    assert check("sum(<i, v> in V) if (!(v == 3)) then v", env) == pytest.approx(3.0)


def test_zero_divisor_matches_the_interpreter():
    # Python-scalar values: both backends raise ZeroDivisionError.
    env = {"D": {0: 1.0, 1: 0.0}}
    plan = db("sum(<i, v> in D) 8 / v")
    with pytest.raises(ZeroDivisionError):
        evaluate(plan, env)
    with pytest.raises(ZeroDivisionError):
        typed_plan(plan)(env)
    # NumPy-scalar values: the interpreter yields inf, and so do we (the
    # batched path must not silently diverge by masking the lane).
    env = {"V": np.array([1.0, 0.0])}
    plan = db("sum(<i, v> in V) 8 / v")
    with np.errstate(divide="ignore"):
        assert typed_plan(plan)(env) == evaluate(plan, env) == np.inf
    # A guarded division never divides by zero on any backend.
    env = {"V": np.array([2.0, 0.0, 4.0])}
    assert check("sum(<i, v> in V) if (v != 0) then 8 / v", env) == pytest.approx(6.0)


def test_batched_gather_with_out_of_bounds_keys():
    env = {"IDX": np.array([0, 5, 2, -1]), "V": np.array([10.0, 20.0, 30.0])}
    # Keys 5 and -1 are out of bounds and must contribute the default 0.
    assert check("sum(<p, i> in IDX) V(i)", env) == pytest.approx(40.0)


def test_batched_dict_construction_and_nesting():
    env = {"V": np.array([1.0, 2.0, 3.0]), "N": 3}
    result = check("sum(<i, _> in 0:N) { i -> { i -> V(i) } }", env)
    assert to_plain(result) == {0: {0: 1.0}, 1: {1: 2.0}, 2: {2: 3.0}}
    # Repeated keys accumulate (scatter-add), matching per-iteration v_add.
    result = check("sum(<i, v> in V) { 0 -> v }", env)
    assert to_plain(result) == {0: 6.0}


def test_non_integer_scalar_key_falls_back_to_float_keys():
    # The interpreter keeps 2.5 as a float key; the batched path must fall
    # back rather than truncate it to 2.
    env = {"V": np.array([1.0, 2.0]), "c": 2.5}
    result = check("sum(<i, v> in V) { c -> v }", env)
    assert to_plain(result) == {2.5: 3.0}


def test_batched_conditional_masks_dict_entries():
    env = {"V": np.array([1.0, 0.0, 3.0, 4.0])}
    result = check("sum(<i, v> in V) if (v > 1) then { i -> v }", env)
    assert to_plain(result) == {2: 3.0, 3: 4.0}


def test_scalar_body_constant_across_lanes():
    env = {"N": 5}
    assert check("sum(<i, _> in 0:N) 3", env) == 15
    assert check("sum(<i, _> in 0:N) { 1 -> 2 }", env) == SemiringDict({1: 10})


def test_empty_iteration_spaces():
    env = {"V": np.empty(0, dtype=np.float64), "N": 0}
    assert check("sum(<i, v> in V) v", env) == 0
    assert check("sum(<i, _> in 0:N) { i -> 1 }", env) == 0


# ---------------------------------------------------------------------------
# sources the whole-array backend ran as loops (tries, nested dicts, merge)
# ---------------------------------------------------------------------------


def test_trie_source_falls_back_to_loop():
    trie = TrieFormat.from_dense("A", np.array([[1.0, 0.0], [0.0, 2.0]]))
    env = trie.physical()
    result = check("sum(<i, row> in A_trie, <j, v> in row) { (j, i) -> v }", env)
    assert to_plain(result) == {0: {0: 1.0}, 1: {1: 2.0}}


def test_nested_dict_iteration_falls_back_and_stays_correct():
    # A dict-of-dicts source and a dictionary lookup with a per-lane key.
    env = {"M": {0: {0: 1.0, 1: 2.0}, 1: {1: 3.0}}, "N": 2,
           "X": np.array([5.0, 7.0])}
    result = check("sum(<i, row> in M) { i -> sum(<k, _> in 0:N) row(k) * X(k) }", env)
    assert to_plain(result) == {0: 1.0 * 5 + 2.0 * 7, 1: 3.0 * 7}


def test_merge_runs_via_loop():
    env = {"L": {0: 1, 1: 2}, "R": {0: 2, 1: 1, 2: 2}}
    result = check("merge(<p, q, v> in <L, R>) { v -> 1 }", env)
    assert to_plain(result) == {1: 1, 2: 2}


# ---------------------------------------------------------------------------
# probe short-circuiting and loop-invariant memoization
# ---------------------------------------------------------------------------


def test_probe_handles_all_source_kinds():
    env = {"V": np.array([4.0, 5.0, 6.0]), "N": 3, "j": 2}
    assert check("sum(<i, _> in 0:N) if (i == j) then 10", env) == 10
    assert check("sum(<i, v> in V) if (i == j) then v", env) == pytest.approx(6.0)
    assert check("sum(<p, v> in V(1:3)) if (p == j) then v", env) == pytest.approx(6.0)
    # Dictionary sources are not probed but still agree via iteration.
    env_dict = {"D": {0: 1.0, 2: 9.0}, "j": 2}
    assert check("sum(<i, v> in D) if (i == j) then v", env_dict) == pytest.approx(9.0)


def test_probe_does_not_fire_when_expression_uses_loop_variables():
    env = {"N": 4}
    # i == i is True on every iteration; a naive probe would collapse it.
    assert check("sum(<i, _> in 0:N) if (i == i) then 1", env) == 4


def test_uses_sum_binders_accounts_for_nested_binders():
    # %1 at depth 0 is the sum key; under one extra binder it is %2.
    assert uses_sum_binders(Idx(1))
    assert uses_sum_binders(Idx(0))
    assert not uses_sum_binders(Idx(2))
    inner = Sum(Sym("V"), Cmp("==", Idx(3), Idx(0)))  # %3 = outer sum key
    assert uses_sum_binders(inner)
    assert not uses_sum_binders(Sum(Sym("V"), Cmp("==", Idx(4), Idx(0))))


def test_loop_invariant_sum_is_memoized_per_execution():
    calls = {"n": 0}

    class CountingDict(dict):
        def items(self):
            calls["n"] += 1
            return super().items()

    env = {"D": CountingDict({0: 1.0, 1: 2.0}), "N": 50}
    plan = db("sum(<i, _> in 0:N) (sum(<k, v> in D) { k -> v })(i)")
    lowered = typed_plan(plan)
    first = lowered(env)
    # The closed inner sum materialized once for the whole execution, not
    # once per outer iteration (the interpreter re-iterates D on every one).
    per_run = calls["n"]
    assert per_run <= 2
    lowered(env)
    assert calls["n"] == 2 * per_run  # recomputed per run(), not cached across
    assert values_equal(first, evaluate(plan, env))


def test_is_closed_tracks_binders():
    assert is_closed(db("sum(<i, v> in V) { i -> v }"))
    open_sum = Sum(Sym("V"), Idx(2))  # %2 escapes the sum's two binders
    assert not is_closed(open_sum)


def test_unvectorizable_is_contained():
    # A nested sum that depends on the loop variable: whether or not the
    # body batches, no internal exception may leak and the result is right.
    env = {"V": np.array([1.0, 2.0, 3.0]), "H": {0: {0: 1.0}}}
    result = check("sum(<i, v> in V) v * (sum(<k, r> in H) r(i))", env)
    assert result == pytest.approx(1.0)
