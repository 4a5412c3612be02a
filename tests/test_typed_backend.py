"""Unit tests for the typed-buffer backend (repro.execution.typed_backend).

The kernel × format parity matrix lives in ``tests/test_execution.py`` and
the differential fuzzer exercises random programs; these tests target the
individual mechanisms: lane expansion over :class:`BufferLevels`, batched
sorted lookups (including empty levels), guard hoisting through ``let``,
loop-invariant memoization, fallback accounting, and the scatter path that
turns root :class:`BufferDict` results into dense arrays.
"""

import numpy as np
import pytest

from repro.execution import typed_plan
from repro.execution.buffers import (
    HAVE_NUMBA,
    BufferDict,
    BufferLevels,
    levels_from_mapping,
    lookup_sorted,
)
from repro.execution.engine import result_to_matrix, result_to_vector
from repro.execution.typed_backend import _hoist_guard
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.sdqlite.values import v_add
from repro.sdqlite.ast import IfThen, Let
from repro.storage import TrieFormat, build_format


def db(source):
    return to_debruijn(parse_expr(source))


def check(source, env, stats=None):
    plan = db(source)
    typed = typed_plan(plan)(env, stats)
    interpreted = evaluate(plan, env)
    assert values_equal(typed, interpreted)
    return typed


# ---------------------------------------------------------------------------
# lane expansion and batched arithmetic
# ---------------------------------------------------------------------------


def test_scalar_reductions_match_interpreter():
    env = {"V": np.array([1.0, -2.0, 3.0, 4.0]), "N": 4}
    assert check("sum(<i, v> in V) v * v + 1", env) == pytest.approx(34.0)
    assert check("sum(<i, v> in V) if (v > 0 && i < 3) then v", env) == pytest.approx(4.0)
    assert check("sum(<i, _> in 0:N) i", env) == 6


def test_nested_sums_expand_lanes():
    matrix = build_format("csr", "A", np.array([[1.0, 0.0], [2.0, 3.0]]))
    env = matrix.physical()
    check("sum(<row, _> in 0:A_len1) "
          "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
          "{ col -> A_val(off) }", env)


def test_dictionary_results_are_buffer_dicts():
    env = {"V": np.array([1.0, 0.0, 3.0])}
    result = check("sum(<i, v> in V) { i -> 2 * v }", env)
    assert isinstance(result, BufferDict)


# ---------------------------------------------------------------------------
# lookups, including the empty-collection edge the fuzzer found
# ---------------------------------------------------------------------------


def test_lookup_sorted_empty_haystack_reports_miss():
    pos, found = lookup_sorted(np.empty(0, dtype=np.int64),
                               np.array([0, 5], dtype=np.int64))
    assert not found.any()


def test_probe_into_empty_trie_is_zero():
    # Regression: seed 7000000091 — probing an empty levelized dictionary
    # indexed values[pos] on a zero-length array.
    empty = TrieFormat.from_coo("T1", np.empty((0, 1), dtype=np.int64),
                                np.empty(0), (2,))
    env = empty.physical()
    assert check("sum(<k1, v2> in 0:2) T1_trie(k1)", env) == 0


def test_probe_out_of_range_keys():
    env = {"V": np.array([5.0, 6.0, 7.0]), "N": 5}
    assert check("sum(<i, _> in 0:N) V(i)", env) == pytest.approx(18.0)


# ---------------------------------------------------------------------------
# guard hoisting through let
# ---------------------------------------------------------------------------


def test_hoist_guard_moves_condition_above_let():
    body = db("sum(<i, v> in V) let x = v in if (i == 2) then x").body
    hoisted = _hoist_guard(body)
    assert isinstance(hoisted, IfThen)
    assert isinstance(hoisted.then, Let)


def test_hoist_guard_keeps_dependent_condition_in_place():
    body = db("sum(<i, v> in V) let x = v in if (x > 0) then x").body
    assert isinstance(_hoist_guard(body), Let)


def test_probe_behind_let_matches_interpreter():
    env = {"V": np.array([5.0, 6.0, 7.0]), "X": np.array([1.0, 2.0, 3.0])}
    check("sum(<i, v> in V) let x = X(i) in if (i == 1) then v * x", env)


# ---------------------------------------------------------------------------
# stats and fallback accounting
# ---------------------------------------------------------------------------


def test_stats_report_kernelized_loops():
    stats = {}
    check("sum(<i, v> in V) { i -> v }", {"V": np.array([1.0, 2.0])}, stats)
    assert stats["sum_loops"] == 1
    assert stats["fallback_sums"] == 0
    assert stats["fallback_merges"] == 0


def test_source_marker_names_the_kernel_mode():
    plan = typed_plan(db("sum(<i, v> in V) v"))
    mode = "numba-JIT" if HAVE_NUMBA else "NumPy"
    assert mode in plan.source
    assert "typed" in plan.source


# ---------------------------------------------------------------------------
# loop-invariant memoization (closed subplans evaluate in empty frames)
# ---------------------------------------------------------------------------


def test_invariant_subplan_with_nested_sums():
    # The inner sum over W is loop-invariant; memoized evaluation must not
    # see the outer batched frames (regression: TTM reindexed outer lanes).
    env = {"V": np.array([1.0, 2.0, 3.0]), "W": np.array([4.0, 5.0])}
    check("sum(<i, v> in V) v * sum(<j, w> in W) w * w", env)


# ---------------------------------------------------------------------------
# scatter of root BufferDict results into dense outputs
# ---------------------------------------------------------------------------


def test_result_to_vector_scatters_buffer_dict():
    env = {"V": np.array([1.0, 0.0, 3.0])}
    result = typed_plan(db("sum(<i, v> in V) { i -> 2 * v }"))(env)
    np.testing.assert_allclose(result_to_vector(result, 3), [2.0, 0.0, 6.0])


def test_result_to_matrix_scatters_buffer_dict():
    dense = np.array([[1.0, 0.0], [2.0, 3.0]])
    fmt = build_format("csr", "A", dense)
    env = fmt.physical()
    plan = db("sum(<row, _> in 0:A_len1) "
              "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
              "{ row -> { col -> A_val(off) } }")
    result = typed_plan(plan)(env)
    np.testing.assert_allclose(result_to_matrix(result, (2, 2)), dense)


# ---------------------------------------------------------------------------
# buffer levels structure
# ---------------------------------------------------------------------------


def test_levels_from_mapping_roundtrip():
    nested = {0: {1: 2.0}, 2: {0: 4.0, 2: 5.0}}
    levels = levels_from_mapping(nested)
    assert levels is not None
    coords = levels.leaf_coords()
    rebuilt = {}
    for coordinate, value in zip(coords, levels.values):
        rebuilt.setdefault(int(coordinate[0]), {})[int(coordinate[1])] = value
    assert rebuilt == nested


def test_levels_from_mapping_rejects_ragged_depth():
    assert levels_from_mapping({0: {1: 2.0}, 1: 3.0}) is None


def test_empty_buffer_levels_have_empty_leaves():
    levels = BufferLevels.from_sorted_coords(np.empty((0, 2), dtype=np.int64),
                                             np.empty(0))
    assert levels.depth == 2
    assert levels.leaf_coords().shape == (0, 2)


def test_buffer_levels_merge_is_semiring_addition():
    left = {0: {1: 2.0, 3: 0.1}, 2: {0: 4.0}, 5: {5: 1.0}}
    right = {0: {3: 0.2, 0: 7.0}, 2: {0: -4.0}, 4: {9: 3.0}, -1: {2: 1.0}}
    merged = levels_from_mapping(left).merge(levels_from_mapping(right))
    # Cancelled leaves go, and with them a parent left without children.
    assert BufferDict(merged).to_dict() == {
        -1: {2: 1.0}, 0: {0: 7.0, 1: 2.0, 3: 0.1 + 0.2}, 4: {9: 3.0}, 5: {5: 1.0}}
    assert values_equal(BufferDict(merged), v_add(left, right))
    empty = BufferLevels.from_sorted_coords(np.empty((0, 2), dtype=np.int64), np.empty(0))
    assert BufferDict(empty.merge(levels_from_mapping(left))).to_dict() == left
    assert BufferDict(levels_from_mapping(left).merge(empty)).to_dict() == left
    assert levels_from_mapping(left).merge(levels_from_mapping({0: 1.0})) is None


# ---------------------------------------------------------------------------
# numba-specific behavior (runs only where numba is importable)
# ---------------------------------------------------------------------------


@pytest.mark.skipif(not HAVE_NUMBA, reason="numba not installed")
def test_numba_kernels_match_numpy_reference():
    rng = np.random.default_rng(3)
    env = {"V": rng.random(1000)}
    stats = {}
    result = check("sum(<i, v> in V) { i -> v * v }", env, stats)
    assert stats["fallback_sums"] == 0
    assert isinstance(result, BufferDict)


@pytest.mark.skipif(HAVE_NUMBA, reason="covered by the numba leg in CI")
def test_numpy_fallback_mode_is_active():
    assert "NumPy" in typed_plan(db("sum(<i, v> in V) v")).source
