"""Unit tests for the typed-buffer backend (repro.execution.typed_backend).

The kernel × format parity matrix lives in ``tests/test_execution.py`` and
the differential fuzzer exercises random programs; these tests target the
individual mechanisms: the one level window of every stored input, lane
expansion over :class:`BufferLevels`, batched sorted lookups (including
empty levels), guard hoisting through ``let``,
loop-invariant memoization, fallback accounting, and the scatter path that
turns root :class:`BufferDict` results into dense arrays.
"""

import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.execution import typed_backend, typed_plan
from repro.execution.buffers import (
    HEAP_KEPT,
    BufferDict,
    BufferLevels,
    levels_from_mapping,
    lookup_sorted,
)
from repro.execution.engine import result_to_matrix, result_to_vector
from repro.execution.typed_backend import (
    TBatch,
    TFlat,
    TWindow,
    _flatten,
    _lookup_batched,
    _Runtime,
    _stored,
)
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.sdqlite.debruijn import hoist_guard
from repro.sdqlite.values import RangeDict, SliceDict, v_add
from repro.sdqlite.ast import IfThen, Let
from repro.storage import COOFormat, TrieFormat, build_format


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
    pos, found, _ = lookup_sorted(np.empty(0, dtype=np.int64),
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
# lookups into a per-lane entry bag (the dictionary an inner sum just built)
# ---------------------------------------------------------------------------

# Lane i builds { K(p) -> V(p) : p in LO(i):HI(i) }: lane 0 holds key 1
# twice, lane 1 keys 0 and 2, lane 2 key 3, lane 3 is empty.
_BAG = "(sum(<p, k> in K(LO(i):HI(i))) { k -> V(p) })"
_BAG_ENV = {"N": 4, "LO": np.array([0, 2, 4, 5]), "HI": np.array([2, 4, 5, 5]),
            "K": np.array([1, 1, 0, 2, 3]), "V": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}


def _kernelized(source, env):
    stats = {}
    result = check(source, env, stats)
    assert stats["fallback_sums"] == 0, stats["fallback_reasons"]
    return result


def test_entry_bag_lookup_with_a_key_per_lane():
    env = {**_BAG_ENV, "Q": np.array([1, 2, 9, 3])}
    result = _kernelized(f"sum(<i, _> in 0:N) {{ i -> {_BAG}(Q(i)) }}", env)
    # duplicates of one lane add up; a missing key and an empty bag read 0
    assert result_to_vector(result, 4).tolist() == [3.0, 4.0, 0.0, 0.0]


def test_entry_bag_lookup_with_one_key_for_every_lane():
    result = _kernelized(f"sum(<i, _> in 0:N) {{ i -> {_BAG}(1) }}", _BAG_ENV)
    assert result_to_vector(result, 4).tolist() == [3.0, 0.0, 0.0, 0.0]
    assert _kernelized(f"sum(<i, _> in 0:N) {_BAG}(1.5)", _BAG_ENV) == 0


def test_entry_bag_lookup_of_a_key_that_cancels_to_zero():
    env = {**_BAG_ENV, "V": np.array([1.0, -1.0, 3.0, 4.0, 5.0])}
    assert _kernelized(f"sum(<i, _> in 0:N) {{ i -> {_BAG}(1) }}", env) == 0


def test_entry_bag_lookup_skips_non_integer_key_lanes():
    env = {**_BAG_ENV, "Q": np.array([1.0, 2.5, np.nan, 3.0])}
    result = _kernelized(f"sum(<i, _> in 0:N) {{ i -> {_BAG}(Q(i)) }}", env)
    assert result_to_vector(result, 4).tolist() == [3.0, 0.0, 0.0, 0.0]


def test_entry_bag_lookup_peels_one_level_of_a_deeper_bag():
    bag = "(sum(<p, k> in K(LO(i):HI(i))) { k -> { p -> V(p) } })"
    env = {**_BAG_ENV, "Q": np.array([1, 0, 3, 0])}
    result = _kernelized(f"sum(<i, _> in 0:N) {{ i -> {bag}(Q(i)) }}", env)
    assert result_to_matrix(result, (4, 5)).tolist() == [
        [1.0, 2.0, 0, 0, 0], [0, 0, 3.0, 0, 0], [0, 0, 0, 0, 5.0], [0] * 5]


def test_a_built_bag_is_iterated_through_its_window():
    """A sum over the dictionary an inner sum just built: lane 0's two
    entries under key 1 are one entry of 3.0, as the interpreter sees it."""
    result = _kernelized(f"sum(<i, _> in 0:N) sum(<k, v> in {_BAG}) {{ k -> v * (i + 1) }}",
                         _BAG_ENV)
    assert result_to_vector(result, 4).tolist() == [6.0, 3.0, 8.0, 15.0]


def test_a_built_bag_is_looked_up_through_its_window():
    """A lookup in a deeper bag is a window over the bag's next level, which
    the body iterates in turn."""
    bag = "(sum(<p, k> in K(LO(i):HI(i))) { k -> { p -> V(p) } })"
    env = {**_BAG_ENV, "Q": np.array([1, 0, 3, 0])}
    result = _kernelized(f"sum(<i, _> in 0:N) sum(<c, v> in {bag}(Q(i))) {{ c -> v * (i + 1) }}",
                         env)
    assert result_to_vector(result, 5).tolist() == [1.0, 2.0, 6.0, 0.0, 15.0]


def test_a_let_bound_bag_is_read_under_an_inner_expansion():
    """The inner sum is empty on lanes 2 and 3, so its lane map names lanes
    0 and 1 only, while the bag has an entry on lane 2: the bag's window
    covers every lane it has entries on."""
    env = {**_BAG_ENV, "QLO": np.array([0, 1, 3, 3]), "QHI": np.array([1, 3, 3, 3]),
           "Q": np.array([1, 0, 2])}
    result = _kernelized(f"sum(<i, _> in 0:N) let b = {_BAG} in "
                         "sum(<p, q> in Q(QLO(i):QHI(i))) { p -> b(q) }", env)
    assert result_to_vector(result, 3).tolist() == [3.0, 3.0, 4.0]


def test_lookup_batched_entry_bag_reports_surviving_lanes():
    def bag(cols, vals, rows):
        return TFlat([np.array(col, dtype=np.int64) for col in cols],
                     np.array(vals, dtype=np.float64), np.array(rows, dtype=np.int64),
                     [None] * len(cols))

    rt = _Runtime({})
    keys = TBatch(np.array([3, 3, 3], dtype=np.int64))
    # lane 0: 3 twice and a 4; lane 1: 3 cancelling to zero; lane 2: nothing
    flat = bag([[3, 4, 3, 3, 3]], [1.0, 9.0, 2.0, 5.0, -5.0], [0, 0, 0, 1, 1])
    value = _lookup_batched(rt, flat, keys, None)
    assert isinstance(value, TBatch) and value.data.tolist() == [3.0, 0.0, 0.0]
    # an invalid (non-integer) key lane hits nothing
    value = _lookup_batched(rt, flat, keys, np.array([False, True, True]))
    assert value.data.tolist() == [0.0, 0.0, 0.0]
    # an empty bag
    value = _lookup_batched(rt, bag([[]], [], []), keys, None)
    assert value.data.tolist() == [0.0, 0.0, 0.0]
    # depth 2: the matching entries with the outermost column peeled; lane 1's
    # two matches cancel, so it holds nothing
    deep = bag([[3, 3, 4, 3, 3, 3], [7, 8, 9, 6, 6, 7]],
               [1.0, 2.0, 3.0, 5.0, -5.0, 4.0], [0, 0, 0, 1, 1, 2])
    value = _flatten(rt, _lookup_batched(rt, deep, keys, None))
    assert len(value.cols) == 1
    assert value.cols[0].tolist() == [7, 8, 7] and value.rows.tolist() == [0, 0, 2]
    assert value.vals.tolist() == [1.0, 2.0, 4.0]
    # each lookup grouped its bag once, and the run counts those group-bys
    assert sum(rt.regimes.values()) == 4


# ---------------------------------------------------------------------------
# one level window for every stored input and per-lane dictionary
# ---------------------------------------------------------------------------


def test_every_stored_input_has_one_root_window():
    rt = _Runtime({})
    array = np.array([1.0, 2.0, 3.0])
    whole = _stored(rt, array)
    assert (whole.levels, whole.target, whole.lo, whole.hi, whole.contiguous) == \
        (None, array, 0, 3, True)
    bare = _stored(rt, RangeDict(2, 5))
    assert (bare.levels, bare.target, bare.lo, bare.hi, bare.contiguous) == \
        (None, None, 2, 5, False)
    part = _stored(rt, SliceDict(array, 1, 3))
    assert (part.target, part.lo, part.hi, part.contiguous) == (array, 1, 3, False)
    nested = {0: {1: 2.0}, 3: {4: 5.0, 6: 7.0}}
    level = _stored(rt, nested)
    assert level.levels is not None and (level.level, level.lo, level.hi) == (0, 0, 2)
    assert _stored(rt, nested).levels is level.levels and rt.levelized == 1
    child = _stored(rt, BufferDict(level.levels, 1, 1, 3))
    assert (child.levels, child.level, child.lo, child.hi) == (level.levels, 1, 1, 3)
    assert _stored(rt, {(0, 1): 2.0}) is None          # tuple keys have no level


def test_a_probed_window_never_reads_its_bounds():
    """A compressed per-lane window looked up (a kept re-layout's row) gathers
    nothing from its segment array; iterating it reads the bounds once."""
    levels = levels_from_mapping({0: {1: 2.0, 4: 5.0}, 3: {1: 7.0}})
    window = TWindow(None, None, levels=levels, level=1,
                     owner=np.array([0, 1, -1], dtype=np.int64))
    found = _lookup_batched(_Runtime({}), window, TBatch(np.array([4, 1, 1])), None)
    assert found.data.tolist() == [5.0, 7.0, 0.0] and window.lo is None
    parent, keys, values, counts = typed_backend._window_entries(_Runtime({}), window)
    assert window.lo.tolist() == [0, 2, 0] and window.hi.tolist() == [2, 3, 0]
    assert parent.tolist() == [0, 0, 1] and keys.data.tolist() == [1, 4, 1]
    assert values.data.tolist() == [2.0, 5.0, 7.0] and counts.tolist() == [2, 1, 0]


@pytest.mark.parametrize("source", [
    "sum(<i, v> in V) { i -> v * W }",
    "sum(<i, v> in V) { i -> if (v > 0.5) then W }",
    "sum(<i, v> in V) { i -> v * (2:5) }",
    "sum(<i, v> in V) sum(<k, w> in v * W) { k -> w * i }",
    "sum(<i, v> in V) (v * W)(i)",
])
def test_a_loop_invariant_array_per_lane_is_a_dense_window(source):
    """A stored array (or range) times a per-lane scalar, or under a batched
    guard, is read through its own dense window: nothing is levelized."""
    env = {"V": np.array([1.0, 0.0, 3.0]), "W": np.array([2.0, -1.0, 0.0, 4.0])}
    stats: dict = {}
    check(source, env, stats)
    assert stats["fallback_sums"] == 0 and stats["levelized"] == 0, stats


# ---------------------------------------------------------------------------
# guard hoisting through let
# ---------------------------------------------------------------------------


def test_hoist_guard_moves_condition_above_let():
    body = db("sum(<i, v> in V) let x = v in if (i == 2) then x").body
    hoisted = hoist_guard(body)
    assert isinstance(hoisted, IfThen)
    assert isinstance(hoisted.then, Let)


def test_hoist_guard_keeps_dependent_condition_in_place():
    body = db("sum(<i, v> in V) let x = v in if (x > 0) then x").body
    assert isinstance(hoist_guard(body), Let)


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
    assert stats["fallback_reasons"] == {}


def test_stats_report_group_by_regimes():
    """Every reduction to a dictionary names the regime it took; the other
    counters are there and zero."""
    def regimes(source, env):
        stats = {}
        check(source, env, stats)
        return {key[len("group_by_"):]: count for key, count in stats.items()
                if key.startswith("group_by_")}

    nothing = dict.fromkeys(("ordered", "segmented", "dense", "sorted", "lexsort"), 0)
    env = {"V": np.array([1.0, 2.0, 3.0, 4.0]), "K": np.array([3, 1, 1, 0]),
           "S": np.array([0, 0, 2, 5]), "W": np.array([0, 1 << 40, 7, 1 << 40]),
           "H": np.array([0, 1 << 62, 5, 1 << 62])}
    assert regimes("sum(<i, v> in V) { i -> v }", env) == {**nothing, "ordered": 1}
    assert regimes("sum(<i, v> in V) { S(i) -> v }", env) == {**nothing, "segmented": 1}
    assert regimes("sum(<i, v> in V) { K(i) -> v }", env) == {**nothing, "dense": 1}
    assert regimes("sum(<i, v> in V) { W(i) -> v }", env) == {**nothing, "sorted": 1}
    assert regimes("sum(<i, v> in V) { H(i) -> { H(i) -> v } }", env) == \
        {**nothing, "lexsort": 1}
    assert regimes("sum(<i, v> in V) v", env) == nothing


def test_python_loop_fallback_is_a_debug_event(caplog):
    # Float values as dictionary keys have no typed representation.
    env = {"V": np.array([0.5, 1.5, 0.5])}
    stats = {}
    with caplog.at_level(logging.DEBUG, logger="repro.execution"):
        check("sum(<i, v> in V) { v -> 1 }", env, stats)
    assert stats["fallback_sums"] == 1 and stats["fallback_merges"] == 0
    # the stats sink names the reason with the log event's own string
    assert stats["fallback_reasons"] == {"non-integer dictionary keys in batched body": 1}
    (record,) = caplog.records
    assert record.levelno == logging.DEBUG
    message = record.getMessage()
    assert "typed sum #1 over V falls back to a Python loop" in message
    assert "non-integer dictionary keys" in message


def test_run_outcome_explain_says_why_a_loop_fell_back():
    from repro import Session
    from repro.storage import DenseFormat

    session = Session().register(DenseFormat.from_dense("V", np.array([0.5, 1.5, 0.5])))
    outcome = session.run_detailed("sum(<i, v> in V) { v -> 1 }")
    assert outcome.execution_stats["fallback_reasons"] == \
        {"non-integer dictionary keys in batched body": 1}
    rendered = outcome.explain().splitlines()
    at = rendered.index("loops that fell back to Python, by reason:")
    assert rendered[at + 1] == "  1 x non-integer dictionary keys in batched body"
    assert not any("fallback_reasons" in line for line in rendered)
    # Nothing to explain when everything kernelized.
    clean = session.run_detailed("sum(<i, v> in V) { i -> v }").explain()
    assert "fell back" not in clean and "fallback_sums" in clean


def test_merge_fallback_is_a_debug_event(caplog):
    env = {"L": {0: float("inf"), 1: 2.0}, "R": {5: 2.0, 6: float("inf")}}
    stats = {}
    with caplog.at_level(logging.DEBUG, logger="repro.execution"):
        check("merge(<p1, p2, l> in <L, R>) { l -> p1 + p2 }", env, stats)
    assert stats["fallback_merges"] == 1
    assert stats["fallback_reasons"] == {"non-finite merge values": 1}
    assert any("typed merge #1 over L falls back to a Python loop: non-finite merge values"
               in record.getMessage() for record in caplog.records)


def test_kernelized_loops_log_nothing(caplog):
    matrix = build_format("csr", "A", np.array([[1.0, 0.0], [2.0, 3.0]]))
    with caplog.at_level(logging.DEBUG, logger="repro.execution"):
        check("sum(<row, _> in 0:A_len1) "
              "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
              "{ col -> A_val(off) }", matrix.physical())
    assert not caplog.records


def test_source_marker_names_the_kernel_mode():
    """Every kernel is NumPy, whether or not numba is importable."""
    source = typed_plan(db("sum(<i, v> in V) v")).source
    assert "typed" in source and "NumPy kernels" in source
    assert "numba" not in source.lower()


def test_numpy_fallback_mode_is_active():
    """The NumPy kernel mode is always active: no build ever skips it."""
    assert "NumPy" in typed_plan(db("sum(<i, v> in V) v")).source


# ---------------------------------------------------------------------------
# order-aware accumulation and late materialization
# ---------------------------------------------------------------------------


def test_coo_rebuild_never_sorts(no_sorting):
    """A COO tensor is stored in canonical order, so rebuilding the nested
    dictionary from its arrays passes the entries through."""
    rng = np.random.default_rng(5)
    coords = np.column_stack([rng.integers(0, 30, 200), rng.integers(0, 40, 200)])
    fmt = COOFormat.from_coo("A", coords, rng.random(200), (30, 40))
    plan = typed_plan(db("sum(<p, _> in 0:A_nnz) { A_idx1(p) -> { A_idx2(p) -> A_val(p) } }"))
    stats = {}
    no_sorting()
    result = plan(fmt.physical(), stats)
    assert stats["group_by_ordered"] == 1
    np.testing.assert_array_equal(result_to_matrix(result, (30, 40)), fmt.to_dense())


def test_csr_row_major_output_never_sorts(no_sorting):
    rng = np.random.default_rng(6)
    dense = rng.random((20, 25)) * (rng.random((20, 25)) < 0.2)
    fmt = build_format("csr", "A", dense)
    plan = typed_plan(db("sum(<row, _> in 0:A_len1) "
                         "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
                         "{ row -> { col -> 2 * A_val(off) } }"))
    stats = {}
    no_sorting()
    result = plan(fmt.physical(), stats)
    assert stats["group_by_ordered"] == 1
    np.testing.assert_array_equal(result_to_matrix(result, (20, 25)), 2 * dense)


def test_results_share_no_memory_with_the_inputs():
    env = {"V": np.array([1.0, 2.0, 3.0])}
    result = typed_plan(db("sum(<i, v> in V) { i -> v }"))(env)
    assert not np.shares_memory(result.levels.values, env["V"])


def test_unread_outer_bindings_are_never_gathered(monkeypatch):
    """Lane expansion defers the enclosing bindings: only those the body reads
    are re-indexed, once, however many expansions lie in between."""
    fmt = build_format("csr", "A", np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 4.0]]))
    env = {**fmt.physical(), "V": np.array([10.0, 20.0]), "W": np.array([1.0, 2.0])}
    gathered = []
    reindex = typed_backend._reindex

    def recording(rt, value, parent):
        gathered.append((value, parent.shape[0]))
        return reindex(rt, value, parent)

    monkeypatch.setattr(typed_backend, "_reindex", recording)
    # `row`, `unread` and `v` are bound two expansions above the body, `off`
    # and `col` one; the body reads `v`, `off` and `col`.
    check("sum(<row, unread> in W) let v = V(row) in "
          "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
          "sum(<k, _> in 0:2) { col -> v * A_val(off) }", env)
    assert all(lanes == 8 for _, lanes in gathered)         # 4 stored entries x range(2)
    outermost = [value.data for value, _ in gathered if value.data.shape[0] == 2]
    assert len(gathered) == 3 and len(outermost) == 1
    np.testing.assert_array_equal(outermost[0], env["V"])   # in one gather, not one per level


_HEAP_PROBE = """
import resource
import numpy as np
from repro.execution import typed_plan
from repro.sdqlite import parse_expr, to_debruijn
from repro.storage import CSRFormat

rng = np.random.default_rng(7)
fmt = CSRFormat.from_coo("A", rng.integers(0, 4000, (80000, 2)), rng.random(80000), (4000, 4000))
plan = typed_plan(to_debruijn(parse_expr(
    "sum(<row, _> in 0:A_len1) sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row+1))) "
    "{ col -> { row -> A_val(off) } }")))
env = fmt.physical()
for _ in range(3):
    plan(env)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(10):
    plan(env)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(not HEAP_KEPT, reason="the allocator has no glibc mallopt")
def test_repeated_executions_reuse_the_heap():
    """The MBs of lane arrays an execution frees are there for the next one.
    In a fresh process that never freed a large block, glibc would hand them
    back in between: ~750 minor faults per execution of this kernel."""
    src = Path(typed_backend.__file__).resolve().parents[2]
    done = subprocess.run([sys.executable, "-c", _HEAP_PROBE], text=True, check=True,
                          stdout=subprocess.PIPE, env={**os.environ, "PYTHONPATH": str(src)})
    assert int(done.stdout) < 10 * 64


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

