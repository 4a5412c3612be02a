"""Segment tables: a correlated inner sum runs once per stored segment.

A ``sum`` over ``T(P(e):P(e + 1))`` whose body reads only its own two
binders has one value per segment ``e`` of ``P``.  Nested in a batched body,
``typed`` evaluates it once over every segment and answers each outer lane
with one gather at ``e`` — when the declared facts prove ``e`` inside the
segments and the table is no larger than the lanes (``docs/backends.md``).
These tests check that

* a run with facts (tables) and one without (per-lane expansion) are bit
  identical, and agree with the interpreter, on the ``update_views`` reader,
  ΣMMM with ``A`` in CSR and COO and random CSR × CSR pairs, edge values
  included;
* no table is built when a rule fails, and two tables of one plan are not
  confused;
* a table lives one run: an update of the operand it summarizes shows;
* ``segment_tables`` counts them, and reads 0 on every ``warm_kernels`` row;
* a profiled run records the loop counts the expansion would have;
* no run writes into a stored array.
"""

import math

import numpy as np
import pytest

from repro.data.synthetic import random_sparse_matrix_coo
from repro.execution import typed_backend
from repro.execution.engine import ExecutionEngine, PlanCache
from repro.execution.profile import ExecutionProfile
from repro.kernels import KERNELS
from repro.sdqlite import evaluate, parse_expr, values_equal
from repro.sdqlite.debruijn import to_debruijn_safe
from repro.session import Session
from repro.storage import Catalog, COOFormat, CSRFormat, TrieFormat

from test_level_facts import WARM_ROWS, _bits, warm_statements  # noqa: F401 - a fixture

#: ``update_views``' prepared reader: ΣMMM's plan with ``A`` and ``B`` in CSR.
READER = ("sum(<row, _w1> in 0:A_len1) sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row + 1))) "
          "let a = A_val(off) in if (0 <= col && col < B_len1) then "
          "a * (sum(<v1, v2> in B_idx2(B_pos2(col):B_pos2(col + 1))) let b = B_val(v1) in b)")


def _matrix(rng, rows, cols, density, values=None):
    coords, vals = random_sparse_matrix_coo(rows, cols, density, rng=rng)
    if values is not None:
        vals = values(rng, vals.shape[0])
    return coords, vals, (rows, cols)


def _catalog(a, b, a_format=CSRFormat) -> Catalog:
    catalog = Catalog()
    catalog.add(a_format.from_coo("A", *a))
    catalog.add(CSRFormat.from_coo("B", *b))
    return catalog


def _plan(text: str):
    return to_debruijn_safe(parse_expr(text))


def _run(plan, env, profile=None):
    """``(result, stats)`` of one ``typed`` run of ``plan`` on ``env``."""
    stats: dict = {}
    result = ExecutionEngine(env=env, cache=PlanCache()).prepare(plan).run(
        env, stats, profile)
    return result, stats


def _agree(left, right) -> bool:
    """Equal up to summation order, with ``nan`` equal to ``nan``."""
    if isinstance(left, float) and isinstance(right, float) \
            and (math.isnan(left) or math.isinf(left)):
        return math.isnan(left) and math.isnan(right) or left == right
    return values_equal(left, right)


def _check_both(plan, catalog) -> dict:
    """The run with facts bit-identical to the run without, both the
    interpreter's value; the stats of the run with facts."""
    env = catalog.globals()
    with_facts, stats = _run(plan, env)
    without, plain = _run(plan, dict(env))
    assert plain["segment_tables"] == 0, "a run without facts proved a table"
    assert _bits(with_facts) == _bits(without)
    assert type(with_facts) is type(without), (with_facts, without)
    assert _agree(with_facts, evaluate(plan, env)), (with_facts, evaluate(plan, env))
    return stats


# ---------------------------------------------------------------------------
# same bits as the per-lane expansion
# ---------------------------------------------------------------------------


def test_the_update_views_reader_reads_tables_with_the_same_bits():
    rng = np.random.default_rng(41)
    catalog = _catalog(_matrix(rng, 256, 256, 0.03), _matrix(rng, 256, 8, 2.0 ** -5))
    statement = Session(catalog, cache=PlanCache()).prepare(
        KERNELS["SUMMM"].source, dense_shape=())
    stats: dict = {}
    result = statement.execute_with_stats(stats)
    assert stats["segment_tables"] == 1, stats
    assert _check_both(statement.plan, catalog)["segment_tables"] == 1
    assert _bits(result) == _bits(_run(statement.plan, dict(catalog.globals()))[0])
    assert _check_both(_plan(READER), catalog)["segment_tables"] == 1


@pytest.mark.parametrize("a_format", [CSRFormat, COOFormat], ids=["A-csr", "A-coo"])
def test_summm_reads_one_table_whatever_stores_a(a_format):
    rng = np.random.default_rng(7)
    catalog = _catalog(_matrix(rng, 60, 50, 0.1), _matrix(rng, 50, 6, 0.3), a_format)
    plan = Session(catalog, cache=PlanCache()).prepare(KERNELS["SUMMM"].source).plan
    assert _check_both(plan, catalog)["segment_tables"] == 1


def _edge_values(rng, n):
    """Values with signed zeros, infinities, nan and pairs that cancel."""
    pool = np.array([0.5, -0.5, 1.5, -1.5, -0.0, 2.0 ** 60, -(2.0 ** 60), 1e-300,
                     np.inf, -np.inf, np.nan, 3.25])
    return rng.choice(pool, n) if n else np.empty(0)


def _random_pair(rng, index):
    """A CSR × CSR pair: empty rows, an empty ``B``, edge values by turns."""
    m, k = (int(x) for x in rng.integers(1, 30, 2))
    n = int(rng.integers(1, 6))
    values = None
    if index % 3 == 1:
        values = _edge_values
    elif index % 3 == 2:
        values = lambda rng, n: rng.choice([1.0, -1.0, 0.25, -0.25], n)  # noqa: E731
    a = _matrix(rng, m, k, float(rng.uniform(0.05, 0.9)))
    b = _matrix(rng, k, n, 0.0 if index % 7 == 3 else float(rng.uniform(0.0, 0.6)), values)
    return a, b


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # the interpreter's inf - inf
def test_random_csr_pairs_are_bit_identical_with_and_without_tables():
    rng = np.random.default_rng(20260807)
    plan = _plan(READER)
    fired = 0
    for index in range(48):
        a, b = _random_pair(rng, index)
        catalog = _catalog(a, b)
        stats = _check_both(plan, catalog)
        a_nnz, b_rows, b_nnz = len(a[1]), b[2][0], len(catalog.globals()["B_val"])
        # The table is taken exactly when it is no larger than the lanes and
        # is not empty (an empty B sums to 0 everywhere: expanded as before).
        expected = 0 < b_nnz <= a_nnz and b_rows <= a_nnz
        assert (stats["segment_tables"] == 1) == expected, (index, a_nnz, b_rows, b_nnz)
        fired += expected
    assert fired >= 20


# ---------------------------------------------------------------------------
# no table when a rule fails
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("b_rows", [25, 39])
def test_no_table_when_the_key_bounds_are_not_proven_inside_the_segments(b_rows):
    """``B`` has fewer rows than ``A`` has columns: the guard is evaluated,
    and a column past ``B``'s rows must read an empty segment."""
    rng = np.random.default_rng(3)
    coords, values, shape = _matrix(rng, 40, 40, 0.2)
    a = (np.vstack([coords, [[0, 39]]]), np.append(values, 0.5), shape)  # column 39 read
    catalog = _catalog(a, _matrix(rng, b_rows, 4, 0.5))
    assert _check_both(_plan(READER), catalog)["segment_tables"] == 0


def test_no_table_with_fewer_lanes_than_segments():
    """An 8-entry ``A``, like an IVM delta, over a 100-row ``B``."""
    rng = np.random.default_rng(4)
    coords = np.column_stack([rng.choice(100, 8, replace=False), rng.integers(0, 100, 8)])
    a = (coords, rng.uniform(0.1, 1.0, 8), (100, 100))
    catalog = _catalog(a, _matrix(rng, 100, 4, 0.02))
    assert _check_both(_plan(READER), catalog)["segment_tables"] == 0


def test_no_table_when_the_body_reads_an_outer_binder():
    rng = np.random.default_rng(5)
    catalog = _catalog(_matrix(rng, 40, 40, 0.2), _matrix(rng, 40, 6, 0.3))
    plan = Session(catalog, cache=PlanCache()).prepare(KERNELS["MMM"].source).plan
    assert _check_both(plan, catalog)["segment_tables"] == 0


@pytest.mark.parametrize("body", [
    "{ v2 -> B_val(v1) }",      # a dictionary the lowering sees
    "D_trie(v2)",               # a row of a stored trie, seen only at run time
])
def test_no_table_when_the_body_yields_a_dictionary(body):
    rng = np.random.default_rng(6)
    catalog = _catalog(_matrix(rng, 40, 40, 0.2), _matrix(rng, 40, 40, 0.1))
    catalog.add(TrieFormat.from_coo("D", *_matrix(rng, 40, 5, 0.4)))
    plan = _plan("sum(<row, _w1> in 0:A_len1) sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row + 1))) "
                 "if (col < B_len1) then A_val(off) * "
                 f"(sum(<v1, v2> in B_idx2(B_pos2(col):B_pos2(col + 1))) {body})")
    assert _check_both(plan, catalog)["segment_tables"] == 0


def test_no_table_when_the_key_is_a_range_run():
    """Row ``r`` of a range: its slice ``P(r):P(r + 1)`` is already one range."""
    rng = np.random.default_rng(8)
    catalog = _catalog(_matrix(rng, 40, 40, 0.2), _matrix(rng, 40, 6, 0.1))
    assert len(catalog.globals()["B_val"]) <= 40     # small enough for a table
    plan = _plan("sum(<r, _> in 0:B_len1) { r -> "
                 "sum(<v1, v2> in B_idx2(B_pos2(r):B_pos2(r + 1))) B_val(v1) }")
    assert _check_both(plan, catalog)["segment_tables"] == 0


# ---------------------------------------------------------------------------
# one table per sum, per run
# ---------------------------------------------------------------------------


def test_two_tables_over_one_pos_array_are_kept_apart():
    """Two segment sums over ``B_pos2`` with different bodies."""
    rng = np.random.default_rng(9)
    catalog = _catalog(_matrix(rng, 50, 40, 0.2), _matrix(rng, 40, 6, 0.3))
    segment = "(sum(<v1, v2> in B_idx2(B_pos2(col):B_pos2(col + 1))) {})"
    plan = _plan("sum(<row, _w1> in 0:A_len1) sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row + 1))) "
                 "if (col < B_len1) then A_val(off) * "
                 f"{segment.format('B_val(v1)')} * {segment.format('v2 + 1')}")
    assert _check_both(plan, catalog)["segment_tables"] == 2


def test_a_table_holds_the_sum_of_every_segment(monkeypatch):
    """One value per row of ``B``: its row sum, added in stored order."""
    runs = []

    class Recorded(typed_backend._Runtime):
        __slots__ = ()

        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            runs.append(self)

    monkeypatch.setattr(typed_backend, "_Runtime", Recorded)
    rng = np.random.default_rng(13)
    catalog = _catalog(_matrix(rng, 60, 50, 0.1), _matrix(rng, 50, 6, 0.3))
    _run(_plan(READER), catalog.globals())
    (rt,) = runs
    (table,) = [value for key, value in rt.invariants.items() if key[0] == "segments"]
    env = catalog.globals()
    pos, values = env["B_pos2"], env["B_val"]
    rows = np.repeat(np.arange(len(pos) - 1), np.diff(pos))
    expected = np.bincount(rows, weights=values, minlength=len(pos) - 1)
    assert table[0].tobytes() == expected.tobytes()


def test_a_table_lives_one_run():
    """An update of ``B`` between two reads: the second read sees it."""
    rng = np.random.default_rng(10)
    catalog = _catalog(_matrix(rng, 60, 50, 0.1), _matrix(rng, 50, 6, 0.3))
    session = Session(catalog, cache=PlanCache())
    statement = session.prepare(KERNELS["SUMMM"].source, dense_shape=())
    for step in range(3):
        stats: dict = {}
        result = statement.execute_with_stats(stats)
        assert stats["segment_tables"] == 1
        env = session.catalog.globals()
        assert _agree(result, evaluate(statement.plan, env))
        assert _bits(result) == _bits(_run(statement.plan, dict(env))[0])
        session.update("B", np.array([[step, 0], [7, 2], [step + 20, 5]]),
                       np.array([2.5, -1.0, 4.0]))


# ---------------------------------------------------------------------------
# counters, profiles and stored arrays
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("row", sorted(WARM_ROWS))
def test_no_warm_kernels_row_reads_a_table(warm_statements, row):
    _, statement, _ = warm_statements[row]
    stats: dict = {}
    statement.execute_with_stats(stats)
    assert stats["segment_tables"] == 0, stats


def _profiles_agree(plan, catalog) -> None:
    env = catalog.globals()
    profiled, plain = ExecutionProfile(), ExecutionProfile()
    _, stats = _run(plan, env, profiled)
    _run(plan, dict(env), plain)
    assert stats["segment_tables"] > 0
    assert profiled.loops == plain.loops and profiled.entries == plain.entries


def test_a_profiled_run_records_the_loop_counts_of_the_expansion():
    rng = np.random.default_rng(11)
    catalog = _catalog(_matrix(rng, 80, 60, 0.1), _matrix(rng, 60, 6, 0.3))
    _profiles_agree(_plan(READER), catalog)
    # Every lane in an empty segment: the expansion's loop iterates nothing,
    # and its sum is the integer 0, not a lane of 0.0s.
    a = (np.array([[0, 1], [1, 1], [2, 3], [3, 3]]), np.ones(4), (4, 4))
    b = (np.array([[0, 0], [2, 0]]), np.array([1.0, 2.0]), (4, 2))
    catalog = _catalog(a, b)
    plan = _plan("sum(<row, _w1> in 0:A_len1) sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row + 1))) "
                 "sum(<v1, v2> in B_idx2(B_pos2(col):B_pos2(col + 1))) B_val(v1)")
    for program in (_plan(READER), plan):
        _profiles_agree(program, catalog)
        assert _check_both(program, catalog)["segment_tables"] == 1


def test_repeated_runs_leave_every_stored_array_unchanged():
    rng = np.random.default_rng(12)
    catalog = _catalog(_matrix(rng, 60, 50, 0.1), _matrix(rng, 50, 6, 0.3))
    env = catalog.globals()
    before = {symbol: value.copy() for symbol, value in env.items()
              if isinstance(value, np.ndarray)}
    plan = _plan(READER)
    for _ in range(3):
        _check_both(plan, catalog)
    for symbol, array in before.items():
        assert env[symbol].tobytes() == array.tobytes(), symbol
