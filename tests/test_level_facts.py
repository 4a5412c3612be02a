"""Declared level facts: true of every stored layout, and never a change of result.

A :class:`~repro.storage.formats.LevelFormat` declares, from its shape and
level kinds alone, that every ``idx<k>`` key lies in ``[0, shape[axis])``
and that every ``pos<k>`` is non-decreasing from 0 to its level's entry
count (:mod:`repro.storage.facts`).  ``Catalog.globals()`` hands them to
each run, and ``typed`` uses them in place of bounds scans and gathers.
These tests check that

* every declared fact holds on the layout golden's inputs, before and after
  one ``apply_delta``, sharded formats included, and ``from_coo`` refuses
  coordinates that would break one;
* a run with facts and a run without are bit-identical on the eight
  ``warm_kernels`` rows, on the fuzz corpus and on generated cases;
* a fact describing another array than the one bound is ignored;
* no run writes into a stored array (the views it reads are shared).
"""

import math
import pathlib
import re

import numpy as np
import pytest

from repro.baselines.base import output_shape
from repro.core import compose
from repro.data.synthetic import random_sparse_matrix_coo, random_sparse_tensor3
from repro.execution.buffers import BufferDict
from repro.execution.engine import ExecutionEngine, PlanCache
from repro.execution.typed_backend import COMPARATORS, _decide, _fact, _Runtime
from repro.fuzz import generate_case, load_corpus_entry
from repro.fuzz.gendata import build_catalog
from repro.kernels import KERNELS
from repro.sdqlite import evaluate, parse_expr, values_equal
from repro.sdqlite.debruijn import to_debruijn_safe
from repro.sdqlite.errors import StorageError
from repro.sdqlite.values import is_scalar, to_plain
from repro.session import Session
from repro.storage import (
    ALL_FORMATS,
    Catalog,
    COOFormat,
    CSCFormat,
    CSFFormat,
    CSRFormat,
    DenseFormat,
)
from repro.storage.convert import apply_delta
from repro.storage.facts import ArrayFact, Environment

from test_format_layouts import TENSORS, _cases

CORPUS = sorted((pathlib.Path(__file__).resolve().parent / "corpus").glob("*.py"))


# ---------------------------------------------------------------------------
# the facts are true
# ---------------------------------------------------------------------------


def _assert_facts_hold(fmt) -> None:
    physical = fmt.physical()
    facts = fmt.facts()
    # Every key and segment array of a level chain declares bounds, nothing else does.
    declared = {symbol for symbol, value in physical.items()
                if isinstance(value, np.ndarray) and re.search(r"_(idx|pos)\d+$", symbol)}
    bounded = {symbol for symbol, fact in facts.items() if fact.lo is not None}
    if bounded:
        assert bounded == declared
    for symbol, fact in facts.items():
        array = fact.array
        assert physical[symbol] is array, symbol
        if array.size and fact.lo is not None:
            assert fact.lo <= int(array.min()) and int(array.max()) <= fact.hi, symbol
        if fact.ordered:
            assert array[0] == 0 and (np.diff(array) >= 0).all(), symbol
        if fact.finite is not None:
            assert symbol.endswith("_val") and np.isfinite(array).all(), symbol
            assert array.size == 0 or float(np.abs(array).max()) <= fact.finite, symbol


@pytest.mark.parametrize("key,kind,tensor,kwargs",
                         list(_cases()), ids=[case[0] for case in _cases()])
def test_declared_facts_hold_before_and_after_a_delta(key, kind, tensor, kwargs):
    shape, coords, values, delta_coords, delta_values = TENSORS[tensor]
    coords = np.array(coords, dtype=np.int64).reshape(-1, len(shape))
    try:
        fmt = ALL_FORMATS[kind].from_coo("T", coords, np.array(values, dtype=np.float64),
                                         shape, **kwargs)
    except StorageError:
        pytest.skip(f"{kind} cannot store {tensor}")
    _assert_facts_hold(fmt)
    _assert_facts_hold(apply_delta(fmt, delta_coords, delta_values))


@pytest.mark.parametrize("kind", ["coo", "csr", "csc", "dcsr", "dense", "sharded_csr"])
def test_the_finite_fact_follows_every_written_value(kind):
    """A values array declares itself finite, with a bound on its magnitude,
    exactly while every value written into it is finite: a delta that writes
    ``inf``, or whose sum overflows to it, ends the fact."""
    def finite(fmt):    # over every values array (a sharded format has one per shard)
        facts = fmt.facts()
        bounds = [facts[symbol].finite if symbol in facts else None
                  for symbol in fmt.physical() if symbol.endswith("_val")]
        return None if None in bounds else max(bounds)

    coords = np.array([[0, 0], [1, 2], [3, 1]], dtype=np.int64)
    fmt = ALL_FORMATS[kind].from_coo("T", coords, np.array([1.0, -4.0, 1e308]), (4, 4))
    assert finite(fmt) == 1e308
    _assert_facts_hold(fmt)
    grown = apply_delta(fmt, [[2, 2], [0, 0]], [-5e307, 2.0])
    assert finite(grown) == 1e308 and finite(fmt) == 1e308
    _assert_facts_hold(grown)
    assert finite(apply_delta(fmt, [[2, 3]], [np.inf])) is None
    with np.errstate(over="ignore"):
        overflow = apply_delta(fmt, [[3, 1]], [1e308])     # 1e308 + 1e308 is inf
    assert np.isinf(overflow.to_dense()[3, 1]) and finite(overflow) is None
    _assert_facts_hold(overflow)


def test_products_of_proven_finite_lanes_scan_nothing(warm_statements, monkeypatch):
    """BATAX over CSR multiplies three times per run; with the storage's
    finite facts none of the products is scanned for ``0 * inf``, without
    them every one is, and the results agree bit for bit."""
    from repro.execution import typed_backend

    scans = []
    product = typed_backend._product

    def counting(left, right, proven=False):
        scans.append(not proven)
        return product(left, right, proven)

    monkeypatch.setattr(typed_backend, "_product", counting)
    catalog, statement, shape = warm_statements["BATAX-csr"]
    env = catalog.globals()
    prepared = ExecutionEngine(env=env, cache=PlanCache()).prepare(statement.plan)
    with_facts = prepared.run(env, dense_shape=shape)
    assert sum(scans) == 0
    without = prepared.run(dict(env), dense_shape=shape)
    assert sum(scans) == 3
    assert _bits(with_facts) == _bits(without)


def test_every_chain_format_declares_facts():
    coords = np.array([[0, 0, 0], [2, 2, 2]], dtype=np.int64)
    for kind, cls in ALL_FORMATS.items():
        for rank in (2, 3):
            try:
                fmt = cls.from_coo("T", coords[:, :rank], np.ones(2), (4,) * rank)
            except StorageError:
                continue
            chain = kind in ("coo", "csr", "csc", "dcsr", "csf") or kind.startswith("sharded")
            bounded = [fact for fact in fmt.facts().values() if fact.lo is not None]
            assert bool(bounded) == chain, kind


@pytest.mark.parametrize("kind", sorted(ALL_FORMATS))
@pytest.mark.parametrize("bad", [(0, 5), (-1, 0)], ids=["past-the-end", "negative"])
def test_from_coo_refuses_coordinates_outside_the_shape(kind, bad):
    """A format that declares facts stores no coordinate that breaks them."""
    cls = ALL_FORMATS[kind]
    for rank in (2, 3):
        shape = (4,) * rank
        try:
            fmt = cls.from_coo("T", np.zeros((1, rank), dtype=np.int64), np.ones(1), shape)
        except StorageError:
            continue
        break
    if not any(fact.lo is not None for fact in fmt.facts().values()):
        pytest.skip(f"{kind} declares no bounds")
    coords = np.zeros((2, rank), dtype=np.int64)
    coords[1, :2] = bad
    with pytest.raises(StorageError, match="out of range"):
        cls.from_coo("T", coords, np.ones(2), shape)


# ---------------------------------------------------------------------------
# the facts change no result
# ---------------------------------------------------------------------------


def _bits(value):
    """A form of a run's result that compares equal only bit for bit."""
    if isinstance(value, BufferDict):
        levels = value.levels
        return ("levels", value.level, value.lo, value.hi,
                [keys.tolist() for keys in levels.keys],
                [seg.tolist() for seg in levels.seg], levels.values.tobytes())
    if isinstance(value, np.ndarray):
        return ("array", value.shape, value.astype(np.float64).tobytes())
    if is_scalar(value):
        return ("scalar", float(value).hex() if not math.isnan(value) else "nan")
    plain = to_plain(value)
    return ("dict", sorted((key, _bits(item)) for key, item in plain.items()))


def _run_both(plan, catalog, dense_shape=None):
    """The plan's result on ``catalog`` with its facts and without them."""
    env = catalog.globals()
    assert env.facts or not any(fmt.facts() for fmt in catalog.tensors.values())
    prepared = ExecutionEngine(env=env, cache=PlanCache()).prepare(plan)
    with_facts = prepared.run(env, dense_shape=dense_shape)
    without = prepared.run(dict(env), dense_shape=dense_shape)
    return with_facts, without


WARM_ROWS = {
    "MMM-csr": ("MMM", {"A": CSRFormat, "B": CSRFormat}),
    "SUMMM-csc": ("SUMMM", {"A": CSCFormat, "B": CSRFormat}),
    "BATAX-csr": ("BATAX", {"A": CSRFormat}),
    "TTM-csf": ("TTM", {"A": CSFFormat, "B": CSCFormat}),
    "MTTKRP-csf": ("MTTKRP", {"A": CSFFormat, "B": CSRFormat, "C": CSCFormat}),
    "MMM-coo": ("MMM", {"A": COOFormat, "B": CSRFormat}),
    "BATAX-csc": ("BATAX", {"A": CSCFormat}),
    "MTTKRP-coo": ("MTTKRP", {"A": COOFormat, "B": CSRFormat, "C": CSCFormat}),
}


def _warm_catalog(kernel: str, formats: dict) -> Catalog:
    rng = np.random.default_rng(20260728)
    catalog = Catalog()
    if kernel in ("MMM", "SUMMM"):
        data = {"A": (*random_sparse_matrix_coo(40, 40, 0.08, rng=rng), (40, 40)),
                "B": (*random_sparse_matrix_coo(40, 6, 0.3, rng=rng), (40, 6))}
    elif kernel == "BATAX":
        data = {"A": (*random_sparse_matrix_coo(40, 40, 0.08, rng=rng), (40, 40))}
        catalog.add(DenseFormat.from_dense("X", rng.uniform(0.1, 1.0, 40)))
        catalog.add_scalar("beta", 0.5)
    else:
        dims = (6, 12, 14)
        data = {"A": (*random_sparse_tensor3(*dims, 0.05, rng=rng), dims)}
        if kernel == "TTM":
            data["B"] = (*random_sparse_matrix_coo(4, 14, 0.5, rng=rng), (4, 14))
        else:
            data["B"] = (*random_sparse_matrix_coo(12, 4, 0.5, rng=rng), (12, 4))
            data["C"] = (*random_sparse_matrix_coo(14, 4, 0.5, rng=rng), (14, 4))
    for name, (coords, values, shape) in data.items():
        catalog.add(formats[name].from_coo(name, coords, values, shape))
    return catalog


@pytest.fixture(scope="module")
def warm_statements():
    statements = {}
    for row, (kernel, formats) in WARM_ROWS.items():
        catalog = _warm_catalog(kernel, formats)
        shape = output_shape(KERNELS[kernel], catalog)
        statement = Session(catalog, cache=PlanCache()).prepare(
            KERNELS[kernel].source, dense_shape=shape)
        statements[row] = (catalog, statement, shape)
    return statements


@pytest.mark.parametrize("row", sorted(WARM_ROWS))
def test_runs_with_and_without_facts_are_bit_identical_on_warm_rows(warm_statements, row):
    catalog, statement, shape = warm_statements[row]
    for dense_shape in (shape, None):
        with_facts, without = _run_both(statement.plan, catalog, dense_shape)
        assert _bits(with_facts) == _bits(without)
    # The statement path (facts through the session's environment) agrees too.
    assert _bits(statement.execute()) == _bits(_run_both(statement.plan, catalog, shape)[1])


@pytest.mark.parametrize("row", ["MMM-csr", "SUMMM-csc", "TTM-csf"])
def test_facts_prove_guards_and_make_reads_contiguous(warm_statements, row):
    _, statement, _ = warm_statements[row]
    stats: dict = {}
    statement.execute_with_stats(stats)
    assert stats["proven_guards"] > 0 and stats["contiguous_reads"] > 0, stats


def _plans(case):
    """The case's catalog with its composed plan, then with the optimizer's."""
    catalog = build_catalog(case.tensors, case.formats, case.scalars)
    mappings = {name: to_debruijn_safe(mapping)
                for name, mapping in catalog.mappings().items()}
    yield catalog, compose(to_debruijn_safe(case.program), mappings)
    yield catalog, Session(catalog).prepare(case.program).plan


def _assert_case_bit_identical(case):
    """The composed plan and the optimizer's, each run with and without facts."""
    for catalog, plan in _plans(case):
        with_facts, without = _run_both(plan, catalog)
        assert _bits(with_facts) == _bits(without), case.source


@pytest.mark.parametrize("path", CORPUS, ids=lambda path: path.stem)
def test_runs_with_and_without_facts_are_bit_identical_on_the_corpus(path):
    _assert_case_bit_identical(load_corpus_entry(path).case)


def test_runs_with_and_without_facts_are_bit_identical_on_generated_cases():
    for index in range(40):
        _assert_case_bit_identical(generate_case(20260728 * 1_000_000_007 + index))


@pytest.mark.parametrize("op", sorted(COMPARATORS))
def test_bounds_decide_a_comparison_exactly_when_every_lane_agrees(op):
    compare = COMPARATORS[op]
    intervals = [(lo, hi) for lo in range(-2, 3) for hi in range(lo, 3)]
    for left in intervals:
        for right in intervals:
            outcomes = {bool(compare(a, b)) for a in range(left[0], left[1] + 1)
                        for b in range(right[0], right[1] + 1)}
            expected = outcomes.pop() if len(outcomes) == 1 else None
            assert _decide(op, left, right) == expected, (op, left, right)


@pytest.mark.parametrize("program,contiguous", [
    ("sum(<i, _> in 2:6) { i -> X_val(i + 1) }", True),
    ("sum(<i, _> in 2:6) { i -> X_val(i - 2) }", True),
    ("sum(<i, _> in 0:4) { i -> X_val(i + 8) }", False),    # runs past the end: reads 0
    ("sum(<i, _> in 0:3) sum(<p, k> in X_val(i:i + 2)) { k -> p }", False),
])
def test_a_run_of_keys_reads_the_slice_it_names(program, contiguous):
    catalog = Catalog().add(DenseFormat.from_dense("X", np.arange(1.0, 11.0)))
    env = catalog.globals()
    plan = to_debruijn_safe(parse_expr(program))
    stats: dict = {}
    typed = ExecutionEngine(env=env, cache=PlanCache()).prepare(plan).run(env, stats)
    assert values_equal(typed, evaluate(plan, env))
    assert (stats["contiguous_reads"] > 0) == contiguous


@pytest.mark.parametrize("outer,key", [
    ("<r, _> in 0:A_len1", "r"),        # a run of keys: two views
    ("<_, r> in B_idx2", "r"),          # keys proven inside A_pos2: two gathers
    ("<_, r> in B_idx2", "r - 1"),      # proven from -1: the upper bound reads at r
    ("<_, r> in B_idx2", "r + 3"),      # past the end of A_pos2: checked gathers
])
@pytest.mark.parametrize("facts", [True, False])
def test_a_segment_reads_its_bounds_as_two_lookups_would(outer, key, facts):
    """``T(P(e):P(e + 1))`` reads ``P`` at ``e`` and ``e + 1`` from one
    evaluation of ``e``; spelled ``P(1 + e)``, the upper bound is a lookup of
    its own.  Both give the interpreter's result, bit for bit, and count the
    same work."""
    rng = np.random.default_rng(7)
    catalog = Catalog()
    catalog.add(CSRFormat.from_coo("A", *random_sparse_matrix_coo(5, 6, 0.4, rng=rng), (5, 6)))
    catalog.add(CSRFormat.from_coo("B", *random_sparse_matrix_coo(4, 4, 0.5, rng=rng), (4, 4)))
    env = catalog.globals() if facts else dict(catalog.globals())
    runs = []
    for hi in (f"({key}) + 1", f"1 + ({key})"):
        program = (f"sum({outer}) sum(<off, col> in "
                   f"A_idx2(A_pos2({key}):A_pos2({hi}))) {{ col -> A_val(off) }}")
        plan = to_debruijn_safe(parse_expr(program))
        stats: dict = {}
        typed = ExecutionEngine(env=env, cache=PlanCache()).prepare(plan).run(env, stats)
        assert values_equal(typed, evaluate(plan, env)), program
        runs.append((_bits(typed), stats))
    assert runs[0] == runs[1]


# ---------------------------------------------------------------------------
# a fact is about one array object
# ---------------------------------------------------------------------------


def test_a_fact_is_used_only_for_the_array_it_describes():
    described, other = np.arange(4), np.arange(4)
    rt = _Runtime(Environment({}, {id(other): ArrayFact(described, 0, 3)}))
    assert _fact(rt, other) is None
    rt = _Runtime(Environment({}, {id(described): ArrayFact(described, 0, 3)}))
    assert _fact(rt, described).hi == 3


def test_a_name_rebound_to_another_array_does_not_inherit_its_fact():
    """``j < 3`` is proven for the stored ``A_idx2``; rebound to columns that
    break it, the run must evaluate the guard like the interpreter."""
    coords = np.array([[0, 0], [0, 2], [1, 1], [2, 2]])
    catalog = Catalog().add(CSRFormat.from_coo("A", coords, np.arange(1.0, 5.0), (3, 3)))
    env = catalog.globals()
    assert id(env["A_idx2"]) in env.facts
    rebound = env.bind({"A_idx2": np.array([0, 7, 1, 9])})
    program = ("sum(<row, _> in 0:A_len1) sum(<off, j> in A_idx2(A_pos2(row):A_pos2(row + 1))) "
               "if (j < 3) then { j -> A_val(off) }")
    plan = to_debruijn_safe(parse_expr(program))
    typed = ExecutionEngine(env=rebound, cache=PlanCache()).prepare(plan).run(rebound)
    assert values_equal(typed, evaluate(plan, rebound))
    assert to_plain(typed) == {0: 1.0, 1: 3.0}


# ---------------------------------------------------------------------------
# views of stored arrays are never written
# ---------------------------------------------------------------------------


def test_repeated_runs_leave_every_stored_array_unchanged(warm_statements):
    for row, (catalog, statement, shape) in warm_statements.items():
        env = catalog.globals()
        before = {symbol: value.copy() for symbol, value in env.items()
                  if isinstance(value, np.ndarray)}
        for _ in range(3):
            statement.execute()
            _run_both(statement.plan, catalog, shape)
            _run_both(statement.plan, catalog)
        for symbol, array in before.items():
            assert env[symbol].tobytes() == array.tobytes(), (row, symbol)
