"""Segment collapse: a full traversal of a compressed level is one loop.

Every compressed level ``k >= 2`` of a level format declares that
``pos<k>`` splits ``idx<k>`` into back-to-back segments, one per entry of
level ``k - 1`` (``StorageFormat.segmentation``).  The optimizer's final pass
rewrites ``sum(<s,w> in S) sum(<o,v> in T(P(s):P(s + 1))) B`` into
``sum(<o,v> in T) B`` when ``S`` enumerates exactly ``P``'s segments and
``B`` reads neither ``s`` nor ``w`` (``strategies.collapse_segments``).
These tests check that

* CSR, CSC, DCSR and CSF declare their levels' segmentation, which holds on
  the stored data before and after writes; COO, DOK, trie and dense declare
  none; the statistics and plan keys follow the declarations;
* the rewrite fires on all-entries aggregates over CSR, CSC, DCSR, CSF and
  the shard addends of ``sharded_csr``, and on no ``warm_kernels`` row;
* it does not fire when the body reads ``s`` or ``w``, over a sub-range or
  another length, through a guard or ``let``, on an undeclared segment
  array, on COO / DOK / trie, or in an IVM delta plan;
* collapsed plans agree with the interpreter on random tensors with edge
  values, dictionary results are bit-identical to the uncollapsed plan's,
  and the collapsed plan is priced no higher than the nest it replaces;
* a format swap re-plans.
"""

import math

import numpy as np
import pytest

from repro.core.cost import CostModel
from repro.core.optimizer import optimize, symbol_ranks
from repro.core.statistics import Statistics
from repro.core.strategies import collapse_segments, rewrite_everywhere
from repro.data.synthetic import random_sparse_matrix_coo, random_sparse_tensor3
from repro.execution.engine import ExecutionEngine, PlanCache
from repro.kernels import KERNELS
from repro.sdqlite import evaluate, parse_expr
from repro.sdqlite.ast import Const, RangeExpr, Sym
from repro.sdqlite.debruijn import to_debruijn_safe
from repro.serving import catalog_fingerprint
from repro.session import Session
from repro.storage import (
    ALL_FORMATS,
    Catalog,
    COOFormat,
    DCSRFormat,
    DenseFormat,
    DOKFormat,
    ShardedCSRFormat,
    TrieFormat,
)
from repro.sdqlite.errors import StorageError
from repro.storage.facts import Segmentation

from test_level_facts import _bits, warm_statements  # noqa: F401 - a fixture

#: (format, program, the arrays whose traversal collapses).
FIRES = [
    ("csr", "sum(<(i,j), a> in A) a", ("A_idx2",)),
    ("csr", "sum(<(i,j), a> in A) { j -> a }", ("A_idx2",)),
    ("csc", "sum(<(i,j), a> in A) a", ("A_idx2",)),
    ("csc", "sum(<(i,j), a> in A) { i -> a }", ("A_idx2",)),
    ("dcsr", "sum(<(i,j), a> in A) a", ("A_idx2",)),
    ("dcsr", "sum(<(i,j), a> in A) { j -> a }", ("A_idx2",)),
    ("csf", "sum(<(i,j,k), a> in A) a", ("A_idx2", "A_idx3")),
    ("csf", "sum(<(i,j,k), a> in A) { k -> a }", ("A_idx2", "A_idx3")),
    ("csf", "sum(<(i,j,k), a> in A) { j -> a }", ("A_idx2",)),
]

#: CSR's row nest, in De Bruijn text: ``{S}``, ``{P}``, ``{HI}`` and ``{B}``
#: are filled in by the tests that vary one part of it.
NEST = "sum(<row, w> in {S}) sum(<off, col> in A_idx2({P}(row):{P}({HI}))) {B}"


def _fmt(kind, name, rng, shape=None, density=0.3, values=None):
    """A random ``kind`` tensor (rank 3 for CSF), edge values optional."""
    cls = ALL_FORMATS[kind]
    if kind == "csf":
        shape = shape or (4, 5, 6)
        coords, vals = random_sparse_tensor3(*shape, density, rng=rng)
    else:
        shape = shape or (7, 6)
        coords, vals = random_sparse_matrix_coo(*shape, density, rng=rng)
    if values is not None:
        vals = values(rng, vals.shape[0])
    return cls.from_coo(name, coords, vals, shape)


def _catalog(*formats) -> Catalog:
    catalog = Catalog()
    for fmt in formats:
        catalog.add(fmt)
    return catalog


def _ranks(catalog):
    return symbol_ranks(Statistics.from_catalog(catalog), catalog.mappings())


def _term(text):
    return to_debruijn_safe(parse_expr(text))


def _both_plans(program, catalog, method="greedy"):
    """``(collapsed, nested)``: the optimizer's result with the declared
    segmentation and without it (same search, no collapse)."""
    stats = Statistics.from_catalog(catalog)
    collapsed = optimize(parse_expr(program), catalog.mappings(), stats, method=method)
    plain = Statistics.from_catalog(catalog)
    plain.segmentation.clear()
    nested = optimize(parse_expr(program), catalog.mappings(), plain, method=method)
    return collapsed, nested, stats


def _typed(plan, catalog, dense_shape=None):
    env = catalog.globals()
    return ExecutionEngine(env=env, cache=PlanCache()).prepare(plan).run(
        env, dense_shape=dense_shape)


def _close(left, right) -> bool:
    """Equal within 1e-9 relative; ``nan`` equals ``nan``."""
    left, right = float(left), float(right)
    if math.isnan(left) or math.isnan(right):
        return math.isnan(left) and math.isnan(right)
    return math.isclose(left, right, rel_tol=1e-9, abs_tol=1e-12)


def _check_segmentation(fmt):
    """Every declaration holds on ``fmt``'s stored arrays."""
    physical = fmt.physical()
    for array, (pos, parents) in fmt.segmentation().items():
        segmented, offsets = physical[array], physical[pos]
        if isinstance(parents, RangeExpr):
            assert parents.lo == Const(0)
            count = physical[parents.hi.name]
        else:
            count = len(physical[parents.name])
        assert len(offsets) == count + 1
        assert offsets[0] == 0 and offsets[-1] == len(segmented)
        assert (np.diff(offsets) >= 0).all()


# ---------------------------------------------------------------------------
# the declaration
# ---------------------------------------------------------------------------


def test_each_level_kind_declares_its_segmentation():
    rng = np.random.default_rng(1)
    dense_root = Segmentation("A_pos2", RangeExpr(Const(0), Sym("A_len1")))
    assert _fmt("csr", "A", rng).segmentation() == {"A_idx2": dense_root}
    assert _fmt("csc", "A", rng).segmentation() == {"A_idx2": dense_root}
    assert _fmt("dcsr", "A", rng).segmentation() == {
        "A_idx2": Segmentation("A_pos2", Sym("A_idx1"))}
    assert _fmt("csf", "A", rng).segmentation() == {
        "A_idx2": Segmentation("A_pos2", Sym("A_idx1")),
        "A_idx3": Segmentation("A_pos3", Sym("A_idx2"))}
    for kind in ("coo", "dok", "trie"):
        assert _fmt(kind, "A", rng).segmentation() == {}, kind
    assert DenseFormat.from_dense("X", rng.random(4)).segmentation() == {}


def test_a_sharded_format_declares_each_shard():
    rng = np.random.default_rng(2)
    coords, values = random_sparse_matrix_coo(12, 5, 0.4, rng=rng)
    fmt = ShardedCSRFormat.from_coo("A", coords, values, (12, 5), shards=3)
    assert sorted(fmt.segmentation()) == ["A__s0_idx2", "A__s1_idx2", "A__s2_idx2"]
    assert fmt.segmentation()["A__s1_idx2"] == Segmentation(
        "A__s1_pos2", RangeExpr(Const(0), Sym("A__s1_len1")))
    _check_segmentation(fmt)


@pytest.mark.parametrize("kind", ["csr", "csc", "dcsr", "csf", "sharded_csr"])
def test_declarations_hold_on_the_data_before_and_after_writes(kind):
    rng = np.random.default_rng(3)
    for density in (0.0, 0.05, 0.4):
        if kind == "sharded_csr":
            coords, values = random_sparse_matrix_coo(9, 6, density, rng=rng)
            fmt = ShardedCSRFormat.from_coo("A", coords, values, (9, 6), shards=2)
        else:
            fmt = _fmt(kind, "A", rng, density=density)
        _check_segmentation(fmt)
        session = Session(_catalog(fmt))
        for _ in range(3):
            shape = fmt.shape
            coords = np.column_stack([rng.integers(0, dim, 3) for dim in shape])
            session.update("A", coords, rng.choice([1.0, -1.0], 3))
            _check_segmentation(session.catalog["A"])


def test_statistics_carry_the_declarations_through_swaps():
    rng = np.random.default_rng(4)
    csr, coo = _fmt("csr", "A", rng), _fmt("coo", "B", rng)
    stats = Statistics.from_catalog(_catalog(csr, coo))
    assert stats.segmentation == csr.segmentation()
    swapped = stats.with_formats([(csr, COOFormat.from_coo("A", *csr.to_coo(), csr.shape))])
    assert swapped.segmentation == {}
    assert stats.segmentation == csr.segmentation()           # the original is untouched
    dcsr = DCSRFormat.from_coo("B", *coo.to_coo(), coo.shape)
    assert set(stats.with_formats([(coo, dcsr)]).segmentation) == {"A_idx2", "B_idx2"}
    assert stats.with_selectivity(0.5).segmentation == stats.segmentation
    stats.remove_format(csr)
    assert stats.segmentation == {}
    # A session's statistics follow a format swap.
    session = Session(_catalog(_fmt("csr", "A", rng)))
    session.replace_format(DOKFormat.from_coo("A", *csr.to_coo(), csr.shape))
    assert session.statistics().segmentation == {}


def test_plan_keys_cover_the_declarations():
    """A declaration follows from the format class, name and rank, which the
    catalog fingerprint keys: equal fingerprints, equal declarations."""
    seen: dict = {}
    for kind, cls in sorted(ALL_FORMATS.items()):
        for seed in range(2):
            data = np.random.default_rng(seed).random((4, 4))
            data[data < 0.5] = 0.0
            try:
                fmt = cls.from_coo("A", np.argwhere(data), data[data != 0], (4, 4),
                                   **({"shards": 2} if kind.startswith("sharded") else {}))
            except StorageError:   # a special format this data does not fit
                continue
            key = catalog_fingerprint(_catalog(fmt))
            assert seen.setdefault(key, fmt.segmentation()) == fmt.segmentation(), kind
    assert len({repr(v) for v in seen.values()}) >= 3


# ---------------------------------------------------------------------------
# where it fires
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("method", ["greedy", "egraph"])
@pytest.mark.parametrize("kind, program, collapsed", FIRES)
def test_all_entries_aggregates_collapse(kind, program, collapsed, method):
    rng = np.random.default_rng(6)
    catalog = _catalog(_fmt(kind, "A", rng))
    statement = Session(catalog, cache=PlanCache()).prepare(program, method=method)
    assert statement.optimization.collapsed_segments == collapsed
    assert "segment traversals collapsed into one loop: " + ", ".join(collapsed) \
        in statement.explain()
    ranks = _ranks(catalog)
    assert rewrite_everywhere(statement.plan, (collapse_segments,),
                              symbol_ranks=ranks) == statement.plan   # nothing left
    if "{" not in program:
        naive = statement.optimization.naive_plan
        assert _close(statement.execute(), evaluate(naive, catalog.globals()))


def test_each_shard_addend_of_sharded_csr_collapses():
    rng = np.random.default_rng(7)
    coords, values = random_sparse_matrix_coo(10, 6, 0.4, rng=rng)
    catalog = _catalog(ShardedCSRFormat.from_coo("A", coords, values, (10, 6), shards=2))
    statement = Session(catalog, cache=PlanCache()).prepare(
        "sum(<(i,j), a> in A) a", method="egraph")
    assert statement.optimization.collapsed_segments == ("A__s0_idx2", "A__s1_idx2")
    assert _close(statement.execute(), values.sum())


def test_the_update_views_reader_collapses_and_no_warm_row_does(warm_statements):
    rng = np.random.default_rng(8)
    catalog = _catalog(_fmt("csr", "A", rng, (30, 30), 0.1),
                       _fmt("csr", "B", rng, (30, 4), 0.3))
    reader = Session(catalog, cache=PlanCache()).prepare(KERNELS["SUMMM"].source,
                                                         dense_shape=())
    assert reader.optimization.collapsed_segments == ("A_idx2",)
    a, b = catalog["A"].to_dense(), catalog["B"].to_dense()
    assert _close(reader.execute(), (a @ b).sum())
    for row, (_, statement, _) in warm_statements.items():
        assert statement.optimization.collapsed_segments == (), row


# ---------------------------------------------------------------------------
# where it does not
# ---------------------------------------------------------------------------


def _csr_ranks():
    rng = np.random.default_rng(9)
    return _ranks(_catalog(_fmt("csr", "A", rng), _fmt("csr", "B", rng)))


def test_the_rule_collapses_the_declared_nest_and_shifts_outer_indices():
    ranks = _csr_ranks()
    nest = _term("let c = 2.5 in " + NEST.format(S="0:A_len1", P="A_pos2", HI="row + 1",
                                                 B="A_val(off) * c + col"))
    assert rewrite_everywhere(nest, (collapse_segments,), symbol_ranks=ranks) == _term(
        "let c = 2.5 in sum(<off, col> in A_idx2) A_val(off) * c + col")


@pytest.mark.parametrize("variant", [
    dict(B="A_val(off) * row"),                          # the body reads s
    dict(B="A_val(off) * w"),                            # ... or w
    dict(S="1:A_len1"),                                  # a sub-range
    dict(S="0:B_len1"),                                  # another length symbol
    dict(S="A_idx2"),                                    # another enumerator
    dict(P="B_pos2"),                                    # a segment array not A_idx2's
    dict(HI="row + 2"),                                  # not one segment
], ids=["reads-s", "reads-w", "sub-range", "other-length", "other-enumerator",
        "undeclared-pos", "two-segments"])
def test_the_rule_leaves_any_other_nest(variant):
    parts = dict(S="0:A_len1", P="A_pos2", HI="row + 1", B="A_val(off)")
    parts.update(variant)
    nest = _term(NEST.format(**parts))
    assert collapse_segments(nest, (), _csr_ranks()) is None


@pytest.mark.parametrize("between", ["if (row < 3) then ", "let r = row in "])
def test_a_guard_or_let_between_the_sums_blocks_it(between):
    nest = _term("sum(<row, w> in 0:A_len1) " + between
                 + "sum(<off, col> in A_idx2(A_pos2(row):A_pos2(row + 1))) A_val(off)")
    assert rewrite_everywhere(nest, (collapse_segments,), symbol_ranks=_csr_ranks()) == nest


def test_an_unsegmented_user_symbol_is_left_alone():
    rng = np.random.default_rng(10)
    catalog = _catalog(DenseFormat.from_dense("P", np.array([0.0, 2.0, 5.0])),
                       DenseFormat.from_dense("T", rng.random(5)))
    nest = _term("sum(<s, w> in 0:2) sum(<o, v> in T_val(P_val(s):P_val(s + 1))) v")
    assert collapse_segments(nest, (), _ranks(catalog)) is None
    # Without declared segments (a plain mapping), nothing collapses either.
    csr_nest = _term(NEST.format(S="0:A_len1", P="A_pos2", HI="row + 1", B="A_val(off)"))
    assert collapse_segments(csr_nest, (), {}) is None


@pytest.mark.parametrize("kind", ["coo", "dok", "trie"])
def test_unsegmented_formats_keep_their_plans(kind):
    rng = np.random.default_rng(11)
    catalog = _catalog(_fmt(kind, "A", rng))
    for method in ("greedy", "egraph"):
        statement = Session(catalog).prepare("sum(<(i,j), a> in A) a", method=method)
        assert statement.optimization.collapsed_segments == ()
        assert "collapsed" not in statement.explain()


def test_a_view_collapses_but_its_delta_plan_does_not():
    rng = np.random.default_rng(12)
    session = Session(_catalog(_fmt("csr", "A", rng, (8, 8), 0.3)))
    view = session.create_view("colsum", "sum(<(i,j), a> in A) { j -> a }")
    assert view.statement.optimization.collapsed_segments == ("A_idx2",)
    delta = session.views().delta_plan(view, "A")
    assert delta is not None and not delta.trivial
    assert delta.optimization.collapsed_segments == ()
    session.update("A", np.array([[1, 2], [7, 7]]), np.array([0.5, -1.0]))
    expected = session.catalog["A"].to_dense().sum(axis=0)
    got = np.zeros(8)
    for key, value in view.value().items():
        got[key] = value
    assert np.allclose(got, expected)


# ---------------------------------------------------------------------------
# results and costs
# ---------------------------------------------------------------------------


def _edge_values(index):
    """Values by turns: plain, signed zeros / infinities / nan, exact
    cancellation (dyadic values, so every summation order is exact)."""
    if index % 3 == 1:
        pool = [0.5, -0.5, 1.5, -0.0, 3.25, np.inf, -np.inf, np.nan]
    elif index % 3 == 2:
        pool = [1.0, -1.0, 0.25, -0.25]
    else:
        return None
    return lambda rng, n: rng.choice(pool, n) if n else np.empty(0)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")   # inf - inf
@pytest.mark.parametrize("kind", ["csr", "csc", "dcsr", "csf"])
def test_collapsed_plans_agree_on_random_tensors(kind):
    rng = np.random.default_rng(13)
    scalar, keyed = [program for k, program, _ in FIRES if k == kind][:2]
    for index in range(42):
        if kind == "csf":
            shape = tuple(int(d) for d in rng.integers(1, 6, 3))
        else:
            shape = tuple(int(d) for d in rng.integers(1, 12, 2))
        density = 0.0 if index % 10 == 4 else float(rng.uniform(0.05, 0.7))
        catalog = _catalog(_fmt(kind, "A", rng, shape, density, _edge_values(index)))
        for program in (scalar, keyed):
            collapsed, nested, _ = _both_plans(program, catalog)
            if catalog["A"].nnz:   # on no entries every candidate costs the same
                assert collapsed.collapsed_segments and collapsed.plan != nested.plan
            result = _typed(collapsed.plan, catalog)
            reference = evaluate(nested.naive_plan, catalog.globals())
            if program is scalar:
                assert _close(result, reference), (index, result, reference)
            else:
                # Same lanes in the same order: bit for bit the nest's result.
                assert _bits(result) == _bits(_typed(nested.plan, catalog))
                dense = np.zeros(shape[-1] if kind != "csc" else shape[0])
                for key, value in (reference.items() if hasattr(reference, "items") else ()):
                    dense[key] = value
                out = _typed(collapsed.plan, catalog, dense_shape=dense.shape)
                assert np.allclose(out, dense, rtol=1e-9, atol=1e-12, equal_nan=True), index
                assert _bits(out) == _bits(_typed(nested.plan, catalog, dense.shape))


@pytest.mark.parametrize("kind, program, collapsed", FIRES)
def test_a_collapsed_plan_is_priced_no_higher_than_the_nest(kind, program, collapsed):
    rng = np.random.default_rng(14)
    shape = (20, 30, 40) if kind == "csf" else (300, 200)
    catalog = _catalog(_fmt(kind, "A", rng, shape, 0.01 if kind == "csf" else 0.02))
    result, nested, stats = _both_plans(program, catalog)
    assert result.collapsed_segments == collapsed
    model = CostModel(stats)
    assert result.cost == pytest.approx(model.plan_cost(result.plan))
    assert model.plan_cost(result.plan) <= model.plan_cost(nested.plan)


def test_the_reader_is_priced_below_its_nest():
    rng = np.random.default_rng(15)
    catalog = _catalog(_fmt("csr", "A", rng, (400, 400), 0.01),
                       _fmt("csr", "B", rng, (400, 8), 0.2))
    result, nested, stats = _both_plans(KERNELS["SUMMM"].source, catalog)
    assert result.collapsed_segments == ("A_idx2",)
    assert CostModel(stats).plan_cost(result.plan) < CostModel(stats).plan_cost(nested.plan)


# ---------------------------------------------------------------------------
# re-planning
# ---------------------------------------------------------------------------


def test_a_format_swap_re_plans_a_collapsed_statement():
    rng = np.random.default_rng(16)
    a = _fmt("csr", "A", rng, (9, 7), 0.4)
    x = rng.random(7)
    session = Session(_catalog(a, DenseFormat.from_dense("X", x)))
    statement = session.prepare("sum(<(i,j), v> in A) v * X(j)")
    assert statement.optimization.collapsed_segments == ("A_idx2",)
    expected = float((a.to_dense() @ x).sum())
    assert _close(statement.execute(), expected)
    for replacement in (DOKFormat, TrieFormat, DCSRFormat):
        session.replace_format(replacement.from_coo("A", *a.to_coo(), a.shape))
        assert statement.is_stale
        assert _close(statement.execute(), expected)
        assert statement.optimization.collapsed_segments == (
            ("A_idx2",) if replacement is DCSRFormat else ())
