"""Tests for the term-level rewrite transformations (factorization, fusion, etc.).

Every transformation must preserve the semantics of the expression it is
applied to; this is checked both on the paper's examples and property-style
on random data for the full kernel pipelines.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import compose, strategies
from repro.core.strategies import (
    candidate_plans,
    factorize,
    fuse,
    hoist_dict,
    hoist_factor,
    hoist_if,
    hoist_let_from_source,
    inline_let,
    introduce_merge,
    is_strict_in,
    lookup_of_range_sum,
    simplify_node,
    sum_over_singleton,
    sum_to_lookup,
    fuse_sum_of_sum,
)
from repro.core import Statistics
from repro.core.optimizer import optimize
from repro.data.synthetic import random_dense_vector, random_sparse_matrix
from repro.kernels import BATAX_NESTED, KERNELS, MMM, MTTKRP, SUM_MMM, TTM, BATAX
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.sdqlite.ast import Idx, Let, Merge, Mul, Sum, DictExpr, IfThen, postorder
from repro.sdqlite.debruijn import to_debruijn_safe
from repro.storage import (Catalog, COOFormat, CSFFormat, CSRFormat, CSCFormat, DenseFormat,
                           TrieFormat)
from repro.data.synthetic import random_sparse_tensor3


def db(source):
    return to_debruijn(parse_expr(source))


def check_equivalent(before, after, env):
    assert after is not None
    assert values_equal(evaluate(before, env), evaluate(after, env)), (
        f"transformation changed semantics\nbefore: {before}\nafter: {after}")


# ---------------------------------------------------------------------------
# individual transformations
# ---------------------------------------------------------------------------


def test_hoist_factor_moves_invariant_out():
    term = db("sum(<i, v> in A) beta * v")
    out = hoist_factor(term)
    assert isinstance(out, Mul)
    env = {"A": {0: 1.0, 2: 3.0}, "beta": 2.0}
    check_equivalent(term, out, env)
    # nothing to hoist when every factor depends on the loop
    assert hoist_factor(db("sum(<i, v> in A) v * v")) is None


def test_hoist_dict_paper_batax_first_factorization():
    # Sec. 6.3: hoist the dictionary construction out of the inner sum.
    term = db("sum(<k, w> in Ai) { j -> w * X(k) }")
    # j is a free variable here, so wrap in an outer binder to make it bound.
    outer = Sum(db("A"), term)
    inner_before = outer.body
    out = hoist_dict(inner_before)
    assert isinstance(out, DictExpr)
    env = {"A": {0: 1.0}, "Ai": {0: 2.0, 3: 4.0}, "X": {0: 1.0, 3: 2.0}, "j": 5}
    check_equivalent(db("sum(<k, w> in Ai) { 5 -> w * X(k) }"),
                     hoist_dict(db("sum(<k, w> in Ai) { 5 -> w * X(k) }")), env)


def test_hoist_if_moves_invariant_condition():
    term = db("sum(<i, v> in A) if (c > 0) then v")
    out = hoist_if(term)
    assert isinstance(out, IfThen)
    for c in (-1.0, 1.0):
        check_equivalent(term, out, {"A": {0: 2.0, 1: 3.0}, "c": c})
    assert hoist_if(db("sum(<i, v> in A) if (v > 0) then v")) is None


def test_sum_to_lookup_f1():
    term = db("sum(<i, a> in A) if (i == j) then a * 2")
    out = sum_to_lookup(term)
    assert isinstance(out, Let)
    env = {"A": {0: 5.0, 3: 7.0}, "j": 3}
    check_equivalent(term, out, env)
    # missing key: both sides must be zero (body is strict in the value)
    check_equivalent(term, out, {"A": {0: 5.0}, "j": 9})
    # a non-strict body must not be rewritten
    assert sum_to_lookup(db("sum(<i, a> in A) if (i == j) then a + 1")) is None


def test_fuse_sum_of_sum_f3():
    source = """
    sum(<col, val> in (sum(<off, c> in A_idx(0:3)) { @unique c -> A_val(off) }))
      { col -> val * X(col) }
    """
    term = db(source)
    out = fuse_sum_of_sum(term)
    assert isinstance(out, Sum) and isinstance(out.body, Let)
    env = {
        "A_idx": np.array([4, 1, 3]),
        "A_val": np.array([10.0, 20.0, 30.0]),
        "X": {1: 2.0, 3: 3.0, 4: 4.0},
    }
    check_equivalent(term, out, env)


def test_fuse_sum_of_sum_f2():
    source = """
    sum(<k, v> in (sum(<i, a> in A) { i -> a * 2 })) { k -> v + v }
    """
    term = db(source)
    out = fuse_sum_of_sum(term)
    assert out is not None
    check_equivalent(term, out, {"A": {0: 1.0, 5: 2.0}})


def test_fuse_requires_unique_or_key_identity():
    # keys come from an arbitrary expression without @unique, and the body is
    # not linear in the value: no fusion
    term = db("sum(<k, v> in (sum(<i, a> in A) { B(i) -> a })) { k -> v * v }")
    assert fuse_sum_of_sum(term) is None


# ---------------------------------------------------------------------------
# linear fusion: a sum whose body is linear in the value fuses over repeated keys
# ---------------------------------------------------------------------------

#: A column-major 3x3 matrix: column c holds rows A_idx(A_pos(c):A_pos(c+1)).
CSC_ENV = {"n": 3, "A_pos": np.array([0, 2, 3, 5]), "A_idx": np.array([0, 2, 1, 0, 2]),
           "A_val": np.array([1.0, 2.0, 3.0, 4.0, 5.0])}
CSC_ROWS = ("sum(<c, _> in 0:n) sum(<off, r> in A_idx(A_pos(c):A_pos(c + 1))) "
            "{ r -> { c -> A_val(off) } }")

#: Coordinate lists with a repeated row (0) and a repeated cell (0, 1).
COO_ENV = {"nnz": 4, "A_i": np.array([0, 0, 2, 0]), "A_j": np.array([1, 2, 0, 1]),
           "A_v": np.array([1.0, 2.0, 3.0, 4.0]),
           "B": {0: {0: 1.0, 1: 2.0}, 1: {1: 3.0}, 2: {0: 4.0}}}
COO_ROWS = "sum(<p, _> in 0:nnz) { A_i(p) -> { A_j(p) -> A_v(p) } }"

#: A dictionary built over repeated keys: B(i) maps 0 and 1 to the key 5.
REPEATED = "(sum(<i, a> in A) { B(i) -> a })"
REPEATED_ENV = {"A": {0: 1.0, 1: 2.0, 2: 4.0}, "B": np.array([5, 5, 7])}


def _sums_over_built_dicts(plan):
    """The ``sum`` nodes of ``plan`` whose source is itself a ``sum``."""
    return [node for node in postorder(plan)
            if isinstance(node, Sum) and isinstance(node.source, Sum)]


def test_linear_fusion_distributes_the_csc_sum_of_all_entries():
    term = db(f"sum(<i, row> in {CSC_ROWS}) sum(<j, v> in row) v")
    out = fuse_sum_of_sum(term)
    # The row-major rebuild is distributed over the columns it sums.
    assert isinstance(out, Sum) and isinstance(out.body, Sum)
    check_equivalent(term, out, CSC_ENV)
    fused = fuse(term)
    assert not _sums_over_built_dicts(fused)
    check_equivalent(term, fused, CSC_ENV)


def test_linear_fusion_streams_coo_entries_in_mmm():
    term = db(f"sum(<i, row> in {COO_ROWS}) sum(<j, a> in row) {{ i -> a * B(j) }}")
    out = fuse_sum_of_sum(term)
    # F3's binding, without @unique: the row keys A_i(p) repeat.
    assert isinstance(out, Sum) and isinstance(out.body, Let)
    check_equivalent(term, out, COO_ENV)
    fused = fuse(term)
    assert not _sums_over_built_dicts(fused)
    check_equivalent(term, fused, COO_ENV)


@pytest.mark.parametrize("body", [
    "{ k -> v * v }",              # not linear in the value
    "v(3)",                        # a probe of the value
    "if (k == 5) then v",          # the key in an equality
    f"v * {REPEATED}(k)",          # the closed source mentioned again
], ids=["bilinear", "probe-of-value", "key-equality", "source-again"])
def test_linear_fusion_is_blocked(body):
    term = db(f"sum(<k, v> in {REPEATED}) {body}")
    assert fuse_sum_of_sum(term) is None


def test_linear_fusion_over_repeated_keys_keeps_semantics():
    term = db(f"sum(<k, v> in {REPEATED}) {{ k -> v * 2 }}")
    check_equivalent(term, fuse_sum_of_sum(term), REPEATED_ENV)


def test_sum_over_singleton_binds_key_and_value():
    term = db("sum(<k, v> in { x -> y }) { k -> v * 2 }")
    out = sum_over_singleton(term)
    assert isinstance(out, Let)
    for y in (0.0, 3.0):
        check_equivalent(term, out, {"x": 4, "y": y})
    # The sum over an empty singleton is 0, which a non-strict body is not.
    assert sum_over_singleton(db("sum(<k, v> in { x -> y }) k + 1")) is None


#: The greedy picks that rebuilt a dictionary out of stored entries on every
#: run before linear fusion: row-major A from CSC, nested A from COO.
REBUILDING_ROWS = {
    "SUMMM-csc": ("SUMMM", {"A": CSCFormat, "B": CSRFormat}),
    "MMM-coo": ("MMM", {"A": COOFormat, "B": CSRFormat}),
    "MTTKRP-coo": ("MTTKRP", {"A": COOFormat, "B": CSRFormat, "C": CSCFormat}),
}


@pytest.mark.parametrize("row", sorted(REBUILDING_ROWS))
def test_greedy_pick_sums_no_dictionary_it_builds(row):
    kernel_name, formats = REBUILDING_ROWS[row]
    catalog = Catalog()
    if kernel_name == "MTTKRP":
        coords, values = random_sparse_tensor3(8, 6, 7, 0.1, seed=3)
        catalog.add(COOFormat.from_coo("A", coords, values, (8, 6, 7)))
        catalog.add(CSRFormat.from_dense("B", random_sparse_matrix(6, 4, 0.4, seed=4)))
        catalog.add(CSCFormat.from_dense("C", random_sparse_matrix(7, 4, 0.4, seed=5)))
    else:
        for offset, name in enumerate("AB"):
            catalog.add(formats[name].from_dense(
                name, random_sparse_matrix(10, 10, 0.3, seed=offset)))
    kernel = KERNELS[kernel_name]
    pick = optimize(kernel.program, catalog.mappings(), Statistics.from_catalog(catalog),
                    method="greedy")
    plan = to_debruijn_safe(pick.plan)
    assert not _sums_over_built_dicts(plan), pick.plan
    env = catalog.globals()
    assert values_equal(evaluate(plan, env),
                        evaluate(compose(kernel.program, catalog.mappings()), env))


def test_introduce_merge_f4():
    source = """
    sum(<p1, x> in L) sum(<p2, y> in R) if (x == y) then { x -> V1(p1) * V2(p2) }
    """
    term = db(source)
    out = introduce_merge(term)
    assert isinstance(out, Merge)
    env = {
        "L": {0: 3, 1: 5, 2: 8},
        "R": {0: 5, 1: 7, 2: 8},
        "V1": np.array([1.0, 2.0, 3.0]),
        "V2": np.array([10.0, 20.0, 30.0]),
    }
    check_equivalent(term, out, env)


def test_hoist_let_from_source():
    term = db("sum(<i, v> in (let t = A in t)) { i -> v * 2 }")
    out = hoist_let_from_source(term)
    assert isinstance(out, Let)
    check_equivalent(term, out, {"A": {1: 4.0}})


def test_inline_let_beta_reduction():
    term = db("let t = 3 in t * t")
    assert inline_let(term) == db("3 * 3")
    term = db("let t = A(2) in t + 1")
    check_equivalent(term, inline_let(term), {"A": {2: 5.0}})


def test_lookup_of_range_sum():
    term = db("(sum(<i, _> in 0:4) { i -> V(i) })(k)")
    out = lookup_of_range_sum(term)
    assert out is not None
    for k in (0, 2, 7):
        check_equivalent(term, out, {"V": np.array([1.0, 2.0, 3.0, 4.0]), "k": k})


def test_simplify_node_rules():
    assert simplify_node(db("x + 0")) == db("x")
    assert simplify_node(db("x * 0")) == db("0")
    assert simplify_node(db("x * 1")) == db("x")
    assert simplify_node(db("if (true) then x")) == db("x")
    assert simplify_node(db("if (false) then x")) == db("0")
    # `x - x` and `x == x` hold only for a proven integer: inf - inf is nan,
    # and nan == nan is false.
    ranks = strategies.SymbolRanks({}, integral=("x", "y"))
    assert simplify_node(db("x - x"), (), ranks) == db("0")
    assert simplify_node(db("if (y == y) then x"), (), ranks) == db("x")
    assert simplify_node(db("x - x")) is None
    assert simplify_node(db("if (y == y) then x")) is None
    assert simplify_node(db("sum(<i, v> in A) 0")) == db("0")
    assert simplify_node(db("x * 2")) is None


def test_is_strict_in():
    assert is_strict_in(db("sum(<i, v> in A) v * B(i)").body, 0)
    assert is_strict_in(Idx(0), 0)
    assert not is_strict_in(db("sum(<i, v> in A) v + 1").body, 0)
    assert is_strict_in(db("{ 3 -> %0 * 2 }" .replace('%0', 'x')) , 0) is False


# ---------------------------------------------------------------------------
# full pipelines on every kernel / storage combination
# ---------------------------------------------------------------------------


def build_catalog(kernel_name, seed=0, size=10, density=0.3):
    rng_seed = seed
    a = random_sparse_matrix(size, size, density, seed=rng_seed)
    catalog = Catalog()
    if kernel_name in ("MMM", "SUMMM"):
        b = random_sparse_matrix(size, size, density, seed=rng_seed + 1)
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(CSRFormat.from_dense("B", b))
    elif kernel_name in ("BATAX", "BATAX-nested"):
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(DenseFormat.from_dense("X", random_dense_vector(size, seed=rng_seed + 2)))
        catalog.add_scalar("beta", 1.5)
    elif kernel_name == "TTM":
        coords, values = random_sparse_tensor3(size, 6, 7, 0.1, seed=rng_seed)
        catalog.add(CSFFormat.from_coo("A", coords, values, (size, 6, 7)))
        catalog.add(CSCFormat.from_dense("B", random_sparse_matrix(5, 7, 0.4, seed=rng_seed + 3)))
    elif kernel_name == "MTTKRP":
        coords, values = random_sparse_tensor3(size, 6, 7, 0.1, seed=rng_seed)
        catalog.add(CSFFormat.from_coo("A", coords, values, (size, 6, 7)))
        catalog.add(CSRFormat.from_dense("B", random_sparse_matrix(6, 4, 0.4, seed=rng_seed + 3)))
        catalog.add(CSCFormat.from_dense("C", random_sparse_matrix(7, 4, 0.4, seed=rng_seed + 4)))
    return catalog


@pytest.mark.parametrize("kernel_name", ["MMM", "SUMMM", "BATAX", "BATAX-nested", "TTM", "MTTKRP"])
def test_all_candidate_plans_preserve_semantics(kernel_name):
    kernel = KERNELS[kernel_name]
    catalog = build_catalog(kernel_name)
    naive = compose(kernel.program, catalog.mappings())
    env = catalog.globals()
    reference = evaluate(naive, env)
    for name, plan in candidate_plans(naive).items():
        assert values_equal(evaluate(plan, env), reference), (
            f"{kernel_name}: candidate plan {name!r} changed the result")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000),
       density=st.floats(min_value=0.0, max_value=0.6))
def test_property_batax_pipeline_preserves_semantics(seed, density):
    catalog = build_catalog("BATAX-nested", seed=seed, size=7, density=density)
    naive = compose(BATAX_NESTED.program, catalog.mappings())
    env = catalog.globals()
    reference = evaluate(naive, env)
    fused = fuse(naive)
    factorized = factorize(naive)
    both = factorize(fuse(naive))
    assert values_equal(evaluate(fused, env), reference)
    assert values_equal(evaluate(factorized, env), reference)
    assert values_equal(evaluate(both, env), reference)


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_property_mmm_with_trie_storage(seed):
    a = random_sparse_matrix(6, 5, 0.4, seed=seed)
    b = random_sparse_matrix(5, 4, 0.4, seed=seed + 1)
    catalog = Catalog()
    catalog.add(TrieFormat.from_dense("A", a))
    catalog.add(CSRFormat.from_dense("B", b))
    naive = compose(MMM.program, catalog.mappings())
    env = catalog.globals()
    reference = evaluate(naive, env)
    for name, plan in candidate_plans(naive).items():
        assert values_equal(evaluate(plan, env), reference), name


def test_fused_factorized_batax_matches_paper_shape():
    """The fully optimized BATAX plan hoists the k-sum out of the j-dictionary."""
    catalog = build_catalog("BATAX-nested")
    naive = compose(BATAX_NESTED.program, catalog.mappings())
    plan = strategies.greedy_optimize(naive)
    text = str(plan)
    # the plan iterates the CSR position arrays directly (fusion happened) ...
    assert "A_pos2" in text and "A_idx2" in text
    # ... and no longer mentions a materialized logical tensor A
    from repro.sdqlite.ast import symbols
    assert "A" not in symbols(plan)
