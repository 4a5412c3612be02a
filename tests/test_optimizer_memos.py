"""Properties of the optimizer's two memos, against pinned un-memoized references.

* ``EGraph.add_expr`` keeps a term -> class memo and descends only into
  subterms it has not seen; the reference is the leaf-by-leaf insertion it
  replaced.
* ``rewrite_everywhere`` keeps, per call, the set of ``(subtree, env)`` pairs
  a pass left unchanged; the reference re-visits every subtree on every pass.
* ``rebuild`` hands a node back unchanged when its children are.

Programs come from the fuzzer's generator, composed with the storage
mappings of their randomly assigned formats.
"""

from dataclasses import fields

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.core import strategies  # noqa: E402
from repro.core.compose import compose  # noqa: E402
from repro.core.optimizer import symbol_ranks  # noqa: E402
from repro.core.statistics import Statistics  # noqa: E402
from repro.egraph import EGraph, ENode, ast_to_label  # noqa: E402
from repro.fuzz import generate_case  # noqa: E402
from repro.fuzz.gendata import build_catalog  # noqa: E402
from repro.sdqlite import pretty  # noqa: E402
from repro.sdqlite.ast import (  # noqa: E402
    Add, And, Cmp, Const, DictExpr, Div, Expr, Get, IfThen, Idx, Let, Merge, Mul, Neg,
    Not, Or, RangeExpr, SliceGet, Sub, Sum, Sym, Var, children, postorder, rebuild,
)

seeds = st.integers(min_value=0, max_value=10_000)


def composed_plan(seed: int):
    """``(naive plan, symbol ranks)`` of one generated case."""
    case = generate_case(seed)
    catalog = build_catalog(case.tensors, case.formats, case.scalars)
    mappings = catalog.mappings()
    ranks = symbol_ranks(Statistics.from_catalog(catalog), mappings)
    return compose(case.program, mappings), ranks


# ---------------------------------------------------------------------------
# (a) add_expr: term memo vs leaf-by-leaf insertion
# ---------------------------------------------------------------------------


def reference_add_expr(egraph: EGraph, expr) -> tuple[int, int]:
    """The insertion ``add_expr`` replaced: every node through the hashcons."""
    size = 1
    kids = []
    for child in children(expr):
        child_id, child_size = reference_add_expr(egraph, child)
        kids.append(child_id)
        size += child_size
    identifier = egraph.add_enode(ENode(ast_to_label(expr), tuple(kids)))
    egraph._offer_term(identifier, expr, size)
    return identifier, size


def counts(egraph: EGraph) -> tuple[int, int, int]:
    return egraph.num_nodes, egraph.num_classes, egraph.memo_size


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeds)
def test_add_expr_with_the_term_memo_builds_the_same_graph(seed):
    plan, ranks = composed_plan(seed)
    terms = [plan, *strategies.candidate_plans(plan, ranks).values()]
    memoized, reference = EGraph(), EGraph()
    for term in terms + terms:      # the second round is all memo hits
        got = memoized.add_expr(term)
        expected, _ = reference_add_expr(reference, term)
        assert got == expected
        assert counts(memoized) == counts(reference)
    # Unions, a rebuild, then re-insertion of terms and of their subterms.
    roots = [memoized.add_expr(term) for term in terms]
    for root in roots[1:]:
        memoized.union(roots[0], root)
        reference.union(roots[0], root)
    memoized.rebuild()
    reference.rebuild()
    for term in terms:
        for node in postorder(term):
            got = memoized.add_expr(node)
            expected, _ = reference_add_expr(reference, node)
            assert got == expected
    assert counts(memoized) == counts(reference)
    assert memoized.best_term(roots[0]) == reference.best_term(roots[0])
    memoized.sanity_check()
    reference.sanity_check()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeds)
def test_a_term_added_between_union_and_rebuild_is_the_class_it_is_known_in(seed):
    plan, ranks = composed_plan(seed)
    terms = [plan, *strategies.candidate_plans(plan, ranks).values()]
    memoized, reference = EGraph(), EGraph()
    first = {}
    for term in terms:
        for node in postorder(term):
            first.setdefault(node, memoized.add_expr(node))
            reference_add_expr(reference, node)
    # Merge subterm classes pairwise (congruence work for the rebuild) and,
    # before rebuilding, add everything again: the hashcons is stale, the
    # memo is not.
    merged = list(dict.fromkeys(first.values()))
    for left, right in zip(merged[::2], merged[1::2]):
        memoized.union(left, right)
        reference.union(left, right)
    nodes_before = memoized.num_nodes
    for node, identifier in first.items():
        assert memoized.equivalent(memoized.add_expr(node), identifier)
        reference_add_expr(reference, node)
    assert memoized.num_nodes == nodes_before   # no transient duplicates
    memoized.rebuild()
    reference.rebuild()
    assert counts(memoized) == counts(reference)
    for node, identifier in first.items():
        assert memoized.equivalent(memoized.add_expr(node), identifier)
        assert reference.equivalent(reference_add_expr(reference, node)[0], identifier)
    memoized.sanity_check()
    reference.sanity_check()


# ---------------------------------------------------------------------------
# (b) rewrite_everywhere: settled set vs revisiting everything
# ---------------------------------------------------------------------------


def reference_rewrite_everywhere(term, transforms, max_passes=20, symbol_ranks=None):
    """``rewrite_everywhere`` without the settled set or the per-type dispatch."""
    transforms = list(transforms)

    def rewrite_once(node, env):
        changed = False
        kids = children(node)
        if kids:
            new_kids = []
            for index, child in enumerate(kids):
                value_child = new_kids[0] if index > 0 else child
                child_env = strategies._child_env(node, index, value_child, env,
                                                  symbol_ranks)
                new_child, child_changed = rewrite_once(child, child_env)
                changed = changed or child_changed
                new_kids.append(new_child)
            if changed:
                node = rebuild(node, new_kids)
        for transform in transforms:
            if getattr(transform, "wants_env", False):
                result = transform(node, env, symbol_ranks)
            else:
                result = transform(node)
            if result is not None and result != node:
                return result, True
        return node, changed

    current = term
    for _ in range(max_passes):
        current, changed = rewrite_once(current, ())
        if not changed:
            break
    return current


def same_term(left, right) -> bool:
    """Equal, binder name hints included (``==`` ignores them)."""
    return left == right and pretty(left) == pretty(right)


PIPELINES = {
    "fusion": (strategies.FUSION_TRANSFORMS, 30),
    "factorization": (strategies.FACTORIZATION_TRANSFORMS, 30),
    "normalization": (strategies.NORMALIZATION_TRANSFORMS, 10),
}


@pytest.mark.parametrize("pipeline", sorted(PIPELINES))
@pytest.mark.parametrize("with_ranks", [False, True])
@settings(max_examples=60, deadline=None, derandomize=True)
@given(seed=seeds)
def test_rewrite_everywhere_with_the_settled_set_gives_the_same_term(
        pipeline, with_ranks, seed):
    plan, ranks = composed_plan(seed)
    transforms, passes = PIPELINES[pipeline]
    symbol_ranks = ranks if with_ranks else None
    got = strategies.rewrite_everywhere(plan, transforms, passes, symbol_ranks)
    expected = reference_rewrite_everywhere(plan, transforms, passes, symbol_ranks)
    assert same_term(got, expected)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeds)
def test_candidate_plans_are_five_independent_greedy_optimizations(seed):
    plan, ranks = composed_plan(seed)
    base = strategies.normalize(plan, symbol_ranks=ranks)
    flags = {
        "fused": dict(with_fusion=True, with_factorization=False),
        "factorized": dict(with_fusion=False, with_factorization=True),
        "fused+factorized": dict(with_fusion=True, with_factorization=True),
        "fused+factorized+merge": dict(with_fusion=True, with_factorization=True,
                                       with_merge=True),
    }
    expected = {"naive": base}
    for name, switches in flags.items():
        expected[name] = strategies.greedy_optimize(base, symbol_ranks=ranks, **switches)
    got = strategies.candidate_plans(plan, ranks)
    assert list(got) == list(expected)
    for name in expected:
        assert same_term(got[name], expected[name]), name


# ---------------------------------------------------------------------------
# (c) rebuild
# ---------------------------------------------------------------------------

X, Y, Z = Sym("x"), Idx(0), Const(2)
ONE_OF_EACH = [
    Const(1.5), Sym("A"), Var("v"), Idx(3),
    Add(X, Y), Sub(X, Y), Mul(X, Y), Div(X, Y), Neg(X),
    Cmp("<=", X, Y), And(X, Y), Or(X, Y), Not(X),
    DictExpr(X, Y, annot="hash", unique=True), DictExpr(X, Y, annot="dense"),
    Get(X, Y), RangeExpr(X, Y), SliceGet(X, Y, Z), IfThen(X, Y),
    Let(X, Y, name="t"), Sum(X, Y, key_name="k", val_name="v"),
    Merge(X, Y, Z, key1_name="a", key2_name="b", val_name="c"),
]


def payload(node) -> dict:
    """Every field that is not a child: constants, operators, annotations, hints."""
    return {field.name: getattr(node, field.name) for field in fields(node)
            if not isinstance(getattr(node, field.name), Expr)}


@pytest.mark.parametrize("node", ONE_OF_EACH, ids=lambda node: type(node).__name__)
def test_rebuild_keeps_payload_and_hands_back_unchanged_nodes(node):
    assert rebuild(node, children(node)) is node
    swapped = [Sym(f"fresh{index}") for index, _ in enumerate(children(node))]
    rebuilt = rebuild(node, swapped)
    assert type(rebuilt) is type(node)
    assert list(children(rebuilt)) == swapped
    assert payload(rebuilt) == payload(node)
    with pytest.raises(ValueError):
        rebuild(node, [*children(node), X])


@settings(max_examples=60, deadline=None, derandomize=True)
@given(seeds)
def test_rebuild_of_own_children_is_the_identity_on_generated_programs(seed):
    plan, _ = composed_plan(seed)
    for node in postorder(plan):
        copies = [rebuild(child, children(child)) for child in children(node)]
        assert rebuild(node, copies) == node
        assert payload(rebuild(node, copies)) == payload(node)
