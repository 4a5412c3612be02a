"""The delta-rule deriver (``repro.ivm.delta``): structure and semantics.

Two layers of checks:

* hand-written programs pin the individual rewrite rules — the additive /
  multiplicative decompositions, pushdown through ``sum`` / ``let`` /
  dictionary constructors, the linearity side-condition, and the
  conservative :class:`~repro.ivm.delta.DeltaNotSupported` failures;
* a Hypothesis property drives the *semantic* contract on machine-generated
  programs: ``eval(Q, db ⊕ Δ) == eval(Q, db) ⊕ eval(ΔQ, db, Δ)`` under the
  canonical normalization of the differential fuzzer's oracle — the exact
  invariant the view registry relies on when it serves ``old ⊕ delta``.
"""

import random

import numpy as np
import pytest

from repro.core import compose
from repro.execution.engine import ExecutionEngine
from repro.fuzz import (
    build_catalog,
    canonical,
    generate_case,
    generate_updates,
    results_match,
)
from repro.ivm import DeltaNotSupported, delta_symbol, derive_delta, is_linear_in
from repro.sdqlite.ast import ZERO
from repro.sdqlite.debruijn import to_debruijn_safe
from repro.sdqlite.parser import parse_expr
from repro.sdqlite.values import v_add
from repro.storage.formats import COOFormat


def evaluate(program, catalog):
    """Run a (named or De Bruijn) program unoptimized on the interpreter."""
    mappings = {name: to_debruijn_safe(mapping)
                for name, mapping in catalog.mappings().items()}
    plan = compose(to_debruijn_safe(program), mappings)
    return ExecutionEngine.for_catalog(catalog, backend="interpret").run(plan)


def delta_catalog(case, update):
    """The case's catalog plus ``update`` registered as a COO delta tensor."""
    catalog = build_catalog(case.tensors, case.formats, case.scalars)
    shape = np.asarray(case.tensors[update.name]).shape
    catalog.add(COOFormat(delta_symbol(update.name),
                          np.asarray(update.coords, dtype=np.int64),
                          np.asarray(update.values, dtype=np.float64), shape))
    return catalog


# -- structural rules ---------------------------------------------------------


def test_delta_of_unrelated_program_is_zero():
    program = parse_expr("sum(<k, v> in B) v")
    assert derive_delta(program, "A") == ZERO


def test_delta_of_bare_tensor_is_the_delta_symbol():
    program = parse_expr("A")
    delta = derive_delta(program, "A")
    assert delta == to_debruijn_safe(parse_expr("A__delta"))


def test_delta_is_additive():
    program = parse_expr("(sum(<k, v> in A) v) + (sum(<k, v> in B) v)")
    delta = derive_delta(program, "A", "dA")
    expected = to_debruijn_safe(parse_expr("sum(<k, v> in dA) v"))
    assert delta == expected


def test_division_by_updated_tensor_is_rejected():
    program = parse_expr("1 / (sum(<k, v> in A) v)")
    with pytest.raises(DeltaNotSupported):
        derive_delta(program, "A")


def test_nonlinear_sum_body_is_rejected():
    program = parse_expr("sum(<k, v> in A) v * v")
    with pytest.raises(DeltaNotSupported):
        derive_delta(program, "A")


def test_comparison_on_updated_tensor_is_rejected():
    program = parse_expr("if (A(0) > 1) then 2")
    with pytest.raises(DeltaNotSupported):
        derive_delta(program, "A")


def test_linearity_checker():
    from repro.sdqlite.ast import Add, Cmp, Const, DictExpr, Idx, IfThen, Mul

    x = Idx(0)
    # %0 itself, and linear combinations of it, are linear in index 0.
    assert is_linear_in(x, 0)
    assert is_linear_in(Add(Mul(x, Const(3)), x), 0)
    assert is_linear_in(DictExpr(Const(1), x), 0)
    # Products of the index with itself, or guards reading it, are not.
    assert not is_linear_in(Mul(x, x), 0)
    assert not is_linear_in(IfThen(Cmp(">", x, Const(0)), Const(1)), 0)
    # Constants are deliberately *not* linear: a constant term would be
    # double-counted on keys present in both a source and its delta.
    assert not is_linear_in(Const(7), 0)


# -- semantic checks on hand-written programs ---------------------------------


def _check_semantics(source, tensors, formats, update_name, coords, values):
    from repro.fuzz import FuzzCase, Update

    case = FuzzCase(seed=0, program=parse_expr(source), tensors=tensors,
                    formats=formats, scalars={})
    update = Update("delta", update_name, coords=tuple(map(tuple, coords)),
                    values=tuple(values))
    base = evaluate(case.program, build_catalog(tensors, formats, {}))
    dq = derive_delta(case.program, update_name)
    delta_value = 0 if dq == ZERO else evaluate(dq, delta_catalog(case, update))
    updated_case = update.apply(case)
    expected = evaluate(case.program,
                        build_catalog(updated_case.tensors, formats, {}))
    assert results_match(canonical(expected), canonical(v_add(base, delta_value)))


def test_product_delta_semantics():
    # The bilinear kernel: Δ(A·B) = ΔA·B + A·ΔB + ΔA·ΔB, here w.r.t. A.
    a = np.array([[1.0, 0.0], [2.0, 3.0]])
    b = np.array([[4.0, 1.0], [0.0, 2.0]])
    _check_semantics(
        "sum(<(i, j), v> in A, <(j2, k), w> in B) if (j == j2) then { (i, k) -> v * w }",
        {"A": a, "B": b}, {"A": "coo", "B": "csr"},
        "A", [(0, 1), (1, 0)], [5.0, -2.0])


def test_let_binding_delta_semantics():
    a = np.array([3.0, 0.0, 1.0])
    _check_semantics("let x = sum(<k, v> in A) v in x + x",
                     {"A": a}, {"A": "dense"},
                     "A", [(1,)], [4.0])


def test_cancellation_delta_semantics():
    # Driving an entry to exact zero is a deletion in the ring.
    a = np.array([[1.0, 2.0], [0.0, 4.0]])
    _check_semantics("sum(<(i, j), v> in A) { i -> v }",
                     {"A": a}, {"A": "csr"},
                     "A", [(0, 1)], [-2.0])


# -- the Hypothesis property on generated programs ----------------------------

pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(seed=st.integers(min_value=0, max_value=50_000))
def test_delta_equals_full_reexecution(seed):
    """eval(Q, db ⊕ Δ) == eval(Q, db) ⊕ eval(ΔQ, db, Δ) on generated cases."""
    case = generate_case(seed)
    assume(case.tensors)
    rng = random.Random(seed ^ 0xD17A)
    updates = generate_updates(case, rng, 1, delta=True)
    assume(updates)
    update = updates[0]
    try:
        dq = derive_delta(case.program, update.name)
    except DeltaNotSupported:
        assume(False)
    try:
        base = evaluate(case.program,
                        build_catalog(case.tensors, case.formats, case.scalars))
        delta_value = (0 if dq == ZERO
                       else evaluate(dq, delta_catalog(case, update)))
        updated = update.apply(case)
        expected = evaluate(case.program,
                            build_catalog(updated.tensors, updated.formats,
                                          updated.scalars))
    except Exception:  # noqa: BLE001 - reference failures carry no signal
        assume(False)
    assert results_match(canonical(expected),
                         canonical(v_add(base, delta_value)))
