"""Literal parameterisation: which literals are lifted, and that lifting is sound.

Unit tests pin the lifted set position by position; the property at the end
runs generated programs (``repro.fuzz.genprog``: int and float literals,
0 / 1 / -1, literals in range bounds, keys and comparisons, repeated
literals) through lift → optimize → execute-with-bindings and compares
against the interpreter on the original program.
"""

import random

import pytest

from repro.core.compose import compose
from repro.core.optimizer import Optimizer
from repro.core.statistics import Statistics
from repro.execution.engine import ExecutionEngine
from repro.fuzz import (
    FUZZ_OPTIMIZER_OPTIONS,
    build_catalog,
    canonical,
    generate_case,
    results_match,
)
from repro.sdqlite import (
    ParseError,
    lift_literals,
    literal_bindings,
    parse_expr,
    substitute_literals,
    to_source,
)
from repro.sdqlite.ast import (
    Add,
    And,
    Cmp,
    Const,
    DictExpr,
    Div,
    Get,
    IfThen,
    Mul,
    Neg,
    Not,
    Or,
    RangeExpr,
    SliceGet,
    Sub,
    Sym,
    children,
)
from repro.sdqlite.debruijn import to_debruijn_safe


def lifted_text(source: str) -> tuple[str, tuple]:
    lifted, values = lift_literals(parse_expr(source))
    return to_source(lifted), values


# ---------------------------------------------------------------------------
# which literals are lifted
# ---------------------------------------------------------------------------


def test_arithmetic_operands_are_lifted_one_slot_per_occurrence():
    text, values = lifted_text("sum(<i, x> in X) { i -> 2 * x + x / 0.5 - 2 }")
    assert text == "sum(<i, x> in X) { i -> $0 * x + x / $1 - $2 }"
    # the two 2s are separate slots: `?e - ?e`-style rules must not see them
    # as one operand just because today's values agree
    assert values == (2, 0.5, 2)
    assert [type(value) for value in values] == [int, float, int]


@pytest.mark.parametrize("literal", ["0", "1", "0.0", "1.0", "true", "false"])
def test_values_the_simplification_rules_match_stay(literal):
    source = f"sum(<i, x> in X) {literal} * x"
    assert lifted_text(source) == (to_source(parse_expr(source)), ())


@pytest.mark.parametrize("source", [
    "sum(<i, _> in 0:7) X(i)",                          # range bounds
    "sum(<i, x> in X(2:5)) x",                          # slice bounds
    "sum(<i, x> in X) x * X(i + 2)",                    # lookup key
    "sum(<i, x> in X) { i + 3 -> x }",                  # dictionary key
    "sum(<i, x> in X) if (x > 0.37) then x",            # comparison operand
    "sum(<i, x> in X) if (!(i + 2 == 4) && x < 5) then x",
    "sum(<i, x> in X) { i -> 2.5 }",                    # not an arithmetic operand
    "sum(<i, x> in X) if (i == 0) then 7",
    "let t = 3 in sum(<i, x> in X) t",
])
def test_protected_positions_keep_their_literals(source):
    assert lifted_text(source) == (to_source(parse_expr(source)), ())


def test_negation_lifts_its_operand_but_minus_one_parses_protected():
    assert lifted_text("sum(<i, x> in X) -2 * x") == ("sum(<i, x> in X) -$0 * x", (2,))
    assert lifted_text("sum(<i, x> in X) -1 * x")[1] == ()     # Neg(Const(1))
    # an AST-level Const(-1) is an ordinary liftable value
    assert lift_literals(Mul(Const(-1), Sym("beta"))) == (Mul(Sym("$0"), Sym("beta")), (-1,))


def test_value_positions_below_a_protected_one_stay_protected():
    text, values = lifted_text("sum(<i, x> in X) 3 * X(2 * i) * { 2 * i -> 4 * x }(5 * i)")
    assert text == "sum(<i, x> in X) $0 * X(2 * i) * { 2 * i -> $1 * x }(5 * i)"
    assert values == (3, 4)


def test_lifting_commutes_with_debruijn_conversion_and_keeps_untouched_trees():
    program = parse_expr("sum(<(i, j), a> in A, <j2, x> in X) "
                         "if (j == j2) then { i -> 2 * beta * a * x }")
    named, values = lift_literals(program)
    nameless, same_values = lift_literals(to_debruijn_safe(program))
    assert to_debruijn_safe(named) == nameless and values == same_values == (2,)
    untouched = parse_expr("sum(<i, x> in X) beta * x")
    assert lift_literals(untouched)[0] is untouched


def test_bindings_and_substitution_invert_lifting():
    program = parse_expr("sum(<i, x> in X) { i -> 2 * x + 0.25 * beta } + 2 * Y")
    lifted, values = lift_literals(program)
    bindings = literal_bindings(values)
    assert bindings == {"$0": 2, "$1": 0.25, "$2": 2}
    assert substitute_literals(lifted, bindings) == program
    assert substitute_literals(program, bindings) is program


def test_no_program_text_can_name_a_slot():
    with pytest.raises(ParseError):
        parse_expr("sum(<i, x> in X) $0 * x")


# ---------------------------------------------------------------------------
# soundness: lift -> optimize -> execute with the bindings == the interpreter
# ---------------------------------------------------------------------------

_ARITHMETIC = (Mul, Add, Sub, Div, Neg)
_SELECTING = {RangeExpr: (0, 1), SliceGet: (1, 2), Get: (1,), DictExpr: (0,),
              IfThen: (0,), Cmp: (0, 1), And: (0, 1), Or: (0, 1), Not: (0,)}


def check_lifted_shape(node, operand=False, protected=False):
    """Written apart from the lifter: no liftable Const left, no protected slot."""
    if isinstance(node, Const):
        assert protected or not operand or node.value in (0, 1), \
            f"liftable literal {node.value!r} was left in place"
    if isinstance(node, Sym) and node.name.startswith("$"):
        assert operand and not protected, f"slot {node.name} in a protected position"
    selecting = _SELECTING.get(type(node), ())
    for position, kid in enumerate(children(node)):
        check_lifted_shape(kid, isinstance(node, _ARITHMETIC),
                           protected or position in selecting)


def scaled(case, rng: random.Random):
    """The generated program times a literal from the edge-value pool."""
    factor = rng.choice([0, 1, -1, 2, 2, 3, 0.37, 2.5])
    return case.replace(program=Mul(Const(factor), case.program))


@pytest.mark.parametrize("block", range(6))
def test_lifted_plans_with_bindings_match_the_interpreter(block):
    checked = 0
    for seed in range(block * 10, block * 10 + 10):
        case = scaled(generate_case(7000 + seed), random.Random(seed))
        catalog = build_catalog(case.tensors, case.formats, case.scalars)
        mappings = catalog.mappings()
        try:
            reference = canonical(ExecutionEngine.for_catalog(
                catalog, backend="interpret").run(compose(case.program, mappings)))
        except Exception:  # noqa: BLE001 - no reference, no signal
            continue
        original = to_debruijn_safe(case.program)
        lifted, values = lift_literals(original)
        bindings = literal_bindings(values)
        check_lifted_shape(lifted)
        assert substitute_literals(lifted, bindings) == original
        env = {**catalog.globals(), **bindings}
        optimizer = Optimizer(Statistics.from_catalog(catalog), **FUZZ_OPTIMIZER_OPTIONS)
        for method in ("greedy", "egraph"):
            plan = optimizer.optimize(lifted, mappings, method=method).plan
            for backend in ("typed", "interpret"):
                actual = canonical(ExecutionEngine(env=env, backend=backend).run(plan))
                assert results_match(reference, actual), (
                    f"seed {7000 + seed} {method}/{backend}: lifted plan disagrees\n"
                    f"  program: {to_source(case.program)}\n"
                    f"  lifted:  {to_source(lifted)}  with {bindings}")
        checked += 1
    assert checked >= 5     # the generator rarely yields an unevaluable program
