"""Literal parameterisation: numeric literals no optimizer decision reads become bound scalars.

``Q(..., 0.37)`` and ``Q(..., 0.41)`` are the same query to the optimizer:
no rewrite rule, strategy or cardinality estimate looks at the value of a
literal that is merely multiplied or added into a result.  :func:`lift_literals`
replaces each such literal by a reserved scalar symbol ``$0``, ``$1``, … — one
slot per *occurrence*, so rules that fire on syntactically equal operands
(``?e - ?e``, ``?a * ?b + ?a * ?c``) can never be triggered by two slots
that merely happen to be bound to equal values — and returns the lifted
values in slot order.  A plan optimized and lowered for the literal-free
query then serves every literal vector: :func:`literal_bindings` turns the
vector into the environment entries the slots read at execution time, bound
exactly where named scalar parameters (``beta=…``) are.

Which literals are lifted, and why that set is sound:

* only the operands of ``*``, ``+``, ``-``, ``/`` and unary minus — pure
  value positions, where the literal flows into the result and nowhere else;
* never ``0``, ``1``, ``true`` or ``false`` (nor ``0.0`` / ``1.0``): the
  simplification rules L1–L6 and ``strategies.simplify_node`` match exactly
  these values, so they stay visible to the optimizer;
* never anything inside a range or slice bound, a lookup key, a dictionary
  key or a condition: range bounds are the one place the cardinality
  estimator reads constants, and keys and conditions select *which* entries
  exist rather than scale their values.

The bound values are the original Python ``int`` / ``float`` objects, so the
arithmetic a backend performs is bit-identical to the inlined literal's.
The lexer cannot produce ``$``, so no program text can name a slot.
"""

from __future__ import annotations

from typing import Mapping

from .ast import (
    Add,
    And,
    Cmp,
    Const,
    DictExpr,
    Div,
    Expr,
    Get,
    IfThen,
    Mul,
    Neg,
    Not,
    Number,
    Or,
    RangeExpr,
    SliceGet,
    Sub,
    Sym,
    children,
    rebuild,
)

#: First character of every literal slot's symbol name; not a lexer token.
SLOT_PREFIX = "$"

_ARITHMETIC = (Mul, Add, Sub, Div, Neg)

#: Per node type, which child positions select entries (bounds, keys,
#: conditions) rather than compute values; a literal anywhere below one stays.
_PROTECTED_CHILDREN: dict[type, tuple[bool, ...]] = {
    RangeExpr: (True, True),
    SliceGet: (False, True, True),
    Get: (False, True),
    DictExpr: (True, False),
    IfThen: (True, False),
    Cmp: (True, True),
    And: (True, True),
    Or: (True, True),
    Not: (True,),
}


def lift_literals(expr: Expr) -> tuple[Expr, tuple[Number, ...]]:
    """``(literal-free expr, lifted values)``; slot ``$k`` reads ``values[k]``.

    Works on named and nameless forms alike (slots are global symbols, so
    no binder is crossed).  Slots are numbered in pre-order, left to right.
    """
    values: list[Number] = []

    def go(node: Expr, operand: bool) -> Expr:
        if isinstance(node, Const):
            # ``in (0, 1)`` also holds for True / False / 0.0 / 1.0.
            if operand and node.value not in (0, 1):
                values.append(node.value)
                return Sym(f"{SLOT_PREFIX}{len(values) - 1}")
            return node
        kids = children(node)
        if not kids:
            return node
        protected = _PROTECTED_CHILDREN.get(type(node))
        arithmetic = isinstance(node, _ARITHMETIC)
        new_kids = [kid if protected is not None and protected[position]
                    else go(kid, arithmetic)
                    for position, kid in enumerate(kids)]
        if all(new is old for new, old in zip(new_kids, kids)):
            return node
        return rebuild(node, new_kids)

    return go(expr, False), tuple(values)


def literal_bindings(values: tuple[Number, ...]) -> dict[str, Number]:
    """The environment entries ``{"$0": values[0], ...}`` of a literal vector."""
    return {f"{SLOT_PREFIX}{slot}": value for slot, value in enumerate(values)}


def substitute_literals(expr: Expr, bindings: Mapping[str, Number]) -> Expr:
    """``expr`` with every slot symbol replaced by its bound literal.

    The inverse of :func:`lift_literals` on any expression derived from a
    lifted query — in particular on its optimized plan, which is how a
    literal-free shared plan is shown for one concrete request.
    """
    if isinstance(expr, Sym):
        return Const(bindings[expr.name]) if expr.name in bindings else expr
    kids = children(expr)
    if not kids:
        return expr
    new_kids = [substitute_literals(kid, bindings) for kid in kids]
    if all(new is old for new, old in zip(new_kids, kids)):
        return expr
    return rebuild(expr, new_kids)


__all__ = ["SLOT_PREFIX", "lift_literals", "literal_bindings", "substitute_literals"]
