"""Composition of Tensor Programs with Tensor Storage Mappings (Sec. 5.1).

The *naive logical plan* is obtained by replacing every logical tensor name
referenced by the program with its storage mapping.  The paper writes this as
a ``let`` chain::

    let A = TSM-for-A, B = TSM-for-B, ... in TP

Both forms are provided: :func:`compose` substitutes the mappings directly
(the form the optimizer starts from — the ``let`` is immediately inlinable
because mappings are closed expressions over physical symbols), and
:func:`compose_with_lets` produces the literal ``let`` chain for display and
for the let-inlining rewrite to chew on.
"""

from __future__ import annotations

from typing import Mapping

from ..sdqlite.ast import Expr, Idx, Let, Sym, children, rebuild
from ..sdqlite.debruijn import shift, to_debruijn_safe


def compose(program: Expr, mappings: Mapping[str, Expr]) -> Expr:
    """Substitute each referenced tensor symbol by its storage mapping.

    Both the program and the mappings may be in named or nameless form; the
    result is in De Bruijn (nameless) form, ready for the optimizer.
    """
    program = to_debruijn_safe(program)
    nameless = {name: to_debruijn_safe(mapping) for name, mapping in mappings.items()}

    def substitute_syms(expr: Expr) -> Expr:
        if isinstance(expr, Sym) and expr.name in nameless:
            return nameless[expr.name]
        kids = children(expr)
        if not kids:
            return expr
        return rebuild(expr, [substitute_syms(child) for child in kids])

    return substitute_syms(program)


def compose_with_lets(program: Expr, mappings: Mapping[str, Expr]) -> Expr:
    """Build the literal ``let A = TSM_A in ... TP`` naive plan of Sec. 5.1."""
    program = to_debruijn_safe(program)
    names = [name for name in mappings if name in _referenced(program)]
    body = program
    # Innermost let binds the last tensor; replace Sym references by indices.
    for position, name in enumerate(names):
        index = len(names) - 1 - position
        body = _replace_sym(body, name, index)
    for name in reversed(names):
        mapping = to_debruijn_safe(mappings[name])
        body = Let(mapping, body, name=name)
    return body


def _referenced(expr: Expr) -> set[str]:
    out: set[str] = set()
    stack = [expr]
    while stack:
        node = stack.pop()
        if isinstance(node, Sym):
            out.add(node.name)
        stack.extend(children(node))
    return out


def _replace_sym(expr: Expr, name: str, index: int, depth: int = 0) -> Expr:
    from ..sdqlite.ast import binder_arities

    if isinstance(expr, Sym) and expr.name == name:
        return Idx(index + depth)
    kids = children(expr)
    if not kids:
        return expr
    arities = binder_arities(expr)
    return rebuild(expr, [
        _replace_sym(child, name, index, depth + arity)
        for child, arity in zip(kids, arities)
    ])
