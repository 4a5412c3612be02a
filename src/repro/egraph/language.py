"""Bridging SDQLite ASTs and e-graph nodes.

An e-node is an operator label plus a tuple of child e-class ids.  The label
encodes the node type together with any non-child payload (constant values,
symbol names, De Bruijn indices, comparison operators, dictionary
annotations), so two nodes with the same label and the same children are the
same expression.

Only the nameless (De Bruijn) form is representable: named variables would
break the congruence invariant (see Sec. 5.4 of the paper).
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from ..sdqlite.ast import (
    Add,
    And,
    Cmp,
    Const,
    DictExpr,
    Div,
    Expr,
    Get,
    IfThen,
    Idx,
    Let,
    Merge,
    Mul,
    Neg,
    Not,
    Or,
    RangeExpr,
    SliceGet,
    Sub,
    Sum,
    Sym,
    Var,
    children,
)
from ..sdqlite.errors import OptimizationError

Label = tuple

#: number of binders each operator introduces over each child, keyed by label head.
BINDERS_BY_HEAD: dict[str, tuple[int, ...]] = {
    "let": (0, 1),
    "sum": (0, 2),
    "merge": (0, 0, 3),
}


class ENode(NamedTuple):
    """An operator label applied to e-class children.

    A named tuple: hashing and equality run in C over ``(label, children)``
    — every hashcons probe hashes one — and construction is one allocation.
    """

    label: Label
    children: tuple[int, ...]

    def canonicalize(self, find) -> "ENode":
        kids = self.children
        if not kids:
            return self
        canonical = tuple(map(find, kids))
        return self if canonical == kids else ENode(self.label, canonical)

    @property
    def head(self) -> str:
        return self.label[0]


#: Labels of the node types whose label carries no payload.
_FIXED_LABELS: dict[type, Label] = {
    Add: ("add",), Sub: ("sub",), Mul: ("mul",), Div: ("div",), Neg: ("neg",),
    And: ("and",), Or: ("or",), Not: ("not",), Get: ("get",),
    RangeExpr: ("range",), SliceGet: ("slice",), IfThen: ("if",),
    Let: ("let",), Sum: ("sum",), Merge: ("merge",),
}


def ast_to_label(expr: Expr) -> Label:
    """The e-node label (without children) of an AST node."""
    cls = type(expr)
    label = _FIXED_LABELS.get(cls)
    if label is not None:
        return label
    if cls is Idx:
        return ("idx", expr.index)
    if cls is Sym:
        return ("sym", expr.name)
    if cls is Const:
        return ("const", expr.value)
    if cls is DictExpr:
        return ("dict", expr.annot, expr.unique)
    if cls is Cmp:
        return ("cmp", expr.op)
    if cls is Var:
        raise OptimizationError(
            f"named variable {expr.name!r} cannot enter the e-graph; convert to De Bruijn form first"
        )
    raise OptimizationError(f"cannot convert {cls.__name__} to an e-node label")


#: Per label head, the constructor call that rebuilds the AST node.
_BUILDERS = {
    "const": lambda label, kids: Const(label[1]),
    "sym": lambda label, kids: Sym(label[1]),
    "idx": lambda label, kids: Idx(label[1]),
    "cmp": lambda label, kids: Cmp(label[1], kids[0], kids[1]),
    "dict": lambda label, kids: DictExpr(kids[0], kids[1], label[1], label[2]),
    **{label[0]: (lambda label, kids, cls=cls: cls(*kids))
       for cls, label in _FIXED_LABELS.items()},
}


def label_to_ast(label: Label, kids: Sequence[Expr]) -> Expr:
    """Rebuild an AST node from a label and already-built child ASTs."""
    builder = _BUILDERS.get(label[0])
    if builder is None:
        raise OptimizationError(f"unknown e-node label {label!r}")
    return builder(label, kids)


def label_binders(label: Label) -> tuple[int, ...]:
    """Binder arity per child for the given label."""
    return BINDERS_BY_HEAD.get(label[0], ())


def ast_children(expr: Expr) -> tuple[Expr, ...]:
    """Children of an AST node (re-exported for convenience)."""
    return children(expr)
