"""Desugaring of SDQLite surface syntax (Table 1 of the paper).

The parser produces surface constructs — multi-binding ``sum``s, tuple key
patterns, multi-entry dictionary literals, multi-binding ``let``s — and this
module lowers them to the core calculus:

* ``e(e1, e2)``                 becomes ``e(e1)(e2)`` (currying; handled by the parser),
* ``{ (k1, k2) -> e }``         becomes ``{ k1 -> { k2 -> e } }``,
* ``sum(<(k1,k2),v> in e1) e2`` becomes two nested sums,
* ``let v1 = e1, v2 = e2 in e`` becomes nested lets,
* ``sum(<k,v1> in e1, <k,v2> in e2) e3`` — a variable repeated across bindings —
  introduces a fresh name for the second occurrence plus an equality filter
  ``if (k == k') then e3``,
* ``{ k1 -> v1, k2 -> v2 }``    becomes ``{k1 -> v1} + {k2 -> v2}``.

All functions operate on, and return, *named-form* expressions.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from .ast import (
    Add,
    Cmp,
    DictExpr,
    Expr,
    IfThen,
    Let,
    Sum,
    Var,
)
from .errors import DesugarError

class Gensym:
    """The fresh-name supply of one parse.

    Names are numbered per instance — the parser creates one per
    :func:`~repro.sdqlite.parser.parse_expr` call — so the same source text
    always desugars to the same named AST, in this process and in any other,
    while every binder introduced within the one parse still gets its own
    name.  Separately parsed fragments may therefore reuse a name; every site
    that combines them converts to De Bruijn form first.
    """

    def __init__(self) -> None:
        self._counter = itertools.count(1)

    def __call__(self, prefix: str = "_t") -> str:
        return f"{prefix}{next(self._counter)}"


@dataclass
class Binding:
    """One ``<key_pattern, value> in source`` binding of a surface ``sum``.

    ``key_names`` is the tuple-key pattern flattened into a list of names; a
    single-variable key is a one-element list.  ``'_'`` entries are wildcards.
    ``val_name`` may be ``None`` or ``'_'`` when the value is not needed.
    """

    key_names: list[str]
    val_name: str | None
    source: Expr

    def __post_init__(self) -> None:
        if not self.key_names:
            raise DesugarError("a sum binding must introduce at least one key variable")


@dataclass
class LetBinding:
    """One ``name = expr`` clause of a surface ``let``."""

    name: str
    value: Expr


@dataclass
class DictEntry:
    """One ``keys -> value`` entry of a surface dictionary literal."""

    keys: list[Expr]
    value: Expr
    unique: bool = False
    annot: str | None = None


def desugar_dict_entry(entry: DictEntry) -> Expr:
    """Curry a tuple-keyed entry into nested singleton dictionaries."""
    if not entry.keys:
        # A 0-dimensional dictionary {() -> v} is identified with the scalar v.
        return entry.value
    out = entry.value
    for position, key in enumerate(reversed(entry.keys)):
        is_outermost = position == len(entry.keys) - 1
        out = DictExpr(
            key,
            out,
            unique=entry.unique if is_outermost else False,
            annot=entry.annot if is_outermost else None,
        )
    return out


def desugar_dict_literal(entries: list[DictEntry]) -> Expr:
    """A multi-entry literal is the semiring sum of its singleton entries."""
    if not entries:
        raise DesugarError("empty dictionary literal")
    exprs = [desugar_dict_entry(entry) for entry in entries]
    out = exprs[0]
    for other in exprs[1:]:
        out = Add(out, other)
    return out


def desugar_let(bindings: list[LetBinding], body: Expr) -> Expr:
    """``let v1 = e1, v2 = e2 in body`` becomes nested single lets."""
    out = body
    for binding in reversed(bindings):
        out = Let(binding.value, out, name=binding.name)
    return out


def desugar_sum(bindings: list[Binding], body: Expr, gensym: Gensym) -> Expr:
    """Lower a surface multi-binding ``sum`` to nested core ``Sum`` nodes.

    Handles the three Table-1 rules for ``sum``: multiple bindings become
    nested sums, tuple key patterns become one nested sum per component, and
    a variable name repeated across bindings is renamed with an equality
    filter inserted around the body.  ``gensym`` supplies the fresh names
    (wildcards, row variables, renamed duplicates); nested ``sum``s of one
    parse must share it.
    """
    if not bindings:
        raise DesugarError("sum requires at least one binding")

    seen: dict[str, str] = {}
    conditions: list[tuple[str, str]] = []

    def visible_name(name: str) -> tuple[str, bool]:
        """Return the name to bind and whether it is a duplicate occurrence."""
        if name == "_" or name is None:
            return gensym("_w"), False
        if name in seen:
            fresh = gensym(f"_{name}_dup")
            conditions.append((seen[name], fresh))
            return fresh, True
        seen[name] = name
        return name, False

    # Build the nest outside-in, collecting the per-level (key, value, source)
    # triples first so that repeated-variable detection sees bindings in order.
    levels: list[tuple[str, str, Expr | None]] = []  # (key_name, val_name, source-or-None)
    sources: list[Expr] = []
    for binding in bindings:
        key_names = binding.key_names
        val_name = binding.val_name if binding.val_name not in (None, "_") else gensym("_w")
        chain_val_names = [gensym("_row") for _ in key_names[:-1]] + [val_name]
        for depth, key in enumerate(key_names):
            bound_key, _ = visible_name(key)
            bound_val = chain_val_names[depth]
            if depth == 0:
                source: Expr | None = binding.source
            else:
                source = Var(chain_val_names[depth - 1])
            levels.append((bound_key, bound_val, source))
            sources.append(source if source is not None else Var("_error"))

    inner = body
    for left, right in conditions:
        inner = IfThen(Cmp("==", Var(left), Var(right)), inner)

    out = inner
    for key_name, val_name, source in reversed(levels):
        assert source is not None
        out = Sum(source, out, key_name=key_name, val_name=val_name)
    return out


__all__ = [
    "Binding",
    "LetBinding",
    "DictEntry",
    "desugar_dict_entry",
    "desugar_dict_literal",
    "desugar_let",
    "desugar_sum",
    "Gensym",
]
