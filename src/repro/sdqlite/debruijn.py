"""Nameless (De Bruijn) representation of SDQLite expressions.

The cost-based optimizer runs over an e-graph, and — as discussed in Sec. 5.4
of the paper — e-graphs cannot conveniently represent named variables:
alpha-equivalent terms would be duplicated and substitution is not a valid
pattern.  We therefore convert expressions to a nameless form before
optimization.  This module provides:

* :func:`to_debruijn` / :func:`to_named` — conversion in both directions,
* :func:`shift` — index shifting when an expression crosses a binder,
* :func:`substitute` — capture-avoiding substitution of an index,
* :func:`free_indices` — the set of free De Bruijn indices,
* :func:`hoist_guard` — float a condition above the lets it does not use,
* :func:`free_symbols_and_closed` — helpers used by rule side-conditions.

De Bruijn conventions are documented in :mod:`repro.sdqlite.ast`:
``Let`` binds 1 variable, ``Sum`` binds 2 (value ``%0``, key ``%1``),
``Merge`` binds 3 (value ``%0``, key2 ``%1``, key1 ``%2``).
"""

from __future__ import annotations

from typing import Iterable

from .ast import (
    Expr,
    Idx,
    IfThen,
    Let,
    Merge,
    Sum,
    Var,
    binder_arities,
    children,
    rebuild,
)
from .errors import ScopeError


def _binder_names(expr: Expr) -> tuple[str | None, ...]:
    """Names introduced by ``expr``'s binder, ordered from outermost to innermost."""
    if isinstance(expr, Let):
        return (expr.name,)
    if isinstance(expr, Sum):
        # key is %1 (bound "first"), value is %0 (innermost).
        return (expr.key_name, expr.val_name)
    if isinstance(expr, Merge):
        return (expr.key1_name, expr.key2_name, expr.val_name)
    return ()


def to_debruijn(expr: Expr, env: tuple[str, ...] = ()) -> Expr:
    """Replace named :class:`Var` occurrences with :class:`Idx` indices.

    ``env`` is the stack of names currently in scope, innermost last.  Free
    names (not bound by any enclosing binder) raise :class:`ScopeError` —
    global tensors and arrays must be :class:`~repro.sdqlite.ast.Sym` nodes,
    not variables.
    """
    if isinstance(expr, Var):
        for depth, name in enumerate(reversed(env)):
            if name == expr.name:
                return Idx(depth)
        raise ScopeError(f"variable {expr.name!r} is not bound by any enclosing binder")
    if isinstance(expr, Idx):
        return expr
    kids = children(expr)
    if not kids:
        return expr
    arities = binder_arities(expr)
    names = _binder_names(expr)
    new_kids = []
    for child, arity in zip(kids, arities):
        if arity:
            child_env = env + tuple(n if n is not None else f"_anon{len(env) + i}"
                                    for i, n in enumerate(names[:arity]))
        else:
            child_env = env
        new_kids.append(to_debruijn(child, child_env))
    return rebuild(expr, new_kids)


def to_named(expr: Expr, env: tuple[str, ...] = (), fresh_prefix: str = "v") -> Expr:
    """Replace De Bruijn indices with named variables (for printing / interpretation).

    Binder name hints stored on the AST are reused when present; otherwise a
    fresh name ``v<n>`` is generated.  The result contains no :class:`Idx`.
    """
    counter = [0]

    def fresh() -> str:
        counter[0] += 1
        return f"{fresh_prefix}{counter[0]}"

    def go(node: Expr, scope: tuple[str, ...]) -> Expr:
        if isinstance(node, Idx):
            if node.index >= len(scope):
                raise ScopeError(f"unbound De Bruijn index %{node.index}")
            return Var(scope[-1 - node.index])
        if isinstance(node, Var):
            return node
        kids = children(node)
        if not kids:
            return node
        arities = binder_arities(node)
        hint_names = _binder_names(node)
        # Reuse name hints only when they do not shadow a name that is still
        # visible in the current scope, otherwise an outer reference would be
        # captured by the inner binder when printed back.
        bound_list: list[str] = []
        for name in hint_names:
            if name is None or name in scope or name in bound_list:
                bound_list.append(fresh())
            else:
                bound_list.append(name)
        bound = tuple(bound_list)
        new_kids = []
        for child, arity in zip(kids, arities):
            child_scope = scope + bound[:arity] if arity else scope
            new_kids.append(go(child, child_scope))
        rebuilt = rebuild(node, new_kids)
        # Record the chosen names on the binder so printing is stable.
        if isinstance(rebuilt, Let):
            rebuilt = Let(rebuilt.value, rebuilt.body, name=bound[0])
        elif isinstance(rebuilt, Sum):
            rebuilt = Sum(rebuilt.source, rebuilt.body, key_name=bound[0], val_name=bound[1])
        elif isinstance(rebuilt, Merge):
            rebuilt = Merge(rebuilt.left, rebuilt.right, rebuilt.body,
                            key1_name=bound[0], key2_name=bound[1], val_name=bound[2])
        return rebuilt

    return go(expr, env)


def shift(expr: Expr, amount: int, cutoff: int = 0) -> Expr:
    """Add ``amount`` to every free index ``>= cutoff`` in ``expr``.

    Negative ``amount`` lowers indices; a :class:`ScopeError` is raised if a
    free index would become negative, which indicates an unsound rewrite.
    """
    if amount == 0:
        return expr
    if isinstance(expr, Idx):
        if expr.index >= cutoff:
            new_index = expr.index + amount
            if new_index < 0:
                raise ScopeError(
                    f"shifting %{expr.index} by {amount} below zero (cutoff={cutoff})"
                )
            return Idx(new_index)
        return expr
    kids = children(expr)
    if not kids:
        return expr
    arities = binder_arities(expr)
    new_kids = [shift(child, amount, cutoff + arity) for child, arity in zip(kids, arities)]
    return rebuild(expr, new_kids)


def substitute(expr: Expr, index: int, replacement: Expr) -> Expr:
    """Substitute free occurrences of ``%index`` in ``expr`` by ``replacement``.

    Indices above ``index`` are *lowered* by one (the binder providing
    ``%index`` disappears), and ``replacement`` is shifted appropriately when
    it crosses binders — the standard De Bruijn substitution used to
    implement ``let``-inlining and the fusion rules.
    """
    if isinstance(expr, Idx):
        if expr.index == index:
            return shift(replacement, index)
        if expr.index > index:
            return Idx(expr.index - 1)
        return expr
    kids = children(expr)
    if not kids:
        return expr
    arities = binder_arities(expr)
    new_kids = [
        substitute(child, index + arity, replacement)
        for child, arity in zip(kids, arities)
    ]
    return rebuild(expr, new_kids)


def substitute_keep(expr: Expr, index: int, replacement: Expr) -> Expr:
    """Like :func:`substitute` but keeps the binder: indices above ``index`` are unchanged."""
    if isinstance(expr, Idx):
        if expr.index == index:
            return shift(replacement, index)
        return expr
    kids = children(expr)
    if not kids:
        return expr
    arities = binder_arities(expr)
    new_kids = [
        substitute_keep(child, index + arity, replacement)
        for child, arity in zip(kids, arities)
    ]
    return rebuild(expr, new_kids)


_NO_INDICES: frozenset[int] = frozenset()


def free_indices(expr: Expr) -> frozenset[int]:
    """The set of free De Bruijn indices of ``expr`` (relative to its root).

    Computed once per node and cached on it, so the independence tests of
    the rewrites cost O(1) on a term they have seen before.
    """
    try:
        return expr._free
    except AttributeError:
        pass
    if isinstance(expr, Idx):
        out = frozenset({expr.index})
    else:
        kids = children(expr)
        if not kids:
            out = _NO_INDICES
        else:
            found: set[int] = set()
            for child, arity in zip(kids, binder_arities(expr)):
                for idx in free_indices(child):
                    if idx >= arity:
                        found.add(idx - arity)
            out = frozenset(found)
    object.__setattr__(expr, "_free", out)
    return out


def hoist_guard(body: Expr) -> Expr:
    """Float a condition above the ``let`` bindings it does not reference.

    ``let x = e in if (c) then t`` ≡ ``if (c') then (let x = e in t)`` when
    ``c`` has no free ``%0`` (``c'`` is ``c`` with the vanished binder
    shifted out).  Applied recursively, so a chain of lets exposes the
    guard underneath: greedy plans wrap an equality guard in let-bindings
    (``let x = X_val(i) in if (k == i) then ...``), and both the optimizer's
    range-probe rewrite and the typed backend's probe detection look for it.
    """
    if isinstance(body, Let):
        inner = hoist_guard(body.body)
        if isinstance(inner, IfThen) and 0 not in free_indices(inner.cond):
            return IfThen(shift(inner.cond, -1, 0),
                          Let(body.value, inner.then, name=body.name))
        if inner is not body.body:
            return Let(body.value, inner, name=body.name)
    return body


def is_closed(expr: Expr) -> bool:
    """True when ``expr`` has no free De Bruijn indices (and no named variables)."""
    if any(isinstance(node, Var) for node in _all_nodes(expr)):
        return False
    return not free_indices(expr)


def uses_indices(expr: Expr, indices: Iterable[int]) -> bool:
    """True when any of ``indices`` occurs free in ``expr``."""
    free = free_indices(expr)
    return any(i in free for i in indices)


def _all_nodes(expr: Expr):
    yield expr
    for child in children(expr):
        yield from _all_nodes(child)


def alpha_equivalent(a: Expr, b: Expr) -> bool:
    """True when two named-form expressions are equal up to bound-variable names."""
    return to_debruijn_safe(a) == to_debruijn_safe(b)


def to_debruijn_safe(expr: Expr) -> Expr:
    """Convert to De Bruijn form, passing already-nameless expressions through."""
    if any(isinstance(node, Var) for node in _all_nodes(expr)):
        return to_debruijn(expr)
    return expr
