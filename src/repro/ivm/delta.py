"""Delta-rule derivation for SDQLite programs (the ``ΔQ`` of IVM).

Given a program ``Q`` and the name of one updated tensor ``T``, derive a
*delta program* ``ΔQ`` over the original tensors plus a fresh symbol
``T__delta`` such that, writing ``⊕`` for semiring addition of results,

    ``eval(Q, db + Δ)  ==  eval(Q, db)  ⊕  eval(ΔQ, db, Δ)``

for every sparse point-update ``Δ`` to ``T``.  The rules follow directly
from distributivity of the semiring operations:

========================= ====================================================
construct                 delta rule
========================= ====================================================
``a + b``                 ``Δa + Δb``
``a - b`` / ``-a``        ``Δa - Δb`` / ``-Δa``
``a * b``                 ``Δa*b + a*Δb + Δa*Δb`` (the discrete product rule)
``a / b``                 ``Δa / b`` — only when ``Δb = 0``
``{k -> v}``              ``{k -> Δv}`` — only when ``Δk = 0``
``d(k)``                  ``Δd(k)`` — lookup is linear, missing keys are 0
``if c then e``           ``if c then Δe`` — only when ``Δc = 0``
``let x = v in b``        pushdown; a changed binding introduces ``Δx``
``sum(<k,v> in S) b``     ``sum(S) Δb  ⊕  sum(ΔS) (b + Δb)`` — the second
                          term requires ``b + Δb`` *homogeneously linear*
                          in the value ``v`` (so evaluating it at ``Δv``
                          yields exactly the contribution change)
========================= ====================================================

Constructs whose output is a *discontinuous* function of the updated values
(comparisons, boolean operators, range bounds, divisors, dictionary keys)
have no sparse delta; :class:`DeltaNotSupported` is raised and the caller
falls back to full re-execution.  The conservative linearity test
:func:`is_linear_in` plays the same role for sums over an updated source:
``False`` never produces a wrong delta, only a full refresh.

Derivation happens on the De Bruijn form.  Internally ``None`` represents a
*proven-zero* delta, pruned eagerly so the common case — a program that
merely reads the updated tensor linearly — yields a delta program whose
cost is proportional to the size of the update, not the database.
"""

from __future__ import annotations

from typing import Optional

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
    ZERO,
)
from ..sdqlite.debruijn import is_linear_in, shift, to_debruijn_safe


class DeltaNotSupported(Exception):
    """The program has no sparse delta w.r.t. the updated tensor.

    Raised when the updated tensor flows into a construct whose output is
    not an additively decomposable function of it (a comparison, a divisor,
    a dictionary key, a non-linear sum body, ...).  Callers treat this as a
    *structural* fallback: the view is maintained by full re-execution.
    """


def delta_symbol(tensor: str) -> str:
    """The reserved global symbol naming the sparse delta of ``tensor``."""
    return f"{tensor}__delta"


# ---------------------------------------------------------------------------
# Zero-pruning smart constructors (None = proven-zero delta)
# ---------------------------------------------------------------------------


def _add(left: Optional[Expr], right: Optional[Expr]) -> Optional[Expr]:
    if left is None:
        return right
    if right is None:
        return left
    return Add(left, right)


def _sub(left: Optional[Expr], right: Optional[Expr]) -> Optional[Expr]:
    if right is None:
        return left
    if left is None:
        # Not Neg: the backends negate with Python's unary minus, which is
        # scalar-only, while Sub subtracts dictionaries element-wise — and a
        # delta can be dictionary-valued even where the original was not.
        return Sub(ZERO, right)
    return Sub(left, right)


# ---------------------------------------------------------------------------
# The delta transform
# ---------------------------------------------------------------------------

_Env = tuple  # tuple[Optional[Expr], ...]: env[i] = delta of Idx(i), None = zero


def _push(env: _Env, arity: int) -> _Env:
    """Enter a binder of ``arity`` whose bound variables have zero delta."""
    if arity == 0:
        return env
    shifted = tuple(None if d is None else shift(d, arity, 0) for d in env)
    return (None,) * arity + shifted


def _delta(expr: Expr, env: _Env, tensor: str, dname: str) -> Optional[Expr]:
    if isinstance(expr, Const):
        return None
    if isinstance(expr, Sym):
        return Sym(dname) if expr.name == tensor else None
    if isinstance(expr, Idx):
        return env[expr.index] if expr.index < len(env) else None
    if isinstance(expr, Var):
        raise DeltaNotSupported("delta derivation requires the nameless form")
    if isinstance(expr, Add):
        return _add(_delta(expr.left, env, tensor, dname),
                    _delta(expr.right, env, tensor, dname))
    if isinstance(expr, Sub):
        return _sub(_delta(expr.left, env, tensor, dname),
                    _delta(expr.right, env, tensor, dname))
    if isinstance(expr, Neg):
        inner = _delta(expr.operand, env, tensor, dname)
        return None if inner is None else Neg(inner)
    if isinstance(expr, Mul):
        dl = _delta(expr.left, env, tensor, dname)
        dr = _delta(expr.right, env, tensor, dname)
        # (a+Δa)(b+Δb) - ab = Δa·b + a·Δb + Δa·Δb
        out: Optional[Expr] = None
        if dl is not None:
            out = _add(out, Mul(dl, expr.right))
        if dr is not None:
            out = _add(out, Mul(expr.left, dr))
        if dl is not None and dr is not None:
            out = _add(out, Mul(dl, dr))
        return out
    if isinstance(expr, Div):
        dr = _delta(expr.right, env, tensor, dname)
        if dr is not None:
            raise DeltaNotSupported("updated tensor flows into a divisor")
        dl = _delta(expr.left, env, tensor, dname)
        return None if dl is None else Div(dl, expr.right)
    if isinstance(expr, (Cmp, And, Or)):
        if (_delta(expr.left, env, tensor, dname) is None
                and _delta(expr.right, env, tensor, dname) is None):
            return None
        raise DeltaNotSupported("updated tensor flows into a boolean operator")
    if isinstance(expr, Not):
        if _delta(expr.operand, env, tensor, dname) is None:
            return None
        raise DeltaNotSupported("updated tensor flows into a boolean operator")
    if isinstance(expr, DictExpr):
        if _delta(expr.key, env, tensor, dname) is not None:
            raise DeltaNotSupported("updated tensor flows into a dictionary key")
        dv = _delta(expr.value, env, tensor, dname)
        if dv is None:
            return None
        return DictExpr(expr.key, dv, annot=expr.annot, unique=expr.unique)
    if isinstance(expr, Get):
        if _delta(expr.key, env, tensor, dname) is not None:
            raise DeltaNotSupported("updated tensor flows into a lookup key")
        dt = _delta(expr.target, env, tensor, dname)
        # Lookup is linear: (d ⊕ Δd)(k) = d(k) + Δd(k), missing keys read 0.
        return None if dt is None else Get(dt, expr.key)
    if isinstance(expr, RangeExpr):
        if (_delta(expr.lo, env, tensor, dname) is None
                and _delta(expr.hi, env, tensor, dname) is None):
            return None
        raise DeltaNotSupported("updated tensor flows into a range bound")
    if isinstance(expr, SliceGet):
        if (_delta(expr.lo, env, tensor, dname) is not None
                or _delta(expr.hi, env, tensor, dname) is not None):
            raise DeltaNotSupported("updated tensor flows into a slice bound")
        dt = _delta(expr.target, env, tensor, dname)
        return None if dt is None else SliceGet(dt, expr.lo, expr.hi)
    if isinstance(expr, IfThen):
        if _delta(expr.cond, env, tensor, dname) is not None:
            raise DeltaNotSupported("updated tensor flows into a condition")
        dt = _delta(expr.then, env, tensor, dname)
        return None if dt is None else IfThen(expr.cond, dt)
    if isinstance(expr, Let):
        dv = _delta(expr.value, env, tensor, dname)
        if dv is None:
            db = _delta(expr.body, _push(env, 1), tensor, dname)
            return None if db is None else Let(expr.value, db, name=expr.name)
        # The bound value itself changes: re-bind its delta alongside it.
        # New scope: %0 = Δx (inner let), %1 = x (outer let), outer indices
        # shift by 2.  The original body is lifted so x stays addressable.
        body2 = shift(expr.body, 1, 0)  # %0 (x) -> %1, outers follow
        env2 = (None, Idx(0)) + tuple(
            None if d is None else shift(d, 2, 0) for d in env)
        db2 = _delta(body2, env2, tensor, dname)
        if db2 is None:
            return None
        return Let(expr.value, Let(shift(dv, 1, 0), db2, name=None),
                   name=expr.name)
    if isinstance(expr, Sum):
        ds = _delta(expr.source, env, tensor, dname)
        db = _delta(expr.body, _push(env, 2), tensor, dname)
        if ds is None:
            if db is None:
                return None
            return Sum(expr.source, db, key_name=expr.key_name,
                       val_name=expr.val_name)
        # Changed source.  Decompose over keys:
        #   k in S only:        covered by sum(S) Δb
        #   k in S and ΔS:      sum(S) Δb contributes Δb(k, v_old); the
        #                       remaining change of (b+Δb)(k, ·) between
        #                       v_old and v_old+Δv is (b+Δb)(k, Δv) —
        #                       exactly what sum(ΔS) (b+Δb) adds, provided
        #                       b+Δb is homogeneously linear in the value;
        #   k in ΔS only:       new contribution (b+Δb)(k, Δv), ditto.
        new_body = expr.body if db is None else Add(expr.body, db)
        if not is_linear_in(new_body, 0):
            raise DeltaNotSupported(
                "sum body is not linear in the updated source's values")
        first = None if db is None else Sum(expr.source, db,
                                            key_name=expr.key_name,
                                            val_name=expr.val_name)
        second = Sum(ds, new_body, key_name=expr.key_name,
                     val_name=expr.val_name)
        return _add(first, second)
    if isinstance(expr, Merge):
        dl = _delta(expr.left, env, tensor, dname)
        dr = _delta(expr.right, env, tensor, dname)
        if dl is not None or dr is not None:
            raise DeltaNotSupported("updated tensor flows into a merge source")
        db = _delta(expr.body, _push(env, 3), tensor, dname)
        if db is None:
            return None
        return Merge(expr.left, expr.right, db, key1_name=expr.key1_name,
                     key2_name=expr.key2_name, val_name=expr.val_name)
    raise DeltaNotSupported(f"no delta rule for {type(expr).__name__}")


def derive_delta(program: Expr, tensor: str, delta_name: str | None = None) -> Expr:
    """Derive the delta program of ``program`` w.r.t. an update to ``tensor``.

    The result is a De Bruijn-form program over the original global symbols
    plus ``delta_name`` (default :func:`delta_symbol`), satisfying the IVM
    identity above.  A program that provably does not depend on ``tensor``
    yields ``Const(0)``.  Raises :class:`DeltaNotSupported` when no sparse
    delta exists (caller should fall back to full re-execution).
    """
    if delta_name is None:
        delta_name = delta_symbol(tensor)
    expr = to_debruijn_safe(program)
    d = _delta(expr, (), tensor, delta_name)
    return ZERO if d is None else d
