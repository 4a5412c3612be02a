"""Reference interpreter for SDQLite.

This is the executable semantics of the language (Sec. 3.2 of the paper):
every construct is evaluated directly over semiring-dictionary values.  The
interpreter serves three roles in the reproduction:

* the *oracle* against which optimized plans, the ``typed`` executor's
  kernels, and baselines are checked,
* the ``interpret`` execution backend for physical plans (the paper
  generates Julia; we lower to batched NumPy kernels and keep this as the
  reference — see :mod:`repro.execution`),
* the semantics used by property-based tests of the rewrite rules.

Expressions may be in named form (variables are
:class:`~repro.sdqlite.ast.Var`) or nameless form
(:class:`~repro.sdqlite.ast.Idx`); both are supported without conversion.
Global tensors, arrays, hash-maps, tries and scalars are supplied through an
environment mapping symbol names to runtime values (numbers, NumPy arrays,
nested dicts, or the physical objects of :mod:`repro.storage.physical`,
which expose a dictionary interface).
"""

from __future__ import annotations

from typing import Any, Mapping

import numpy as np

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
)
from .errors import EvaluationError
from .values import (
    RangeDict,
    SemiringDict,
    SliceDict,
    is_scalar,
    is_zero,
    iter_items,
    lookup,
    merge_hashable,
    normalize_key,
    truthy,
    v_add,
    v_mul,
    v_sub,
)


class Environment:
    """Evaluation environment: global symbols plus a stack of bound variables.

    ``profile`` is an optional :class:`~repro.execution.profile.ExecutionProfile`;
    when set, every ``sum`` loop records its iteration count (keyed by the
    :class:`~repro.sdqlite.ast.Sum` node itself).  The default ``None`` costs
    one attribute check per loop, not per iteration.
    """

    __slots__ = ("globals", "_stack", "_names", "profile")

    def __init__(self, globals_: Mapping[str, Any] | None = None,
                 profile=None):
        self.globals = dict(globals_ or {})
        self._stack: list[Any] = []
        self._names: list[str | None] = []
        self.profile = profile

    def push(self, value: Any, name: str | None = None) -> None:
        self._stack.append(value)
        self._names.append(name)

    def pop(self, count: int = 1) -> None:
        for _ in range(count):
            self._stack.pop()
            self._names.pop()

    def lookup_index(self, index: int) -> Any:
        if index >= len(self._stack):
            raise EvaluationError(f"unbound De Bruijn index %{index}")
        return self._stack[-1 - index]

    def lookup_name(self, name: str) -> Any:
        for depth in range(len(self._names) - 1, -1, -1):
            if self._names[depth] == name:
                return self._stack[depth]
        if name in self.globals:
            return self.globals[name]
        raise EvaluationError(f"unbound variable {name!r}")

    def lookup_symbol(self, name: str) -> Any:
        if name in self.globals:
            return self.globals[name]
        raise EvaluationError(f"unknown global symbol {name!r}")


@np.errstate(all="ignore")    # IEEE results (`inf - inf`) are the semantics
def evaluate(expr: Expr, globals_: Mapping[str, Any] | None = None,
             env: Environment | None = None, profile=None) -> Any:
    """Evaluate ``expr`` and return a scalar or a :class:`SemiringDict`.

    Parameters
    ----------
    expr:
        The expression to evaluate (named or nameless form).
    globals_:
        Mapping from global symbol names to runtime values.
    env:
        An existing environment (used internally for recursion).
    profile:
        Optional :class:`~repro.execution.profile.ExecutionProfile` that
        receives per-``sum``-loop iteration counts.
    """
    if env is None:
        env = Environment(globals_, profile=profile)
    return _eval(expr, env)


def _eval(expr: Expr, env: Environment) -> Any:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Sym):
        return env.lookup_symbol(expr.name)
    if isinstance(expr, Var):
        return env.lookup_name(expr.name)
    if isinstance(expr, Idx):
        return env.lookup_index(expr.index)
    if isinstance(expr, Add):
        return v_add(_eval(expr.left, env), _eval(expr.right, env))
    if isinstance(expr, Sub):
        return v_sub(_eval(expr.left, env), _eval(expr.right, env))
    if isinstance(expr, Mul):
        return v_mul(_eval(expr.left, env), _eval(expr.right, env))
    if isinstance(expr, Div):
        left = _eval(expr.left, env)
        right = _eval(expr.right, env)
        if not (is_scalar(left) and is_scalar(right)):
            raise EvaluationError("division is only defined on scalars")
        return left / right
    if isinstance(expr, Neg):
        value = _eval(expr.operand, env)
        return v_mul(-1, value) if not is_scalar(value) else -value
    if isinstance(expr, Not):
        return not truthy(_eval(expr.operand, env))
    if isinstance(expr, And):
        return truthy(_eval(expr.left, env)) and truthy(_eval(expr.right, env))
    if isinstance(expr, Or):
        return truthy(_eval(expr.left, env)) or truthy(_eval(expr.right, env))
    if isinstance(expr, Cmp):
        return _compare(expr.op, _eval(expr.left, env), _eval(expr.right, env))
    if isinstance(expr, DictExpr):
        key = _eval_key(expr.key, env)
        value = _eval(expr.value, env)
        if is_zero(value):
            return SemiringDict()
        return SemiringDict({key: value})
    if isinstance(expr, Get):
        target = _eval(expr.target, env)
        key = _eval_key(expr.key, env)
        return lookup(target, key)
    if isinstance(expr, RangeExpr):
        lo = _eval_key(expr.lo, env)
        hi = _eval_key(expr.hi, env)
        return RangeDict(lo, hi)
    if isinstance(expr, SliceGet):
        target = _eval(expr.target, env)
        lo = _eval_key(expr.lo, env)
        hi = _eval_key(expr.hi, env)
        return SliceDict(target, lo, hi)
    if isinstance(expr, IfThen):
        condition = _eval(expr.cond, env)
        if truthy(condition):
            return _eval(expr.then, env)
        return 0
    if isinstance(expr, Let):
        value = _eval(expr.value, env)
        env.push(value, expr.name)
        try:
            return _eval(expr.body, env)
        finally:
            env.pop()
    if isinstance(expr, Sum):
        return _eval_sum(expr, env)
    if isinstance(expr, Merge):
        return _eval_merge(expr, env)
    raise EvaluationError(f"cannot evaluate node of type {type(expr).__name__}")


def _eval_sum(expr: Sum, env: Environment) -> Any:
    source = _eval(expr.source, env)
    accumulator: Any = 0
    iterations = 0
    for key, value in iter_items(source):
        iterations += 1
        env.push(key, expr.key_name)
        env.push(value, expr.val_name)
        try:
            term = _eval(expr.body, env)
        finally:
            env.pop(2)
        accumulator = v_add(accumulator, term)
    if env.profile is not None:
        env.profile.record_loop(expr, iterations)
    return accumulator


def _eval_merge(expr: Merge, env: Environment) -> Any:
    """``merge(<k1,k2,v> in <e1,e2>) body``: sum over pairs with equal values."""
    left = _eval(expr.left, env)
    right = _eval(expr.right, env)
    # Group the right side by value so the pairing is value-based, matching
    # the semantics sum(<k1,v1> in e1, <k2,v2> in e2) if (v1 == v2) then body.
    by_value: dict[Any, list[Any]] = {}
    for key, value in iter_items(right):
        by_value.setdefault(merge_hashable(value), []).append(key)
    accumulator: Any = 0
    for key1, value in iter_items(left):
        matches = by_value.get(merge_hashable(value))
        if not matches:
            continue
        for key2 in matches:
            env.push(key1, expr.key1_name)
            env.push(key2, expr.key2_name)
            env.push(value, expr.val_name)
            try:
                term = _eval(expr.body, env)
            finally:
                env.pop(3)
            accumulator = v_add(accumulator, term)
    return accumulator


def _eval_key(expr: Expr, env: Environment) -> Any:
    return normalize_key(_eval(expr, env))




def _compare(op: str, left: Any, right: Any) -> bool:
    if not (is_scalar(left) and is_scalar(right)):
        raise EvaluationError("comparisons are only defined on scalars")
    if op == "==":
        return bool(left == right)
    if op == "!=":
        return bool(left != right)
    if op == "<":
        return bool(left < right)
    if op == "<=":
        return bool(left <= right)
    if op == ">":
        return bool(left > right)
    if op == ">=":
        return bool(left >= right)
    raise EvaluationError(f"unknown comparison operator {op!r}")


