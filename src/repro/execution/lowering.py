"""Plan-shape tests and probe helpers of the closure lowering.

:mod:`repro.execution.typed_backend` lowers a De Bruijn plan into closures
and short-circuits equality-probe loops; the plan-shape predicates and the
O(1) probe it uses for that live here, apart from the batched machinery.
"""

from __future__ import annotations

import numpy as np

from ..sdqlite.ast import Expr, Idx, binder_arities, children
from ..sdqlite.values import RangeDict, SliceDict, lookup
from ..storage.physical import PhysicalArray

__all__ = ["COMPARATORS", "NO_PROBE", "is_closed", "probe_entry", "uses_sum_binders"]


def uses_sum_binders(expr: Expr, depth: int = 0) -> bool:
    """True when ``expr`` (inside a sum body) references the sum's key or value.

    ``depth`` counts binders entered below the sum body; the sum's own
    binders appear as indices ``depth`` (value) and ``depth + 1`` (key).
    """
    if isinstance(expr, Idx):
        return depth <= expr.index < depth + 2
    for child, arity in zip(children(expr), binder_arities(expr)):
        if uses_sum_binders(child, depth + arity):
            return True
    return False


def is_closed(expr: Expr, depth: int = 0) -> bool:
    """True when ``expr`` references no De Bruijn index bound outside itself."""
    if isinstance(expr, Idx):
        return expr.index < depth
    return all(is_closed(child, depth + arity)
               for child, arity in zip(children(expr), binder_arities(expr)))


#: Sentinel distinguishing "probe missed" (contributes 0) from "not probeable".
NO_PROBE = object()


def probe_entry(source, key: int):
    """O(1) lookup of ``key`` in a dense iteration space.

    Returns the iteration value for ``key``, 0-contribution ``None`` when the
    key is outside the space, or :data:`NO_PROBE` when the source is not a
    range / array / array slice (whose keys are exactly the positions — for
    other collections the caller must iterate).
    """
    if isinstance(source, PhysicalArray):
        source = source.data
    if isinstance(source, RangeDict):
        return key if source.lo <= key < source.hi else None
    if isinstance(source, np.ndarray) and source.ndim == 1:
        return source[key] if 0 <= key < source.shape[0] else None
    if isinstance(source, SliceDict):
        if source.lo <= key < source.hi:
            return lookup(source.target, key)
        return None
    return NO_PROBE


COMPARATORS = {
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}
