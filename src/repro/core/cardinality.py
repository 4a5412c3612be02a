"""Cardinality estimation for SDQLite expressions (Fig. 5 of the paper).

A cardinality is either the scalar marker ``s`` or a nested estimate ``n[c]``
meaning "roughly ``n`` keys, each mapping to a value of cardinality ``c``".
The symbolic form ``#m`` of the paper (a size read from a scalar expression)
is resolved eagerly against :class:`repro.core.statistics.Statistics` when the
scalar's value is known, and falls back to a default dimension otherwise.

The estimator is syntax-directed and carries an environment for the
cardinalities of bound variables (``sum`` keys are scalars, ``sum`` values
have the element cardinality of the iterated collection).
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

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
)


class Card(NamedTuple):
    """A cardinality estimate: ``scalar`` or ``count`` keys of cardinality ``child``.

    A named tuple, so the binder environments extraction memoizes on (tuples
    of cards) hash and compare in C.
    """

    count: Optional[float]
    child: Optional["Card"]

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def scalar() -> "Card":
        return _SCALAR

    @staticmethod
    def of(*counts: float) -> "Card":
        """``Card.of(100, 10)`` builds the profile 100[10[s]]."""
        out = Card.scalar()
        for count in reversed(counts):
            out = Card(float(count), out)
        return out

    # -- queries --------------------------------------------------------------

    @property
    def is_scalar(self) -> bool:
        return self.count is None

    def size(self) -> float:
        """Number of keys at the top level (1 for scalars)."""
        return 1.0 if self.is_scalar else float(self.count)

    def elem(self) -> "Card":
        """Cardinality of the values stored under the top-level keys."""
        return self.child if self.child is not None else Card.scalar()

    def total(self) -> float:
        """Total number of scalar leaves reachable from this estimate."""
        if self.is_scalar:
            return 1.0
        return self.size() * self.elem().total()

    def depth(self) -> int:
        return 0 if self.is_scalar else 1 + self.elem().depth()

    def scale(self, factor: float) -> "Card":
        """Scale the top-level count (used for selectivities and sums)."""
        if self.is_scalar:
            return self
        return Card(max(self.count * factor, 0.0), self.child)

    def __repr__(self) -> str:
        if self.is_scalar:
            return "s"
        return f"{self.count:g}[{self.child!r}]"


_SCALAR = Card(None, None)


def card_from_profile(profile) -> Card:
    """Convert the nested tuple profiles produced by storage formats into Cards.

    Profiles look like ``(n1, (n2, ('s',)))`` or ``('s',)``.
    """
    if profile == ("s",) or profile == "s":
        return Card.scalar()
    count, child = profile
    return Card(float(count), card_from_profile(child))


class CardinalityEstimator:
    """Implements the inference rules of Fig. 5."""

    def __init__(self, stats):
        self.stats = stats

    def estimate(self, expr: Expr, env: tuple[Card, ...] = ()) -> Card:
        """Estimate the cardinality of ``expr``.

        ``env`` is the stack of cardinalities of bound variables (innermost
        last), used for De Bruijn indices.
        """
        return self._card(expr, env)

    # -- helpers --------------------------------------------------------------

    def _scalar_extent(self, expr: Expr) -> float | None:
        """The numeric value of a scalar expression when statically known."""
        if isinstance(expr, Const):
            return float(expr.value)
        if isinstance(expr, Sym):
            return self.stats.scalar_value(expr.name)
        if isinstance(expr, Mul):
            left = self._scalar_extent(expr.left)
            right = self._scalar_extent(expr.right)
            if left is not None and right is not None:
                return left * right
        if isinstance(expr, Add):
            left = self._scalar_extent(expr.left)
            right = self._scalar_extent(expr.right)
            if left is not None and right is not None:
                return left + right
        if isinstance(expr, Sub):
            left = self._scalar_extent(expr.left)
            right = self._scalar_extent(expr.right)
            if left is not None and right is not None:
                return left - right
        return None

    def _card(self, expr: Expr, env: tuple[Card, ...]) -> Card:
        # Runtime feedback overlay: an observed cardinality for this exact
        # (closed) sub-expression replaces the estimate below.  Only closed
        # expressions are ever recorded (see repro.execution.profile), so a
        # hit is context-independent and ``env`` can be ignored.  The
        # truthiness guard keeps the default no-observations path free.
        observations = getattr(self.stats, "observations", None)
        if observations:
            observed = observations.get(expr)
            if observed is not None:
                return observed
        if isinstance(expr, (Const,)):
            return Card.scalar()
        if isinstance(expr, Sym):
            profile = self.stats.profile(expr.name)
            if profile is not None:
                return profile
            return Card.scalar()
        if isinstance(expr, (Var,)):
            return Card.scalar()
        if isinstance(expr, Idx):
            if expr.index < len(env):
                return env[-1 - expr.index]
            return Card.scalar()
        if isinstance(expr, (Cmp, And, Or, Not)):
            return Card.scalar()
        if isinstance(expr, (Neg,)):
            return self._card(expr.operand, env)
        if isinstance(expr, (Div,)):
            return Card.scalar()
        if isinstance(expr, Add):
            left = self._card(expr.left, env)
            right = self._card(expr.right, env)
            if left.is_scalar and right.is_scalar:
                return Card.scalar()
            if left.is_scalar:
                return right
            if right.is_scalar:
                return left
            # Union of keys: bounded by the sum of the two estimates.
            return Card(left.size() + right.size(), left.elem())
        if isinstance(expr, Sub):
            return self._card(Add(expr.left, expr.right), env)
        if isinstance(expr, Mul):
            left = self._card(expr.left, env)
            right = self._card(expr.right, env)
            if left.is_scalar and right.is_scalar:
                return Card.scalar()
            if left.is_scalar:
                return right
            if right.is_scalar:
                return left
            # Intersection of keys: bounded by the smaller estimate.
            return Card(min(left.size(), right.size()), left.elem())
        if isinstance(expr, DictExpr):
            return Card(1.0, self._card(expr.value, env))
        if isinstance(expr, Get):
            return self._card(expr.target, env).elem()
        if isinstance(expr, RangeExpr):
            lo = self._scalar_extent(expr.lo)
            hi = self._scalar_extent(expr.hi)
            if lo is not None and hi is not None:
                return Card(max(hi - lo, 0.0), Card.scalar())
            return Card(self.stats.default_dimension, Card.scalar())
        if isinstance(expr, SliceGet):
            lo = self._scalar_extent(expr.lo)
            hi = self._scalar_extent(expr.hi)
            if lo is not None and hi is not None:
                return Card(max(hi - lo, 0.0), Card.scalar())
            if isinstance(expr.target, Sym):
                return Card(self.stats.segment(expr.target.name), Card.scalar())
            return Card(self.stats.default_segment, Card.scalar())
        if isinstance(expr, IfThen):
            body = self._card(expr.then, env)
            if body.is_scalar:
                return body
            return body.scale(self.stats.selectivity)
        if isinstance(expr, Let):
            value = self._card(expr.value, env)
            return self._card(expr.body, env + (value,))
        if isinstance(expr, Sum):
            source = self._card(expr.source, env)
            body_env = env + (Card.scalar(), source.elem())  # key, value
            body = self._card(expr.body, body_env)
            if body.is_scalar:
                return body
            return Card(source.size() * body.size(), body.elem())
        if isinstance(expr, Merge):
            left = self._card(expr.left, env)
            right = self._card(expr.right, env)
            matches = min(left.size(), right.size())
            body_env = env + (Card.scalar(), Card.scalar(), Card.scalar())
            body = self._card(expr.body, body_env)
            if body.is_scalar:
                return body
            return Card(matches * body.size(), body.elem())
        raise TypeError(f"cannot estimate cardinality of {type(expr).__name__}")


def estimate(expr: Expr, stats, env: Sequence[Card] = ()) -> Card:
    """Convenience wrapper around :class:`CardinalityEstimator`."""
    return CardinalityEstimator(stats).estimate(expr, tuple(env))
