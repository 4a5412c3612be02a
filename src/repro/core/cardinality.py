"""Cardinalities (Fig. 5 of the paper) and storage-format profiles.

A cardinality is either the scalar marker ``s`` or a nested estimate ``n[c]``
meaning "roughly ``n`` keys, each mapping to a value of cardinality ``c``".
The symbolic form ``#m`` of the paper (a size read from a scalar expression)
is resolved eagerly against :class:`repro.core.statistics.Statistics` when the
scalar's value is known, and falls back to a default dimension otherwise.

The Fig. 5 inference rules live in :meth:`repro.core.cost.CostModel.node_info`,
next to the Fig. 6 costs they feed; :func:`repro.core.cost.estimate` gives the
cardinality of an expression alone.
"""

from __future__ import annotations

from typing import NamedTuple, Optional


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
