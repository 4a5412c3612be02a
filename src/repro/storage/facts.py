"""Facts a storage declaration proves about its arrays, and the run environment carrying them.

A :class:`~repro.storage.formats.LevelFormat` declares its layout as a chain
of level kinds, and the kinds imply facts about the stored arrays without a
look at the data (:meth:`~repro.storage.formats.StorageFormat.facts`):

* ``idx<k>`` — every key lies in ``[0, shape[axis])``;
* ``pos<k>`` — the segment array is non-decreasing, from ``0`` to the number
  of entries of its level.

They also declare how their levels segment one another
(:meth:`~repro.storage.formats.StorageFormat.segmentation`, one
:class:`Segmentation` per compressed level below the root).  The optimizer
reads these by symbol name, through its statistics, at plan time.

:meth:`repro.storage.Catalog.globals` hands them to every run inside its
:class:`Environment`, keyed by the identity of the array they describe.  The
``typed`` executor looks a fact up by the array it is about to read and uses
it only when the entry describes that very object, so a name bound to some
other array — a delta, a per-request binding — never inherits a fact.  An
environment without facts (a plain ``dict``) runs exactly as before.
"""

from __future__ import annotations

from typing import Any, Iterable, Mapping, NamedTuple

import numpy as np

from ..sdqlite.ast import Expr

__all__ = ["ArrayFact", "Environment", "Segmentation"]


class ArrayFact(NamedTuple):
    """Every element of ``array`` lies in ``[lo, hi]``; ``ordered``: and they
    never decrease from one element to the next."""

    array: np.ndarray
    lo: int
    hi: int
    ordered: bool = False


class Segmentation(NamedTuple):
    """The segment array ``pos`` splits the array it is declared for into
    back-to-back segments, one per entry of ``parents``, in order.

    ``parents`` is the loop source that enumerates the parent level's
    entries: ``0:{name}_len1`` under a dense root, the parent level's key
    array otherwise.  ``pos[0] == 0``, ``pos`` never decreases, and
    ``pos[-1]`` is the length of the segmented array, so the segments of all
    parents cover it exactly once.
    """

    pos: str
    parents: Expr


class Environment(dict):
    """The physical symbols of a run, plus the facts the storage declares.

    ``facts`` maps ``id(array)`` to the array's :class:`ArrayFact`, which
    holds the array itself, so an ``id`` cannot be recycled while the table
    lives.
    """

    __slots__ = ("facts",)

    def __init__(self, values: Mapping[str, Any] = (),
                 facts: Mapping[int, ArrayFact] | None = None):
        super().__init__(values)
        self.facts = {} if facts is None else facts

    def declare(self, facts: Iterable[ArrayFact]) -> None:
        """Add facts (from building the environment; never during a run)."""
        for fact in facts:
            self.facts[id(fact.array)] = fact

    def bind(self, values: Mapping[str, Any],
             facts: Iterable[ArrayFact] = ()) -> "Environment":
        """A new environment with ``values`` bound over these and ``facts`` added."""
        bound = Environment(self, self.facts)
        bound.update(values)
        facts = list(facts)
        if facts:
            bound.facts = dict(self.facts)
            bound.declare(facts)
        return bound
