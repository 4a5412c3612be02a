"""Runtime cardinality profiling for the execution backends.

The cost model (Fig. 6) runs on *estimated* cardinalities; this module is the
measurement side of the adaptive loop (ROADMAP item 3): a tiny, optional
:class:`ExecutionProfile` object that both backends fill with the actual
per-``sum``-loop iteration counts of one execution, plus helpers to turn a
runtime result into an observed :class:`~repro.core.cardinality.Card`.

Design constraints, in order:

* **Zero cost when off.**  Profiling is opt-in per run — ``profile=None`` (the
  default everywhere) leaves the hot loops untouched apart from one attribute
  check per *loop*, not per iteration.
* **Loop counts, not traces.**  A profile records, per ``sum`` loop, the total
  number of iterations and the number of loop entries (inner loops run once
  per outer iteration); the mean is the observed top-level size of the loop's
  source.  Merge loops and the O(1) probe short-circuits are deliberately not
  recorded: a probe that answers from a single lookup says nothing about the
  cardinality of the collection it probed.
* **Context-free keys only.**  Loop records are keyed by the backend's loop
  slot; :meth:`ExecutionProfile.loop_observations` resolves slots to source
  sub-expressions of the De Bruijn plan and keeps only the **closed** ones
  (no free :class:`~repro.sdqlite.ast.Idx`), because only a closed expression
  means the same thing in every binding context — exactly the keys
  :class:`~repro.core.statistics.Statistics` accepts as observations.
"""

from __future__ import annotations

from itertools import islice
from typing import Any, Mapping

from ..core.cardinality import Card
from ..sdqlite.ast import Expr, Sum, children
from ..sdqlite.debruijn import is_closed
from ..sdqlite.values import is_scalar, iter_items

__all__ = ["ExecutionProfile", "observed_card", "is_closed", "sum_sources_of"]


def sum_sources_of(plan: Expr) -> dict[Expr, Expr]:
    """``{sum node: its source}`` for every ``sum`` in a De Bruijn plan.

    The interpreter backend has no slot numbering, so it keys loop records by
    the :class:`~repro.sdqlite.ast.Sum` node itself (plans are frozen and hash
    structurally); this map lets the feedback layer resolve those keys the
    same way it resolves the integer slots of the ``typed`` backend.
    """
    sources: dict[Expr, Expr] = {}
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Sum):
            sources[node] = node.source
        stack.extend(children(node))
    return sources


def _mean_card(cards: list[Card]) -> Card:
    """Average a sample of observed child cardinalities level-wise."""
    nested = [card for card in cards if not card.is_scalar]
    if not nested:
        return Card.scalar()
    count = sum(card.count for card in nested) / len(nested)
    return Card(count, _mean_card([card.elem() for card in nested]))


def observed_card(value: Any, sample: int = 4) -> Card:
    """The actual :class:`Card` of a runtime result (children sampled).

    Top-level counts are exact (``len`` where the collection supports it);
    nested levels are averaged over the first ``sample`` children so that
    observing a large result stays O(size of the top level), not O(total
    leaves).  Typed-backend root :class:`~repro.execution.buffers.BufferDict`
    results are read straight off their per-level buffer lengths — exact at
    every level, no iteration at all.
    """
    if is_scalar(value):
        return Card.scalar()
    levels = getattr(value, "levels", None)
    if levels is not None and getattr(value, "is_root", False):
        counts: list[float] = []
        parent = 1.0
        for level_keys in levels.keys:
            size = float(level_keys.shape[0])
            counts.append(size / parent if parent else 0.0)
            if size == 0:
                # An empty level has no children: truncate here rather than
                # emit a spurious 0.0 for every deeper level, which would
                # poison the feedback overlay with zero-cardinality
                # observations for loops that never ran.
                break
            parent = size
        return Card.of(*counts) if counts else Card.scalar()
    try:
        size = float(len(value))
    except TypeError:
        size = float(sum(1 for _ in iter_items(value)))
    sampled = [observed_card(item, sample)
               for _, item in islice(iter_items(value), sample)]
    return Card(size, _mean_card(sampled))


class ExecutionProfile:
    """Per-loop iteration counts and the output cardinality of one (or more) runs.

    One profile may accumulate several executions of the *same* prepared
    plan (``runs`` counts them); loop keys are backend loop slots — integers
    for ``typed``, :class:`Sum` nodes for the interpreter.
    """

    __slots__ = ("loops", "entries", "output_card", "runs")

    def __init__(self) -> None:
        self.loops: dict[Any, float] = {}    # slot -> total iterations
        self.entries: dict[Any, int] = {}    # slot -> number of loop entries
        self.output_card: Card | None = None
        self.runs = 0

    def record_loop(self, slot: Any, iterations: float, entries: int = 1) -> None:
        """Add one observed loop entry (or ``entries`` lanes worth of them)."""
        self.loops[slot] = self.loops.get(slot, 0.0) + float(iterations)
        self.entries[slot] = self.entries.get(slot, 0) + entries

    def record_output(self, result: Any) -> None:
        """Record the observed cardinality of one execution's result."""
        self.output_card = observed_card(result)
        self.runs += 1

    def mean_iterations(self, slot: Any) -> float | None:
        """Observed mean top-level size of the loop's source, or ``None``."""
        entries = self.entries.get(slot)
        if not entries:
            return None
        return self.loops[slot] / entries

    def loop_observations(self, sources: Mapping[Any, Expr]) -> dict[Expr, float]:
        """Resolve loop records to ``{closed source expression: mean size}``.

        ``sources`` maps this profile's loop slots to the source
        sub-expressions of the plan (``PreparedPlan.loop_sources()``); open
        sources — those referencing loop variables of an enclosing binder —
        are dropped, see the module docstring.
        """
        out: dict[Expr, float] = {}
        for slot, total in self.loops.items():
            source = sources.get(slot)
            if source is None or not is_closed(source):
                continue
            entries = self.entries.get(slot, 0)
            if entries:
                out[source] = total / entries
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"ExecutionProfile(runs={self.runs}, loops={len(self.loops)}, "
                f"output={self.output_card!r})")
