"""Data statistics consumed by the cost-based optimizer.

The paper (Sec. 5.5) assumes the data administrator provides, for every input
tensor, a nested cardinality profile (how many non-empty entries per level)
plus selectivities; STOREL otherwise falls back to constants.  Here the
statistics are usually derived automatically from the registered storage
formats (:class:`repro.storage.Catalog`), but they can also be constructed by
hand, exactly like the paper's manually-provided statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from ..storage.facts import Segmentation
from ..storage.physical import KIND_HASH, KIND_TRIE
from .cardinality import Card, card_from_profile

#: Default selectivity for predicates whose selectivity is unknown (paper: 0.1).
DEFAULT_SELECTIVITY = 0.1

#: Default size assumed for dimensions whose extent cannot be derived.
DEFAULT_DIMENSION = 1_000.0

#: Default average segment length for segmented arrays without statistics.
DEFAULT_SEGMENT = 16.0


@dataclass
class Statistics:
    """Everything the cardinality and cost estimators need to know about the data.

    Attributes
    ----------
    profiles:
        Nested cardinality profile per *logical tensor* symbol.
    kinds:
        Physical collection kind per symbol (``array`` / ``hash`` / ``trie`` /
        ``scalar``); used to select γ parameters.
    scalar_values:
        Known values of integer globals (dimension sizes, nnz counts), used to
        size ``0:n`` ranges.
    segments:
        Average segment length per segmented array symbol (``A_idx2`` ...).
    selectivity:
        Default selectivity of predicates.
    integral:
        Physical symbols that hold integers: integer scalars (dimension
        sizes, nnz counts) and integer arrays (positions, coordinates).  The
        optimizer's range rewrites need integral keys and bounds
        (:mod:`repro.core.strategies`); these are the integers it can prove.
    segmentation:
        The segmented arrays the storage formats declare, by symbol name:
        which segment array splits each one, and which loop source
        enumerates its segments (:class:`~repro.storage.facts.Segmentation`).
        The optimizer's segment collapse
        (:func:`~repro.core.strategies.collapse_segments`) and the cost of a
        full traversal read them; they follow from the format class alone.
    observations:
        Runtime cardinality feedback: observed :class:`Card` per **closed**
        De Bruijn sub-expression (no free indices — context-independent, see
        :mod:`repro.execution.profile`).  The cost model's per-node rule
        (:meth:`~repro.core.cost.CostModel.node_info`) replaces a node's
        estimated cardinality with its observation, so a plan whose loop
        sizes or output cardinality were measured estimates with the
        measured numbers on the next optimization.  Empty (and costing nothing) by default.
    """

    profiles: dict[str, Card] = field(default_factory=dict)
    kinds: dict[str, str] = field(default_factory=dict)
    scalar_values: dict[str, float] = field(default_factory=dict)
    segments: dict[str, float] = field(default_factory=dict)
    selectivity: float = DEFAULT_SELECTIVITY
    default_dimension: float = DEFAULT_DIMENSION
    default_segment: float = DEFAULT_SEGMENT
    integral: set[str] = field(default_factory=set)
    segmentation: dict[str, Segmentation] = field(default_factory=dict)
    observations: dict = field(default_factory=dict)

    # -- constructors ---------------------------------------------------------

    @classmethod
    def from_catalog(cls, catalog) -> "Statistics":
        """Derive statistics from a :class:`repro.storage.Catalog`."""
        stats = cls()
        for name, value in catalog.scalars.items():
            stats.set_scalar(name, value)
        for fmt in catalog.tensors.values():
            stats.apply_format(fmt)
        return stats

    # -- incremental maintenance ----------------------------------------------
    #
    # Sessions (:mod:`repro.session`) keep one Statistics instance in sync
    # with a mutating catalog: each register / drop / replace / scalar rebind
    # patches only the affected entries instead of re-deriving everything.
    # ``from_catalog`` is expressed in terms of the same operations, so the
    # incremental path and the full rebuild cannot drift apart.

    def apply_format(self, fmt) -> None:
        """(Re-)derive every statistic contributed by one storage format."""
        self.profiles[fmt.name] = card_from_profile(fmt.profile())
        self.kinds.update(fmt.physical_kinds())
        self.segments.update(fmt.segment_profiles())
        self.segmentation.update(fmt.segmentation())
        for symbol, value in fmt.physical().items():
            if _holds_integers(value):
                self.integral.add(symbol)
            if isinstance(value, (int, float)):
                self.scalar_values[symbol] = value
            # Nested physical collections (hash-maps, tries) *are* the
            # logical tensor: give them its full nested profile, so both the
            # cost model and the optimizer's rank analysis see their true
            # dictionary depth (a flat length profile made the dict-factor
            # rules treat a trie's rows as scalars — found by the
            # differential fuzzer).
            elif getattr(value, "kind", None) in (KIND_HASH, KIND_TRIE) \
                    and symbol not in self.profiles:
                self.profiles[symbol] = card_from_profile(fmt.profile())
            # Physical arrays are themselves dictionaries position -> value;
            # give them flat profiles based on their length so iterating them
            # is costed.
            elif hasattr(value, "__len__") and symbol not in self.profiles:
                try:
                    length = float(len(value))
                except TypeError:  # pragma: no cover - defensive
                    continue
                self.profiles[symbol] = Card(length, Card.scalar())

    def remove_format(self, fmt) -> None:
        """Drop every statistic contributed by ``fmt`` (inverse of :meth:`apply_format`)."""
        self.profiles.pop(fmt.name, None)
        for symbol in fmt.physical():
            self.kinds.pop(symbol, None)
            self.scalar_values.pop(symbol, None)
            self.profiles.pop(symbol, None)
            self.segments.pop(symbol, None)
            self.segmentation.pop(symbol, None)
            self.integral.discard(symbol)

    def set_scalar(self, name: str, value: float) -> None:
        """Record (or update) a global scalar's value and kind."""
        self.scalar_values[name] = value
        self.kinds[name] = "scalar"

    def remove_scalar(self, name: str) -> None:
        """Forget a global scalar (inverse of :meth:`set_scalar`)."""
        self.scalar_values.pop(name, None)
        self.kinds.pop(name, None)

    # -- per-configuration ("what if") estimates ------------------------------

    def with_formats(self, swaps) -> "Statistics":
        """A copy of these statistics with some tensors' storage formats swapped.

        ``swaps`` is an iterable of ``(current_format, candidate_format)``
        pairs for the same logical tensors.  The copy is what the statistics
        *would* look like if each tensor were re-stored in its candidate
        format — the workload-driven advisor (:mod:`repro.advisor`) costs one
        candidate storage configuration per call this way, without touching
        the catalog.  Expressed in terms of :meth:`remove_format` /
        :meth:`apply_format`, so hypothetical and real re-formats cannot
        drift apart.
        """
        copy = Statistics(
            profiles=dict(self.profiles),
            kinds=dict(self.kinds),
            scalar_values=dict(self.scalar_values),
            segments=dict(self.segments),
            selectivity=self.selectivity,
            default_dimension=self.default_dimension,
            default_segment=self.default_segment,
            integral=set(self.integral),
            segmentation=dict(self.segmentation),
        )
        for current, candidate in swaps:
            copy.remove_format(current)
            copy.apply_format(candidate)
        # Observations are deliberately NOT carried over: they were measured
        # under the current storage formats, and a hypothetical re-format
        # changes the very loop structures they describe.
        return copy

    # -- runtime feedback -----------------------------------------------------

    def observe(self, expr, card: Card) -> None:
        """Record the observed cardinality of a closed (sub-)expression.

        Setting the same observation twice is a no-op by construction — the
        observed value simply replaces itself — which makes refinement
        idempotent (property-tested in ``tests/test_adaptive_properties.py``).
        """
        self.observations[expr] = card

    def observation(self, expr) -> Card | None:
        """The observed cardinality of ``expr``, or ``None``."""
        if not self.observations:
            return None
        return self.observations.get(expr)

    def clear_observations(self) -> None:
        """Drop all runtime feedback (the data changed underneath it)."""
        self.observations.clear()

    # -- queries --------------------------------------------------------------

    def fingerprint(self, names) -> tuple | None:
        """Everything the estimators read about the symbols ``names``.

        :class:`~repro.core.cost.CostModel` looks statistics up only by the
        name of a :class:`~repro.sdqlite.ast.Sym` in the plan, plus the
        defaults below, so a plan's estimates are a function of its symbols'
        fingerprint.  ``None`` when runtime
        observations are present: they are keyed by sub-expression instead.
        """
        if self.observations:
            return None
        return (self.selectivity, self.default_dimension, self.default_segment,
                *((self.profiles.get(name), self.kinds.get(name),
                   self.scalar_values.get(name), self.segments.get(name),
                   self.segmentation.get(name))
                  for name in names))

    def profile(self, name: str) -> Card | None:
        return self.profiles.get(name)

    def kind(self, name: str) -> str:
        return self.kinds.get(name, "hash")

    def scalar_value(self, name: str) -> float | None:
        value = self.scalar_values.get(name)
        return float(value) if value is not None else None

    def segment(self, name: str) -> float:
        return self.segments.get(name, self.default_segment)

    def with_selectivity(self, selectivity: float) -> "Statistics":
        """A copy of these statistics with a different default selectivity."""
        return Statistics(
            profiles=dict(self.profiles),
            kinds=dict(self.kinds),
            scalar_values=dict(self.scalar_values),
            segments=dict(self.segments),
            selectivity=selectivity,
            default_dimension=self.default_dimension,
            default_segment=self.default_segment,
            integral=set(self.integral),
            segmentation=dict(self.segmentation),
            observations=dict(self.observations),
        )


def _holds_integers(value) -> bool:
    """An integer scalar, or an array whose elements are integers."""
    if isinstance(value, (bool, np.bool_)):
        return False
    if isinstance(value, (int, np.integer)):
        return True
    dtype = getattr(value, "dtype", None)
    return isinstance(dtype, np.dtype) and np.issubdtype(dtype, np.integer)
