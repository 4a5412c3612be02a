"""Flat typed columnar buffers for the ``typed`` execution backend.

The ``typed`` backend (:mod:`repro.execution.typed_backend`) evaluates whole
plans over contiguous NumPy arrays.  This module provides the data layer it
runs on:

* :class:`BufferLevels` — a CSF-style *levelized* view of an integer-keyed
  nested dictionary: one sorted key array per nesting level, segment-pointer
  arrays linking a parent entry to its children, and one float64 leaf value
  array.  Within every parent segment the keys are sorted, and entries are
  globally ordered by (parent id, key), so a per-segment lookup vectorizes
  over thousands of segments at once as one lookup of a composite
  (parent, key) integer.
* :class:`BufferDict` — a lazy dictionary view over a :class:`BufferLevels`
  node.  It satisfies the generic ``items()`` / ``get()`` protocol of
  :mod:`repro.sdqlite.values`, so typed results flow through ``v_add``,
  ``to_plain`` and the fuzz oracle unchanged, while the ``result_to_*``
  helpers recognise it and scatter straight into a dense array.
* :func:`to_buffer_levels` — conversion of any runtime collection (nested
  dicts, tries, semiring dicts, 1-D arrays, ranges) into a
  :class:`LevelView`, with ``None`` for shapes the typed representation
  cannot hold (tuple or float keys, ragged depth).
* The NumPy kernels :func:`expand_lanes` / :func:`parent_sum` /
  :func:`lookup_sorted`.  A lookup chooses its regime from its input, like
  :func:`repro.storage.formats.group_sum` does: one gather through a
  position table when the haystack's key range is dense, a ``searchsorted``
  otherwise (:data:`LOOKUP_REGIMES`).
"""

from __future__ import annotations

import importlib.util
import logging
from typing import Any, NamedTuple

import numpy as np

from ..sdqlite.errors import EvaluationError
from ..sdqlite.values import integral_index, is_dictlike, is_scalar, iter_items
from ..storage.formats import _DENSE_CELLS_PER_ENTRY
from ..storage.splice import build_levels, leaf_columns, splice

_LOG = logging.getLogger("repro.execution")

__all__ = [
    "HAVE_NUMBA",
    "HEAP_KEPT",
    "LOOKUP_REGIMES",
    "BufferLevels",
    "BufferDict",
    "LevelView",
    "to_buffer_levels",
    "expand_lanes",
    "parent_sum",
    "lookup_sorted",
]


# ---------------------------------------------------------------------------
# Kernels
# ---------------------------------------------------------------------------

#: Whether numba is importable.  Reported with the benchmark environment;
#: no kernel uses it — every kernel below is NumPy.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None

#: Lookup regimes of :func:`lookup_sorted`, from the least work to the most.
LOOKUP_REGIMES = ("direct", "search")


def _keep_heap_between_runs() -> bool:
    """Stop glibc handing the kernels' temporaries back after every run.

    A typed execution allocates a few MB of lane-sized arrays and frees them
    all when it returns.  glibc moves its ``mmap``/trim thresholds with the
    largest block freed so far, so whether that much free heap went back to
    the OS — to be faulted in again, page by page, by the next execution:
    ~1000 minor faults, 1.4 ms of a 3.5 ms MMM — depended on what the process
    had allocated before and differed from one process to the next.  Pinning
    both thresholds at the maxima glibc's own adjustment reaches (32 MiB, and
    twice that) makes every run reuse the heap.  A no-op on other allocators.
    """
    try:
        import ctypes

        mallopt = ctypes.CDLL(None).mallopt
    except (ImportError, OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3     # <malloc.h>
    return bool(mallopt(m_mmap_threshold, 32 << 20)
                and mallopt(m_trim_threshold, 64 << 20))


HEAP_KEPT = _keep_heap_between_runs()


def expand_lanes(lo: np.ndarray, counts: np.ndarray):
    """Fan every lane ``i`` out into ``arange(lo[i], lo[i] + counts[i])``.

    Returns ``(parent, positions)``: the lane each new lane came from and the
    concatenated ranges.  Ranges known to be back to back are expanded by
    their caller as one ``arange`` instead.
    """
    lanes = counts.shape[0]
    parent = np.arange(lanes, dtype=np.int64).repeat(counts)
    total = parent.shape[0]
    if total == 0:
        return parent, np.empty(0, dtype=np.int64)
    positions = (lo - (counts.cumsum() - counts))[parent]   # position minus new-lane number
    positions += np.arange(total, dtype=np.int64)
    return parent, positions


def parent_sum(parent: np.ndarray, weights: np.ndarray, size: int) -> np.ndarray:
    """Sum ``weights`` per parent lane: ``out[p] = Σ weights[parent == p]``."""
    if parent.size == 0:
        return np.zeros(size, dtype=np.float64)
    return np.bincount(parent, weights=weights, minlength=size)[:size]


def lookup_sorted(haystack: np.ndarray, queries: np.ndarray,
                  bounds: tuple[int, int] | None = None, tables: dict | None = None):
    """Find every query in a strictly ascending int64 array.

    Returns ``(positions, found, regime)``: ``positions[i]`` is the index of
    ``queries[i]`` in ``haystack`` where ``found[i]``, and ``regime`` names
    how it was found (:data:`LOOKUP_REGIMES`).  ``bounds``, the proven ``(lo, hi)`` of every
    query, widens the position table to cover them when that keeps it
    within the direct regime's size, so no query is scanned or clamped.
    ``tables``, when given, keeps the position table of this very
    ``haystack`` for the next lookup in it (under ``id(haystack)``, with the
    haystack itself, so the ``id`` cannot be recycled).

    * ``"direct"`` — the haystack's key range has at most
      ``_DENSE_CELLS_PER_ENTRY`` cells per haystack and query entry: one
      position table over the range (``-1``: absent) and one gather, so a
      miss's position is -1;
    * ``"search"`` — one ``np.searchsorted``.

    Both regimes find the same positions.
    """
    n, m = haystack.shape[0], queries.shape[0]
    if n == 0:
        return np.full(m, -1, dtype=np.int64), np.zeros(m, dtype=bool), "direct"
    low, high = int(haystack[0]), int(haystack[-1])
    limit = _DENSE_CELLS_PER_ENTRY * (n + m)
    if high - low >= limit:
        pos = np.searchsorted(haystack, queries)
        np.minimum(pos, n - 1, out=pos)
        return pos, haystack[pos] == queries, "search"
    first, last = low, high
    if bounds is not None:
        wide = min(low, bounds[0]), max(high, bounds[1])
        if wide[1] - wide[0] < limit and -(1 << 63) <= wide[0] and wide[1] < (1 << 63):
            first, last = wide
    kept = None if tables is None else tables.get(id(haystack))
    if kept is not None and kept[0] is haystack and kept[2] <= first \
            and last < kept[2] + kept[1].shape[0]:
        _, table, first = kept
    else:
        table = np.empty(last - first + 1, dtype=np.int64)
        table.fill(-1)
        table[haystack - first] = np.arange(n, dtype=np.int64)
        if tables is not None:
            tables[id(haystack)] = (haystack, table, first)
    last = first + table.shape[0] - 1
    if m and (bounds is not None and first <= bounds[0] and bounds[1] <= last
              or first <= int(queries.min()) and int(queries.max()) <= last):
        pos = table[queries - first if first else queries]
        return pos, pos >= 0, "direct"
    # Clamp before subtracting the first key, so no query can overflow.
    inside = (queries >= first) & (queries <= last)
    pos = np.where(inside, table[np.minimum(np.maximum(queries, first), last) - first], -1)
    return pos, pos >= 0, "direct"


# ---------------------------------------------------------------------------
# BufferLevels: the levelized nested-dictionary representation
# ---------------------------------------------------------------------------


class BufferLevels:
    """Levelized columnar storage of an integer-keyed nested dictionary.

    ``keys[d]`` holds the keys of every level-``d`` entry, concatenated in
    parent order and sorted within each parent segment.  ``seg[d]`` maps a
    level-``d-1`` entry ``e`` to its children ``keys[d][seg[d][e]:seg[d][e+1]]``
    (``seg[0]`` is the single root segment).  ``values`` is aligned with the
    deepest level's entries.  The global entry order is therefore
    (parent id, key)-ascending at every level, which is what makes batched
    per-segment lookups a single composite-key :func:`lookup_sorted`.
    """

    __slots__ = ("depth", "keys", "seg", "values", "_parents", "_comps", "_bounds",
                 "_leaf_cols", "_tables", "_padded", "finite")

    def __init__(self, keys: list[np.ndarray], seg: list[np.ndarray],
                 values: np.ndarray):
        self.depth = len(keys)
        self.keys = [np.ascontiguousarray(k, dtype=np.int64) for k in keys]
        self.seg = [np.ascontiguousarray(s, dtype=np.int64) for s in seg]
        self.values = np.ascontiguousarray(values, dtype=np.float64)
        self._parents: dict[int, np.ndarray] = {}
        self._comps: dict[int, tuple] = {}
        self._bounds: dict[int, tuple[int, int]] = {}
        self._leaf_cols: list[np.ndarray] | None = None
        self._tables: dict = {}     # position tables of the composites, made once
        self._padded: np.ndarray | None = None
        self.finite: float | None = None   # a bound on |values|, all finite, if proven

    @classmethod
    def from_sorted_coords(cls, coords: np.ndarray, values: np.ndarray) -> "BufferLevels":
        """Build levels from **unique, lexicographically sorted** coordinates."""
        coords = np.asarray(coords, dtype=np.int64)
        if coords.ndim != 2:
            raise ValueError("coords must be an (n, depth) matrix")
        return cls.from_sorted_columns(list(coords.T), values)

    @classmethod
    def from_sorted_columns(cls, cols: list[np.ndarray], values: np.ndarray) -> "BufferLevels":
        """Build levels from the columns of **unique, lexicographically sorted**
        coordinates (outermost key first), with the storage formats' builder
        (:func:`repro.storage.splice.build_levels`).

        The columns are kept as the leaf coordinates (:meth:`leaf_columns`).
        """
        keys, seg = build_levels(cols, (1,) * len(cols))
        levels = cls([level[0] for level in keys], seg, values)
        levels._leaf_cols = [np.asarray(col, dtype=np.int64) for col in cols]
        return levels

    def parents(self, level: int) -> np.ndarray:
        """Parent entry id (at ``level - 1``) of every level-``level`` entry."""
        cached = self._parents.get(level)
        if cached is None:
            seg = self.seg[level]
            cached = np.repeat(np.arange(seg.shape[0] - 1, dtype=np.int64), np.diff(seg))
            self._parents[level] = cached
        return cached

    def padded_values(self) -> np.ndarray:
        """``values`` and one 0.0 after them, made once: a gather at the
        position -1 of a miss reads 0."""
        if self._padded is None:
            self._padded = np.append(self.values, 0.0)
        return self._padded

    def key_bounds(self, level: int) -> tuple[int, int]:
        """``(kmin, kmax)`` of the keys at ``level`` (``(0, -1)``: none), found
        once."""
        cached = self._bounds.get(level)
        if cached is None:
            keys = self.keys[level]
            cached = (int(keys.min()), int(keys.max())) if keys.size else (0, -1)
            self._bounds[level] = cached
        return cached

    def known_bounds(self, level: int) -> tuple[int, int] | None:
        """:meth:`key_bounds` if already found, else ``None`` (no scan)."""
        return self._bounds.get(level)

    def composite(self, level: int):
        """``(comp, kmin, kmax, big, span)`` for composite-key lookups, or ``None``.

        ``comp = parents(level) * big + (keys[level] - kmin)`` is globally
        ascending, and every parent below ``span`` (one past the last parent
        with children) has a composite below ``span * big < 2**62``; ``None``
        when that bound fails (the backend then falls back to its Python
        loop).
        """
        cached = self._comps.get(level)
        if cached is None:
            keys = self.keys[level]
            if keys.size == 0:
                cached = (np.empty(0, dtype=np.int64), 0, -1, 1, 0)
            else:
                kmin, kmax = self.key_bounds(level)
                big = kmax - kmin + 1
                parents = self.parents(level)
                span = int(parents[-1]) + 1
                if span * big < (1 << 62):
                    cached = (parents * big + (keys - kmin), kmin, kmax, big, span)
                else:
                    cached = None
            self._comps[level] = cached
        return cached

    def lookup_level(self, level: int, owner: np.ndarray, keys: np.ndarray,
                     valid: np.ndarray | None = None,
                     key_bounds: tuple[int, int] | None = None):
        """Vectorized per-segment lookup: for every lane, find ``keys[i]``
        among the children of parent entry ``owner[i]`` at ``level``.

        Lanes whose owner has no children there — ``owner < 0`` (empty
        views) or at or past the composite's ``span`` — always miss; an
        owner of -1 needs no mask, as its composites lie below every entry's.
        Returns :func:`lookup_sorted`'s ``(positions, found, regime)``, with
        a miss's position -1, or ``None`` when the composite key overflows.
        Keys whose proven ``key_bounds`` lie inside the level's are not
        compared with them.
        """
        comp_info = self.composite(level)
        if comp_info is None:
            return None
        comp, kmin, kmax, big, span = comp_info
        in_range = (owner >= -1) & (owner < span)
        if key_bounds is None or key_bounds[0] < kmin or key_bounds[1] > kmax:
            in_range &= (keys >= kmin) & (keys <= kmax)
        if valid is not None:
            in_range &= valid
        every = bool(in_range.all())
        if every:
            queries = owner * big + (keys - kmin)
        else:   # mask before multiplying, so no out-of-range lane can overflow
            queries = np.where(in_range, owner, 0) * big \
                + (np.where(in_range, keys, kmin) - kmin)
        # Every query lies in [-big, span * big): a table over that range finds them all.
        pos, found, regime = lookup_sorted(comp, queries, (-big, span * big - 1),
                                           self._tables)
        if every and regime == "direct":
            return pos, found, regime
        found &= in_range
        return np.where(found, pos, -1), found, regime

    def leaf_columns(self) -> list[np.ndarray]:
        """The full coordinate of every leaf entry, one column per level."""
        if self._leaf_cols is None:
            self._leaf_cols = leaf_columns([[level] for level in self.keys], self.seg)
        return self._leaf_cols

    def leaf_coords(self) -> np.ndarray:
        """The full coordinate of every leaf entry, as an ``(nnz, depth)`` matrix."""
        return np.stack(self.leaf_columns(), axis=1) if self.values.size else \
            np.empty((0, self.depth), dtype=np.int64)

    def merge(self, other: "BufferLevels") -> "BufferLevels | None":
        """``self ⊕ other`` as new levels: ``other``'s leaves spliced into ``self``.

        Leaves under the same coordinate add (``self``'s value first) and
        exact cancellations drop (:func:`repro.storage.splice.splice`: ``other``
        is located level by level in ``self``, whose arrays are edited, not
        rebuilt, and shared where the merge leaves them unchanged).  Interior
        entries without leaves — semiring zeros — are not carried over.
        ``None`` when the depths differ.
        """
        if self.depth != other.depth:
            return None
        keys, seg, values, _ = splice([[level] for level in self.keys], self.seg,
                                   self.values, other.leaf_columns(), other.values,
                                   canonical=True)
        return BufferLevels([level[0] for level in keys], seg, values)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])


class LevelView(NamedTuple):
    """A contiguous span of entries at one level of a :class:`BufferLevels`."""

    levels: BufferLevels
    level: int
    lo: int
    hi: int

    def __len__(self) -> int:
        return self.hi - self.lo


# ---------------------------------------------------------------------------
# BufferDict: the lazy dictionary view handed back as a typed result
# ---------------------------------------------------------------------------


class BufferDict:
    """A dictionary view over one node of a :class:`BufferLevels`.

    Behaves like a read-only semiring dictionary: ``items()`` yields
    ``(int key, float | BufferDict)`` pairs and ``get`` is a binary search,
    so the generic value helpers (``iter_items`` / ``lookup`` / ``to_plain``
    / ``v_add``) consume it without conversion.  The ``result_to_*`` helpers
    in :mod:`repro.execution.engine` special-case root views and scatter the
    leaf buffer straight into a dense array instead of iterating.
    """

    __slots__ = ("levels", "level", "lo", "hi")

    def __init__(self, levels: BufferLevels, level: int = 0,
                 lo: int = 0, hi: int | None = None):
        self.levels = levels
        self.level = level
        self.lo = int(lo)
        self.hi = int(levels.keys[level].shape[0] if hi is None else hi)

    @property
    def is_root(self) -> bool:
        return (self.level == 0 and self.lo == 0
                and self.hi == self.levels.keys[0].shape[0])

    def _entry_value(self, entry: int):
        levels = self.levels
        if self.level == levels.depth - 1:
            return float(levels.values[entry])
        seg = levels.seg[self.level + 1]
        return BufferDict(levels, self.level + 1, int(seg[entry]), int(seg[entry + 1]))

    def items(self):
        keys = self.levels.keys[self.level]
        for entry in range(self.lo, self.hi):
            yield int(keys[entry]), self._entry_value(entry)

    def keys(self):
        return [int(k) for k in self.levels.keys[self.level][self.lo:self.hi]]

    def get(self, key, default=0):
        index = integral_index(key)
        if index is None or self.hi <= self.lo:
            return default
        keys = self.levels.keys[self.level]
        pos = self.lo + int(np.searchsorted(keys[self.lo:self.hi], index))
        if pos < self.hi and int(keys[pos]) == index:
            return self._entry_value(pos)
        return default

    def __getitem__(self, key):
        return self.get(key, 0)

    def __contains__(self, key) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel

    def __len__(self) -> int:
        return max(0, self.hi - self.lo)

    def __bool__(self) -> bool:
        return self.hi > self.lo

    def __iter__(self):
        return iter(self.keys())

    def __eq__(self, other):
        from ..sdqlite.values import to_plain

        if is_scalar(other) and other == 0:
            return len(self) == 0
        if not is_dictlike(other):
            return NotImplemented
        return to_plain(self) == to_plain(other)

    def __hash__(self):  # pragma: no cover - dictionaries are not hashable
        raise TypeError("BufferDict is not hashable")

    def __repr__(self) -> str:
        entries = self.hi - self.lo
        return (f"BufferDict(level={self.level}, entries={entries}, "
                f"depth={self.levels.depth - self.level})")

    def to_dict(self) -> dict:
        from ..sdqlite.values import to_plain

        return to_plain(self)

    def scatter_into(self, out: np.ndarray) -> None:
        """Write every leaf into a dense array in one vectorized scatter.

        Only valid for root views whose depth equals ``out.ndim``; keys index
        ``out`` exactly like the per-entry ``out[key] = value`` loop of the
        generic ``result_to_*`` helpers (negative keys wrap, oversized keys
        raise).
        """
        if not self.is_root or self.levels.depth != out.ndim:
            raise ValueError("scatter_into requires a root view of matching rank")
        if self.levels.values.size:
            out[tuple(self.levels.leaf_columns())] = self.levels.values


# ---------------------------------------------------------------------------
# Conversion of runtime collections to buffer levels
# ---------------------------------------------------------------------------


def levels_from_mapping(value: Any) -> BufferLevels | None:
    """Levelize a nested dictionary-like value; ``None`` when not representable.

    Representable values have integral keys on every level, uniform nesting
    depth, and scalar leaves.  Leaf zeros are **kept** (iterating a stored
    zero entry must still bind its key), so conversion is exact for
    iteration; tuple keys, float keys, ragged depth and non-scalar leaves
    all return ``None`` and the backend falls back to a Python loop.
    """
    keys_per_level: list[list[int]] = []
    counts_per_level: list[list[int]] = []
    leaf_values: list[float] = []
    leaf_depth: list[int | None] = [None]

    def walk(node, depth: int) -> bool:
        try:
            pairs = []
            for key, item in iter_items(node):
                index = integral_index(key)
                if index is None:
                    return False
                pairs.append((index, item))
        except (EvaluationError, TypeError, ValueError) as exc:
            # Not a dictionary (EvaluationError), or an ``items()`` that does
            # not yield key/value pairs; anything else is a real failure.
            _LOG.debug("%s is not levelizable (%s: %s); its loop runs untyped",
                       type(node).__name__, type(exc).__name__, exc)
            return False
        pairs.sort(key=lambda pair: pair[0])
        while len(keys_per_level) <= depth:
            keys_per_level.append([])
            counts_per_level.append([])
        for index, item in pairs:
            keys_per_level[depth].append(index)
            if is_scalar(item):
                if leaf_depth[0] is None:
                    leaf_depth[0] = depth
                if leaf_depth[0] != depth:
                    return False
                counts_per_level[depth].append(0)
                leaf_values.append(float(item))
            else:
                if leaf_depth[0] is not None and leaf_depth[0] == depth:
                    return False
                before = len(keys_per_level[depth + 1]) \
                    if len(keys_per_level) > depth + 1 else 0
                if not walk(item, depth + 1):
                    return False
                after = len(keys_per_level[depth + 1])
                counts_per_level[depth].append(after - before)
        return True

    if not walk(value, 0):
        return None
    if leaf_depth[0] is None:
        if not any(keys_per_level):
            # Entirely empty: identify with the semiring zero (depth 1,
            # no entries).
            return BufferLevels([np.empty(0, dtype=np.int64)],
                                [np.array([0, 0], dtype=np.int64)],
                                np.empty(0, dtype=np.float64))
        # Chains of dicts with no scalar leaf ({1: {}}): every keyed level
        # is structural and the deepest level is empty everywhere.
        depth = len(keys_per_level)
    else:
        depth = leaf_depth[0] + 1
    if any(keys_per_level[d] for d in range(depth, len(keys_per_level))):
        return None
    if len(leaf_values) != len(keys_per_level[depth - 1]):
        # Mixed scalar / empty-dict siblings at the leaf level would
        # misalign values with keys; fall back to the Python path.
        return None
    keys = [np.asarray(keys_per_level[d], dtype=np.int64) for d in range(depth)]
    segs = [np.array([0, len(keys_per_level[0])], dtype=np.int64)]
    for d in range(depth - 1):
        segs.append(np.concatenate([
            np.zeros(1, dtype=np.int64),
            np.cumsum(np.asarray(counts_per_level[d], dtype=np.int64)),
        ]))
    return BufferLevels(keys, segs, np.asarray(leaf_values, dtype=np.float64))


def to_buffer_levels(value: Any) -> LevelView | None:
    """A :class:`LevelView` over any dictionary-like collection, else ``None``."""
    if isinstance(value, BufferDict):
        return LevelView(value.levels, value.level, value.lo, value.hi)
    levels = levels_from_mapping(value)
    if levels is None:
        return None
    return LevelView(levels, 0, 0, levels.keys[0].shape[0])
