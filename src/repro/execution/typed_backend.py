"""Typed-buffer compiled execution of physical SDQLite plans.

The execution backend (``backend="typed"``, the default everywhere; the
reference interpreter is the only other one).  A ``sum`` loop is evaluated
as one batched array expression over its iteration space — one *lane* per
iteration — and what is nested inside a batched body stays batched
(``docs/backends.md`` has the whole lowering table):

* every stored input, and every per-lane dictionary a batched body reads, is
  a :class:`TWindow` (a dictionary the body built, an entry bag, is grouped
  into one first) — entries ``[lo, hi)`` of one stored level, *dense*
  (1-D arrays, ranges and their slices: key = position) or *compressed*
  (the levels of :mod:`repro.execution.buffers`: one sorted int64 key array
  per nesting level, segment pointers and a float64 leaf array).  Iterating
  a window fans each lane out into its entries (``expand_lanes``); a
  lookup in it is a gather (dense) or one lookup of a composite (parent,
  key) integer over the level's order (compressed); an enclosing binding
  is gathered onto the expanded lanes only when the body reads it,
* integer lanes carry what is proven about them — bounds, and being a run
  ``start:start+n`` or ``array[s:s+n]`` — from ranges, ``+ c`` and the facts
  the storage declares (:mod:`repro.storage.facts`): a guard they decide is
  one boolean, a gather they bound scans nothing, a lookup with a run of
  keys is a view, and a traversal ``P(s):P(s+1)`` of a non-decreasing ``P``
  is one position range; float lanes read from an array declared finite
  carry a bound on their magnitude, so a product of proven-finite factors
  skips the scan for ``0 * inf``,
* a ``sum`` over ``T(P(e):P(e + 1))`` whose body reads only its own two
  binders is answered from a table of its value per segment of ``P``,
* ``merge`` over flat scalar-valued collections is a value-sorted join,
* dictionary-shaped loop bodies accumulate as flat (coords, values) entry
  bags reduced by one order-aware group-by-sum
  (:func:`repro.storage.formats.group_sum`) into a lazy
  :class:`~repro.execution.buffers.BufferDict`, or, at the root of a run
  asked for a dense shape, summed straight into the array
  (:class:`DenseResult`).

Each node is lowered once for the lane mode it runs in (:class:`_Lowerer`):
a node that reads a binder of an enclosing batched ``sum`` is *lane-wise*,
every other node is lane-invariant and gets the plain closure of the
interpreter's semantics, so a run checks nothing lowering already knew.  A
run binds every global the plan reads once, in a prologue.

Every kernel is NumPy, and a loop runs as the plan says: an equality probe
the optimizer left (:data:`repro.core.strategies.PROBE_TRANSFORMS`) is
iterated.  Anything the typed representation cannot hold
(tuple or non-integral float dictionary keys, ragged nesting, value types
that only exist mid-expression) raises :class:`Untyped`; the nearest
enclosing non-batched ``sum`` (or ``merge``) then falls back to a plain
Python loop — inside which nested sums get a fresh chance to batch — so the
backend executes every plan the interpreter executes, with identical
results.  The fallbacks and why (``fallback_reasons``) are reported through
the optional ``stats`` sink (see :class:`TypedPlan`) and as debug events on
``logging.getLogger("repro.execution")``.
"""

from __future__ import annotations

import logging
import math
import operator
import threading
from functools import partial
import weakref
from collections import Counter
from dataclasses import dataclass
from typing import Any, Callable, Mapping

import numpy as np

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
    contains,
    symbols,
)
from ..sdqlite.debruijn import free_indices
from ..sdqlite.errors import EvaluationError, ExecutionError
from ..sdqlite.values import (
    RangeDict,
    Scalar,
    SemiringDict,
    SliceDict,
    integral_index,
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
from ..sdqlite.pretty import pretty
from ..storage.formats import GROUP_REGIMES, group_sum
from ..storage.physical import PhysicalArray, PhysicalHashMap, PhysicalTrie
from .buffers import (
    LOOKUP_REGIMES,
    BufferDict,
    BufferLevels,
    expand_lanes,
    lookup_sorted,
    parent_sum,
    to_buffer_levels,
)
from .profile import ExecutionProfile

__all__ = ["typed_plan", "TypedPlan", "DenseResult", "Untyped"]

_log = logging.getLogger("repro.execution")

COMPARATORS = {
    "==": operator.eq,
    "!=": operator.ne,
    "<": operator.lt,
    "<=": operator.le,
    ">": operator.gt,
    ">=": operator.ge,
}

#: Lane-count ceiling for cross-product expansion of a loop-invariant source
#: inside a batched body (outer lanes × inner entries).  Beyond it the sum
#: falls back rather than materialize huge intermediates.
_EXPANSION_CAP = 1 << 23

#: The largest magnitude bound a lane keeps as proof that it is finite.
#: Far below the float64 maximum (~1.8e308), so the rounding of the bounds'
#: own products and sums cannot hide an overflow.
_FINITE_LIMIT = 1e300

_I64 = np.dtype(np.int64)
_F64 = np.dtype(np.float64)


class Untyped(Exception):
    """Raised when a construct has no typed-buffer representation.

    Caught by the nearest enclosing non-batched ``sum``/``merge``, which
    falls back to a Python loop (re-creating the interpreter's behaviour,
    including its error behaviour, exactly).
    """


# ---------------------------------------------------------------------------
# Batched value representations
# ---------------------------------------------------------------------------


class TBatch:
    """A scalar per lane: one NumPy array over the current lane space.

    Lanes may carry what is proven about them, never found by a scan:
    ``bounds`` ``(lo, hi)`` when every (integer) lane lies in ``[lo, hi]``,
    ``run`` ``(source, start, fact)`` when the lanes are
    ``source[start:start + n]`` (``source`` ``None``: ``arange(start, start
    + n)``; ``fact`` the source's declared fact or ``None``), and ``finite``
    a bound on the magnitude of every lane, all of them finite.
    """

    __slots__ = ("data", "bounds", "run", "finite")

    def __init__(self, data: np.ndarray, bounds: tuple[int, int] | None = None,
                 run: tuple | None = None, finite: float | None = None):
        self.data = data
        self.bounds = bounds
        self.run = run
        self.finite = finite

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TBatch({self.data!r})"


@dataclass(slots=True, eq=False)
class TWindow:
    """Entries ``[lo, hi)`` of one stored level: once (a *root* window, what
    :func:`_stored` makes of a stored input, with ``int`` bounds) or per lane.

    A *dense* level (``levels`` ``None``) keys an entry by its position and
    holds ``target[position]`` (``target`` ``None``: the key itself, a
    range); ``fact`` is what the storage declares about ``target``.  A
    *compressed* level is ``levels.keys[level]``; above the
    deepest level an entry's value is the window of its children.  A
    compressed per-lane window holds the children of entry ``owner[i]`` at
    ``level - 1`` (``< 0``: none) and reads its bounds from
    ``levels.seg[level]`` only when it is iterated (:meth:`bounds`), so a
    window that is only probed gathers nothing.  ``scale`` multiplies the
    values per lane, so ``c * d`` copies no buffer.  ``span`` ``(first,
    end)``, when proven, holds every key of a dense window in ``[first,
    end)``; ``contiguous`` that the lanes' windows are back to back
    (``hi[i] == lo[i + 1]``) and none is negative — a full traversal of a
    segment array — or, of a root window, that it is a whole stored array.
    """

    lo: Any
    hi: Any
    target: np.ndarray | None = None
    span: tuple[int, int] | None = None
    contiguous: bool = False
    levels: BufferLevels | None = None
    level: int = 0
    owner: np.ndarray | None = None
    scale: np.ndarray | None = None
    fact: Any = None

    def bounds(self) -> tuple[np.ndarray, np.ndarray]:
        """The per-lane ``lo``/``hi``."""
        if self.lo is None:
            seg, owner = self.levels.seg[self.level], self.owner
            if owner.shape[0] and int(owner.min()) >= 0:
                self.lo, self.hi = seg[owner], seg[owner + 1]
            else:   # a lane holding the empty dictionary has an empty window
                safe = np.maximum(owner, 0)
                self.lo = seg[safe]
                self.hi = np.where(owner >= 0, seg[np.minimum(safe + 1, seg.shape[0] - 1)],
                                   self.lo)
        return self.lo, self.hi

    def select(self, lanes: np.ndarray) -> "TWindow":
        """The windows of the lanes ``lanes`` indexes."""
        scale = None if self.scale is None else self.scale[lanes]
        if self.levels is None:
            return TWindow(self.lo[lanes], self.hi[lanes], self.target, scale=scale,
                           span=self.span, fact=self.fact)
        return TWindow(None, None, levels=self.levels, level=self.level,
                       owner=self.owner[lanes], scale=scale)

    def masked(self, keep: np.ndarray, scale: np.ndarray | None = None) -> "TWindow":
        """The windows of the lanes ``keep`` marks, empty on the others, with
        the values times ``scale`` too."""
        if scale is None:
            scale = self.scale
        elif self.scale is not None:
            scale = _product(self.scale, scale)
        if self.levels is None:
            return TWindow(np.where(keep, self.lo, 0), np.where(keep, self.hi, 0),
                           self.target, scale=scale, span=self.span, fact=self.fact)
        return TWindow(None, None, levels=self.levels, level=self.level,
                       owner=np.where(keep, self.owner, -1), scale=scale)


@dataclass(slots=True, eq=False)
class TFlat:
    """A dictionary per lane while a batched body builds it: a bag of
    (coords, value) entries.

    ``cols`` are int64 coordinate columns (outermost key first), ``vals``
    float64, ``rows`` the owning lane of each entry, ``bounds`` the proven
    ``(lo, hi)`` of each column or ``None``, ``every_lane`` that the
    entries are the lanes in order (``rows`` is ``arange(lanes)``), so a
    per-lane array needs no gather onto them, and ``finite`` a bound on the
    magnitude of the values, all finite, when proven.  Semiring addition is
    concatenation; duplicate coordinates are resolved by a group-by-sum,
    matching the interpreter's ``v_add`` exactly: the reduction's, or
    :func:`_bag_window`'s when the bag is read (iterated, looked up or
    re-indexed) through its per-lane window.
    """

    cols: list
    vals: np.ndarray
    rows: np.ndarray
    bounds: list
    every_lane: bool = False
    finite: float | None = None


def _is_batched(value) -> bool:
    return isinstance(value, (TBatch, TWindow, TFlat))


def _is_dict_batched(value) -> bool:
    return isinstance(value, (TWindow, TFlat))


class DenseResult:
    """A run's value already accumulated into the dense array its caller
    asked for (see :meth:`TypedPlan.__call__`)."""

    __slots__ = ("array",)

    def __init__(self, array: np.ndarray):
        self.array = array


class _Runtime:
    """Per-execution state threaded through the closures.

    The counters start from the class defaults, and what a run may never
    need — memoized invariants, failed batches, fallbacks, walked
    collections and the regime counters — is allocated when first used.
    """

    lanes = 0
    invariants: dict | None = None      # memo slot -> value of a closed subplan
    failed_batch: set | None = None     # sums whose typed attempt failed this run
    fallbacks: dict | None = None       # sum/merge that ran a Python loop -> why
    buffers: dict | None = None         # id(obj) -> (obj, LevelView | None)
    regimes: Counter | None = None      # group-by regime -> reductions that took it
    lookups: Counter | None = None      # lookup regime -> batched lookups that took it
    dense_sinks = 0
    relayouts_built = 0                 # kept re-layouts this run computed ...
    relayouts_reused = 0                # ... and took from an earlier run
    levelized = 0                       # collections this run walked into levels
    proven_guards = 0                   # checks the lanes' proven bounds decided
    contiguous_reads = 0                # gathers and expansions read as one slice
    segment_tables = 0                  # sums answered from a per-segment table

    def __init__(self, env: Mapping[str, Any], profile=None,
                 dense_shape: tuple[int, ...] | None = None, views: list | None = None):
        self.env = env
        self.facts = getattr(env, "facts", None) or {}   # id(array) -> ArrayFact
        self.views = views                 # prefix slot -> its root window, once made
        self.profile = profile             # optional ExecutionProfile (loop counts)
        self.dense_shape = dense_shape     # the root reduction's dense sink, if any


_Closure = Callable[[list, _Runtime], Any]


def _count_regime(rt: _Runtime, regime: str) -> None:
    if rt.regimes is None:
        rt.regimes = Counter()
    rt.regimes[regime] += 1


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _num(data: np.ndarray) -> np.ndarray:
    """Promote bool arrays for arithmetic (``True + True`` must be 2, not OR)."""
    return data.astype(np.int64) if data.dtype.kind == "b" else data


def _lane_bounds(value) -> tuple[int, int] | None:
    """The proven bounds of a per-lane integer operand: a :class:`TBatch`'s, or
    an integer scalar's own value."""
    if value.__class__ is TBatch:
        return value.bounds
    if value.__class__ is int:
        return value, value
    if isinstance(value, (int, np.integer)):
        return int(value), int(value)
    return None


def _lane_data(value):
    """Unwrap a scalar-or-:class:`TBatch` operand for element-wise ops."""
    if value.__class__ is TBatch:
        return value.data
    if isinstance(value, Scalar):
        return value
    raise Untyped(f"non-scalar operand of type {type(value).__name__} in batched body")


def _lane_num(value):
    if value.__class__ is TBatch:
        return _num(value.data)
    return _lane_data(value)


def _magnitude(value) -> float | None:
    """A bound on ``|value|`` on every lane when every lane is proven finite."""
    if value.__class__ is TBatch:
        return value.finite
    if isinstance(value, Scalar):
        try:
            bound = abs(float(value))
        except OverflowError:
            return None
        return bound if bound <= _FINITE_LIMIT else None
    return None


def _times(left: float | None, right: float | None) -> float | None:
    """The magnitude bound of a product (or of a sum of ``right`` terms)."""
    if left is None or right is None:
        return None
    bound = left * right
    return bound if bound <= _FINITE_LIMIT else None


def _product(left, right, proven: bool = False) -> np.ndarray:
    """``left * right`` per lane, with a zero factor annihilating as in
    ``v_mul``: ``0 * inf`` and ``0 * nan`` are 0, not NaN.  ``proven``: both
    factors are proven finite, so no lane can be NaN and nothing is scanned."""
    product = left * right
    if not proven and product.dtype.kind == "f" and np.isnan(product).any():
        product = np.where((left == 0) | (right == 0), 0.0, product)
    return product


def _int_lanes(data: np.ndarray):
    """``(int64 keys, valid-mask | None)`` for a per-lane key array.

    Integral lanes convert exactly; non-integral / non-finite float lanes are
    flagged invalid (they can never hit an integer-keyed container).
    """
    if data.dtype.kind in "biu":
        return data.astype(np.int64, copy=False), None
    if data.dtype.kind == "f":
        finite = np.isfinite(data) & (np.abs(data) < float(1 << 62))
        ok = finite & (np.mod(data, 1) == 0)
        ints = np.where(ok, data, 0).astype(np.int64)
        return ints, (None if bool(ok.all()) else ok)
    raise Untyped(f"cannot use dtype {data.dtype} as dictionary keys")


def _trunc_lanes(value, lanes: int) -> np.ndarray:
    """Per-lane ``int()`` truncation for range/slice bounds."""
    if value.__class__ is TBatch:
        data = value.data
        if data.dtype is _I64:
            return data
        if data.dtype.kind in "biu":
            return data.astype(np.int64)
        if data.dtype.kind == "f":
            if not (np.all(np.isfinite(data)) and np.all(np.abs(data) < float(1 << 62))):
                raise Untyped("non-finite range bound in batched body")
            return np.trunc(data).astype(np.int64)
        raise Untyped(f"cannot use dtype {data.dtype} as a range bound")
    if isinstance(value, Scalar):
        try:
            bound = int(value)
        except (ValueError, OverflowError):
            raise Untyped("non-finite range bound") from None
        return np.full(lanes, bound, dtype=np.int64)
    raise Untyped("range bound is not a scalar")


def _array(value) -> np.ndarray | None:
    """The 1-D array a stored input is, else ``None``."""
    if isinstance(value, PhysicalArray):
        value = value.data
    return value if isinstance(value, np.ndarray) and value.ndim == 1 else None


def _fact(rt: _Runtime, array: np.ndarray):
    """The declared :class:`~repro.storage.facts.ArrayFact` of this very array."""
    fact = rt.facts.get(id(array))
    return fact if fact is not None and fact.array is array else None


def _stored(rt: _Runtime, value) -> TWindow | None:
    """The root window of a stored input, ``None`` when it has none.

    A 1-D array, a range and a slice of a 1-D array are dense, with the
    array's declared fact; any other collection is a compressed level: a
    :class:`BufferDict`'s own, a stored hash-map's or trie's levelized view
    (built once, by
    :meth:`~repro.storage.physical.PhysicalHashMap.level_view`), or else one
    :func:`to_buffer_levels` walk per run, cached with a strong reference to
    the source, so an ``id()`` cannot be recycled into a stale hit mid-run.
    ``rt.levelized`` counts the walks.
    """
    if isinstance(value, PhysicalArray):
        value = value.data
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return TWindow(0, value.shape[0], value, None, True, fact=_fact(rt, value))
    if isinstance(value, RangeDict):
        return TWindow(value.lo, value.hi)
    if isinstance(value, SliceDict):
        array = _array(value.target)
        if array is not None:
            return TWindow(value.lo, value.hi, array, fact=_fact(rt, array))
    if isinstance(value, BufferDict):
        return TWindow(value.lo, value.hi, levels=value.levels, level=value.level)
    if isinstance(value, (PhysicalHashMap, PhysicalTrie)):
        rt.levelized += not value.levelized
        view = value.level_view()
    else:
        if rt.buffers is None:
            rt.buffers = {}
        hit = rt.buffers.get(id(value))
        if hit is None:
            rt.levelized += 1
            hit = rt.buffers[id(value)] = (value, to_buffer_levels(value))
        view = hit[1]
    if view is None:
        return None
    return TWindow(view.lo, view.hi, levels=view.levels, level=view.level)


def _sym_window(rt: _Runtime, frames: list, slot: int):
    """The root window of the global at prefix ``slot`` (``False``: it has
    none), made by :func:`_stored` once per run.  The run's prologue makes
    the windows of stored arrays; callers look in ``rt.views`` first."""
    window = rt.views[slot] = _stored(rt, frames[slot]) or False
    return window


# ---------------------------------------------------------------------------
# Lane re-indexing, flattening and reduction
# ---------------------------------------------------------------------------


class _LaneMap:
    """A ``new -> old`` lane map across one or more expansions.

    ``step`` maps the newest lanes to the lanes before that expansion and
    ``outer`` those lanes further out; the composition is one gather, made
    the first time a binding from that far out is read.
    """

    __slots__ = ("step", "outer", "_index")

    def __init__(self, step: np.ndarray, outer: "_LaneMap | None" = None):
        self.step = step
        self.outer = outer
        self._index = step if outer is None else None

    @property
    def index(self) -> np.ndarray:
        if self._index is None:
            self._index = self.outer.index[self.step]
        return self._index


class _Deferred:
    """An enclosing binding not yet gathered onto the current lane space.

    Only a read of the binder forces it; one that the body never reads is
    never expanded.
    """

    __slots__ = ("value", "lanes", "forced")

    def __init__(self, value, lanes: _LaneMap):
        self.value = value
        self.lanes = lanes
        self.forced = None

    def force(self, rt: "_Runtime"):
        if self.forced is None:
            lanes = self.lanes
            self.forced = _reindex(rt, self.value, lanes._index if lanes._index is not None
                                   else lanes.index)
        return self.forced


def _defer(frames: list, reads: tuple, parent: np.ndarray) -> None:
    """Map, in place, the enclosing lane bindings an expanded body reads onto
    the lanes a ``parent`` expansion creates (each is gathered when first
    read, :class:`_Deferred`).

    ``reads`` are ``(position, deferred)`` pairs fixed when lowering:
    ``deferred`` marks a binding of a lane space further out, already a
    :class:`_Deferred`, whose lane map gains one more step.
    """
    step = _LaneMap(parent)
    chains: dict[int, _LaneMap] = {}    # id(map to the current lanes) -> map to the new ones
    for position, deferred in reads:
        frame = frames[position]
        if not deferred:
            frames[position] = _Deferred(frame, step)
        elif frame.forced is not None:
            frames[position] = _Deferred(frame.forced, step)
        else:
            chain = chains.get(id(frame.lanes))
            if chain is None:
                chain = chains[id(frame.lanes)] = _LaneMap(parent, frame.lanes)
            frames[position] = _Deferred(frame.value, chain)


def _reindex(rt: _Runtime, value, parent: np.ndarray):
    """Re-map a per-lane value onto an expanded lane space (``new -> old``)."""
    if value.__class__ is TBatch:
        return TBatch(value.data[parent], value.bounds, None, value.finite)
    if isinstance(value, TFlat):
        value = _bag_window(rt, value, int(parent.max()) + 1 if parent.shape[0] else 0)
    if isinstance(value, TWindow):
        return value.select(parent)
    return value


def _all_inside(keys: np.ndarray, size: int) -> bool:
    """True when every key is a position of a ``size``-entry array."""
    return keys.shape[0] == 0 or (int(keys.min()) >= 0 and int(keys.max()) < size)


def _within(bounds: tuple[int, int] | None, lo, hi) -> bool:
    """Whether proven ``bounds`` lie inside ``[lo, hi]``."""
    return bounds is not None and bounds[0] >= lo and bounds[1] <= hi


def _decide(op: str, left, right) -> bool | None:
    """The value of ``left op right`` on every lane, when the operands'
    proven bounds decide it; ``None`` when they do not."""
    if left is None or right is None:
        return None
    if op in (">", ">="):
        op, left, right = ("<" if op == ">" else "<="), right, left
    (llo, lhi), (rlo, rhi) = left, right
    if op == "<":
        return True if lhi < rlo else False if llo >= rhi else None
    if op == "<=":
        return True if lhi <= rlo else False if llo > rhi else None
    equal = True if llo == lhi == rlo == rhi else False if lhi < rlo or rhi < llo else None
    return equal if equal is None or op == "==" else not equal


def _int64_bounds(lo: int, hi: int) -> tuple[int, int] | None:
    """``(lo, hi)`` when int64 lanes between them cannot have wrapped around."""
    return (lo, hi) if -(1 << 63) <= lo and hi < (1 << 63) else None


def _gather(target: np.ndarray | None, keys: np.ndarray):
    """Bounds-checked gather; out-of-range positions read 0, like ``lookup``."""
    if target is None:
        return keys
    size = target.shape[0]
    if size == 0:
        return np.zeros(keys.shape[0], dtype=np.float64)
    if _all_inside(keys, size):
        return _num(target[keys])
    valid = (keys >= 0) & (keys < size)
    return np.where(valid, _num(target[np.minimum(np.maximum(keys, 0), size - 1)]), 0)


def _read(rt: _Runtime, target: np.ndarray | None, fact, keys: TBatch,
          next_entry: bool = False) -> TBatch:
    """:func:`_gather` of the per-lane positions ``keys``, using what is proven.

    Keys that are a run ``start:start+n`` inside ``target`` read the view
    ``target[start:start+n]``; keys proven inside it are gathered with no
    bounds scan.  Either way the lanes carry what ``fact`` (``target``'s
    declared fact, or ``None``) proves: bounds, and a finite magnitude.
    ``next_entry`` reads at the int64 ``keys + 1`` (the ``P(e + 1)`` of a
    segment), exactly as a read of those keys would, without making them
    unless the bounds prove nothing.
    """
    if target is None:
        return keys
    if fact is None:
        bounds = finite = None
    else:
        bounds = None if fact.lo is None else (fact.lo, fact.hi)
        finite = fact.finite
    size = target.shape[0]
    if size:
        run, lanes = keys.run, keys.data.shape[0]
        if run is not None and run[0] is None and 0 <= run[1] + next_entry \
                and run[1] + next_entry + lanes <= size:
            rt.contiguous_reads += 1
            start = run[1] + next_entry
            values = target[start:start + lanes]
            if values.dtype.kind == "b":
                values = values.astype(np.int64)
            return TBatch(values, bounds, (target, start, fact), finite)
        proven = keys.bounds
        if proven is not None and proven[0] + next_entry >= 0 \
                and proven[1] + next_entry < size:
            rt.proven_guards += 1
            if not next_entry:
                values = target[keys.data]
            elif proven[0] >= 0:
                values = target[1:][keys.data]
            else:
                values = target[keys.data + 1]
            if values.dtype.kind == "b":
                values = values.astype(np.int64)
            return TBatch(values, bounds, None, finite)
    return TBatch(_gather(target, keys.data + 1 if next_entry else keys.data),
                  None, None, finite)


def _batched_slice(rt: _Runtime, target: np.ndarray | None, fact, lo, hi) -> TWindow:
    """``target(lo:hi)`` (the range ``lo:hi`` when ``target`` is ``None``) with
    bounds per lane, and what they prove: the span of its keys, and whether
    it is ``P(s):P(s+1)`` over a run ``s`` and a ``P`` declared non-decreasing.
    ``fact`` is ``target``'s declared fact.
    """
    if lo.__class__ is TBatch and hi.__class__ is TBatch \
            and lo.data.dtype is _I64 and hi.data.dtype is _I64:
        lo_lanes, hi_lanes, lo_bounds, hi_bounds = lo.data, hi.data, lo.bounds, hi.bounds
    else:
        lo_lanes, hi_lanes = _trunc_lanes(lo, rt.lanes), _trunc_lanes(hi, rt.lanes)
        lo_bounds, hi_bounds = _lane_bounds(lo), _lane_bounds(hi)
    span = None if lo_bounds is None or hi_bounds is None else (lo_bounds[0], hi_bounds[1])
    contiguous = False
    if lo.__class__ is TBatch and hi.__class__ is TBatch \
            and lo.run is not None and hi.run is not None:
        (source, start, source_fact), (hi_source, hi_start, _) = lo.run, hi.run
        contiguous = (source is not None and hi_source is source and hi_start == start + 1
                      and source_fact is not None and source_fact.ordered)
    return TWindow(lo_lanes, hi_lanes, target, span, contiguous, fact=fact)


def _window_entries(rt: _Runtime, window: TWindow):
    """``(parent, keys, values, counts)``: per-lane windows fanned out into
    one lane per entry, ``parent`` mapping each back to its lane.

    A contiguous window — ``P(s):P(s+1)`` over a non-decreasing ``P`` and a
    run of ``s``, or the children of a run of compressed entries — is the one
    range ``lo[0]:hi[-1]``: one ``repeat`` for the parent map and no clamp or
    contiguity scan (:func:`expand_lanes`); a compressed level reads it as
    views.
    """
    lo, hi = (window.lo, window.hi) if window.lo is not None else window.bounds()
    if window.contiguous and lo.shape[0]:
        start, end = int(lo[0]), int(hi[-1])
        counts = hi - lo
        parent = np.arange(counts.shape[0], dtype=np.int64).repeat(counts)
        if window.levels is not None:
            scale = None if window.scale is None else window.scale[parent]
            return (parent, *_entries(rt, window, slice(start, end), scale), counts)
        rt.contiguous_reads += 1
        positions = TBatch(np.arange(start, end, dtype=np.int64), (start, end - 1),
                           (None, start, None))
    else:   # a compressed window's bounds come from a non-decreasing segment array
        counts = hi - lo if window.levels is not None else np.maximum(hi - lo, 0)
        parent, positions = expand_lanes(lo, counts)
        span = window.span
        positions = TBatch(positions, None if span is None else (span[0], span[1] - 1))
    if window.levels is None and window.scale is None:
        return parent, positions, _read(rt, window.target, window.fact, positions), counts
    scale = None if window.scale is None else window.scale[parent]
    return (parent, *_entries(rt, window, positions, scale), counts)


def _entries(rt: _Runtime, window: TWindow, positions, scale: np.ndarray | None = None):
    """``(keys, values)`` of the entries at ``positions`` of ``window``'s level
    (a :class:`TBatch`; a ``slice`` of a compressed level), one per lane and
    each times its ``scale``: a compressed level's values below its deepest
    level are the windows of the entries' children, back to back when the
    entries are a run."""
    levels = window.levels
    if levels is None:
        keys, values = positions, _read(rt, window.target, window.fact, positions)
    else:
        pos = positions.data if positions.__class__ is TBatch else positions
        keys = TBatch(levels.keys[window.level][pos], levels.known_bounds(window.level))
        if window.level < levels.depth - 1:
            lo = hi = None
            if not isinstance(pos, np.ndarray):   # a whole run of entries: bounds are views
                seg = levels.seg[window.level + 1]
                lo, hi = seg[pos.start:pos.stop], seg[pos.start + 1:pos.stop + 1]
                pos = np.arange(pos.start, pos.stop, dtype=np.int64)
            return keys, TWindow(lo, hi, contiguous=lo is not None, levels=levels,
                                 level=window.level + 1, owner=pos, scale=scale)
        values = TBatch(levels.values[pos], None, None, levels.finite)
    if scale is not None:
        values = TBatch(_product(values.data, scale))
    return keys, values


def _flatten(rt: _Runtime, value) -> TFlat:
    """The entry bag of a per-lane dictionary: a bag itself, or a window's entries."""
    if isinstance(value, TFlat):
        return value
    if not isinstance(value, TWindow):
        raise Untyped(f"cannot flatten {type(value).__name__}")
    rows, keys, value, _ = _window_entries(rt, value)
    cols, bounds = [keys.data], [keys.bounds]
    while isinstance(value, TWindow):
        parent, keys, value, _ = _window_entries(rt, value)
        rows = rows[parent]
        cols = [col[parent] for col in cols] + [keys.data]
        bounds.append(keys.bounds)
    vals = value.data
    if vals.dtype is not _F64:
        vals = vals.astype(np.float64)
    return TFlat(cols, vals, rows, bounds, finite=value.finite)


def _bag_window(rt: _Runtime, bag: TFlat, lanes: int) -> TWindow:
    """The per-lane window an entry bag is read through.

    The bag is grouped by (lane, keys) — duplicates add in input order, as
    ``v_add`` adds them, and keys that sum to zero drop — into levels whose
    root keys are the lanes; a lane's window holds its root entry's
    children at level 1, or nothing.  The windows cover ``lanes`` lanes and
    every lane the bag has entries on.
    """
    cols = [bag.rows] + bag.cols
    take, sums, regime = group_sum(cols, bag.vals)
    _count_regime(rt, regime)
    if take is not None:
        cols = [col[take] for col in cols]
    levels = BufferLevels.from_sorted_columns(cols, sums)
    levels.finite = _times(bag.finite, bag.vals.shape[0])   # a sum of at most that many
    roots = levels.keys[0]
    if roots.shape[0]:
        lanes = max(lanes, int(roots[-1]) + 1)
    owner = np.full(lanes, -1, dtype=np.int64)
    owner[roots] = np.arange(roots.shape[0], dtype=np.int64)
    return TWindow(None, None, levels=levels, level=1, owner=owner)


def _group_result(rt: _Runtime, cols: list, vals: np.ndarray, finite: float | None = None):
    """Group-by-sum an entry bag into a :class:`BufferDict` (or 0); ``finite``
    bounds the magnitude of ``vals``, and so, times their number, the sums'."""
    take, sums, regime = group_sum(cols, vals)
    _count_regime(rt, regime)
    if sums.size == 0:
        return 0
    if take is None:    # passed through: a result shares no memory with a stored array
        cols, sums = [col.copy() for col in cols], sums.copy()
    else:
        cols = [col[take] for col in cols]
    levels = BufferLevels.from_sorted_columns(cols, sums)
    levels.finite = _times(finite, vals.shape[0])
    return BufferDict(levels)


def _dense_sink(rt: _Runtime, flat: TFlat, shape: tuple[int, ...]):
    """An entry bag summed straight into a dense array of ``shape``.

    ``np.bincount`` adds the values of each cell in input order starting
    from 0.0.  Every :func:`group_sum` regime adds them in the same order
    and drops the keys that sum to zero (``-0.0`` included), which the eager
    path densifies to ``+0.0`` — so the array equals scattering the grouped
    result into zeros bit for bit.  ``None`` when the rank differs or a key
    lies outside ``[0, shape)``: the eager path then keeps its
    wrap-or-raise indexing.  A column whose bounds are proven inside its
    extent is not scanned.
    """
    cols = flat.cols
    if len(cols) != len(shape):
        return None
    flat_keys = None
    for col, bounds, extent in zip(cols, flat.bounds, shape):
        if _within(bounds, 0, extent - 1):
            rt.proven_guards += 1
        elif col.shape[0] and (int(col.min()) < 0 or int(col.max()) >= extent):
            return None
        flat_keys = col if flat_keys is None else flat_keys * extent + col
    sums = np.bincount(flat_keys, weights=flat.vals, minlength=math.prod(shape))
    if sums.dtype is not _F64:  # an empty bag (every lane masked or zero) gives int64
        sums = sums.astype(np.float64)
    return sums.reshape(shape)


def _reduce_lanes(rt: _Runtime, body, lanes: int, root: bool = False):
    """Collapse a batched sum body over *all* lanes into one value.

    The reduction at the ``root`` of a run with a dense shape returns a
    :class:`DenseResult` when :func:`_dense_sink` takes the entry bag.
    """
    if body.__class__ is TBatch:
        return body.data.sum().item()
    if body.__class__ is TFlat or body.__class__ is TWindow:
        flat = body if body.__class__ is TFlat else _flatten(rt, body)
        if root and rt.dense_shape is not None:
            dense = _dense_sink(rt, flat, rt.dense_shape)
            if dense is not None:
                rt.dense_sinks += 1
                return DenseResult(dense)
        return _group_result(rt, flat.cols, flat.vals, flat.finite)
    # Constant across lanes (the body used no batched variable).
    return v_mul(lanes, body)


def _reduce_expanded(rt: _Runtime, body, parent: np.ndarray, out_lanes: int,
                     counts: np.ndarray):
    """Collapse an expanded sum body back onto the outer lane space.  A lane
    sums at most ``parent.shape[0]`` terms, which bounds its magnitude."""
    if body.__class__ is TBatch:
        data, finite = body.data, body.finite
        if finite is not None:
            finite *= parent.shape[0]
        return TBatch(parent_sum(parent, data.astype(np.int64) if data.dtype.kind == "b"
                                 else data, out_lanes), None, None,
                      finite if finite is not None and finite <= _FINITE_LIMIT else None)
    if body.__class__ is TFlat or body.__class__ is TWindow:
        flat = body if body.__class__ is TFlat else _flatten(rt, body)
        return TFlat(flat.cols, flat.vals, parent if flat.every_lane else parent[flat.rows],
                     flat.bounds, finite=flat.finite)
    if isinstance(body, Scalar):
        if is_zero(body):
            return 0
        finite = _magnitude(body)
        return TBatch(_product(counts.astype(np.float64), float(body), finite is not None),
                      None, None, _times(finite, parent.shape[0]))
    # A loop-invariant dictionary summed `counts[i]` times per outer lane.
    return _invariant_lanes(rt, body, counts > 0, counts.astype(np.float64),
                            "loop-invariant dictionary body does not flatten")


def _invariant_lanes(rt: _Runtime, value, keep: np.ndarray, scale: np.ndarray | None,
                     reason: str) -> TWindow:
    """A loop-invariant dictionary per lane: ``value`` on the lanes ``keep``
    marks, its values times ``scale``, and empty on the others.  ``value``
    must be a whole stored level (:class:`Untyped` with ``reason`` if not)."""
    window, lanes = _stored(rt, value), keep.shape[0]
    if window is not None and window.levels is None:
        window = TWindow(np.full(lanes, window.lo), np.full(lanes, window.hi),
                         window.target, span=(window.lo, window.hi), fact=window.fact)
    elif window is not None and window.level == 0 and window.lo == 0 \
            and window.hi == window.levels.keys[0].shape[0]:
        window = TWindow(None, None, levels=window.levels,
                         owner=np.zeros(lanes, dtype=np.int64))
    else:
        raise Untyped(reason)
    return window.masked(keep, scale)


def _apply_mask(rt: _Runtime, result, mask: np.ndarray):
    """Zero out the lanes where ``mask`` is False (``if`` filtering)."""
    if result.__class__ is TBatch:
        return TBatch(np.where(mask, _num(result.data), 0), None, None, result.finite)
    if isinstance(result, TFlat):
        keep = mask[result.rows]
        return TFlat([c[keep] for c in result.cols], result.vals[keep],
                     result.rows[keep], result.bounds, finite=result.finite)
    if isinstance(result, TWindow):
        return result.masked(mask)
    if isinstance(result, Scalar):
        if is_zero(result):
            return 0
        return TBatch(np.where(mask, result, 0))
    return _invariant_lanes(rt, result, mask, None,
                            "conditional dictionary value in batched body")


# ---------------------------------------------------------------------------
# Iteration spaces, batched point lookups and lane expansion
# ---------------------------------------------------------------------------


def _range_lanes(lo: int, hi: int) -> TBatch:
    """The keys ``lo:hi``, one per lane, with what that proves."""
    return TBatch(np.arange(lo, hi, dtype=np.int64), (lo, hi - 1), (None, lo, None))


def _iteration_space(rt: _Runtime, source, window=None):
    """``(keys, values)`` of a non-batched collection's entries, one lane
    each, else ``None``: the iteration of a non-batched sum, the merge join
    and the cross product of a loop-invariant source.  ``window`` is the
    source's root window when the caller has it (``False``: it has none).

    A nested dictionary's value side is the :class:`TWindow` of each
    entry's children.
    """
    if window is None:
        if source.__class__ is RangeDict:
            keys = _range_lanes(source.lo, source.hi)
            return keys, keys
        window = _stored(rt, source)
    if not window:
        return None
    if window.levels is not None:
        return _entries(rt, window, slice(window.lo, window.hi))
    keys = _range_lanes(window.lo, window.hi)
    if window.contiguous:   # a whole stored array: its values as they are
        target, fact = window.target, window.fact
        if fact is None:
            return keys, TBatch(target, None, (target, 0, None))
        return keys, TBatch(target, None if fact.lo is None else (fact.lo, fact.hi),
                            (target, 0, fact), fact.finite)
    return keys, _read(rt, window.target, window.fact, keys)


def _lookup_batched(rt: _Runtime, target, key: TBatch, valid: np.ndarray | None,
                    window=None):
    """Per-lane point lookup ``target(key[i])``, ``None`` when the target kind
    does not support a batched lookup.

    ``key`` holds int64 lanes; ``valid``, when given, marks the lanes whose
    key is an integer at all (the others miss).  A stored input is looked
    up through its root window (``window`` when the caller has it, else
    :func:`_stored`); a whole 1-D array's is read from the array itself.
    An entry bag is looked up through its window (:func:`_bag_window`).
    """
    if window is None:
        if not isinstance(target, (TWindow, TFlat, TBatch)):
            array = _array(target)
            if array is not None:
                return _lookup_dense(rt, array, 0, array.shape[0], True, None,
                                     _fact(rt, array), key, valid)
            if isinstance(target, Scalar) and is_zero(target):
                return 0
            window = _stored(rt, target)
            if window is None:
                return None
        elif isinstance(target, TFlat):
            window = _bag_window(rt, target, key.data.shape[0])
        elif target.__class__ is TBatch:
            return None     # a scalar per lane
        else:
            window = target
    if window.levels is None:
        return _lookup_dense(rt, window.target, window.lo, window.hi, window.contiguous,
                             window.scale, window.fact, key, valid)
    return _lookup_compressed(rt, window, key, valid)


def _lookup_dense(rt: _Runtime, target: np.ndarray | None, lo, hi, whole: bool,
                  scale: np.ndarray | None, fact, key: TBatch, valid: np.ndarray | None):
    """:func:`_lookup_batched` in the dense window ``[lo, hi)`` of ``target``
    (``whole``: a whole stored array; ``fact``: its declared fact), whose
    keys are positions.

    Keys proven inside a root window are read as :func:`_read` reads them
    (a whole stored array's own bounds are the window's); elsewhere a lane
    outside its window reads 0.
    """
    keys = key.data
    if valid is None and not isinstance(lo, np.ndarray) and (
            whole or _within(key.bounds, lo, hi - 1)):
        rt.proven_guards += not whole
        return _read(rt, target, fact, key)
    found = (keys >= lo) & (keys < hi)
    if valid is not None:
        found &= valid
    values = _gather(target, keys)
    finite = None if fact is None or target is None else fact.finite
    if scale is not None:
        values, finite = _product(values, scale), None
    return TBatch(np.where(found, values, 0), None, None, finite)


def _lookup_compressed(rt: _Runtime, window: TWindow, key: TBatch,
                       valid: np.ndarray | None):
    """:func:`_lookup_batched` in a compressed window: one search of a root
    window's keys, or one lookup of per-lane windows' composite (owner, key)
    (:meth:`~repro.execution.buffers.BufferLevels.lookup_level`).  A root
    window over a whole level keeps its position table on the levels, so a
    kept re-layout builds it once."""
    levels, level, keys = window.levels, window.level, key.data
    if window.owner is None:
        span = levels.keys[level]
        whole = window.lo == 0 and window.hi == span.shape[0]
        if not whole:
            span = span[window.lo:window.hi]
        inside = span.shape[0] > 0 and _within(key.bounds, int(span[0]), int(span[-1]))
        pos, found, regime = lookup_sorted(span, keys, key.bounds,
                                           levels._tables if whole else None)
        rt.proven_guards += inside
        if valid is not None:
            found = found & valid
        if valid is not None or window.lo or regime != "direct":   # else -1 at every miss
            pos = np.where(found, pos + window.lo if window.lo else pos, -1)
    else:   # a miss's position is -1
        hit = levels.lookup_level(level, window.owner, keys, valid, key.bounds)
        if hit is None:
            raise Untyped("composite key overflow in nested lookup")
        pos, found, regime = hit
        rt.proven_guards += _within(key.bounds, *levels.key_bounds(level))
    if rt.lookups is None:
        rt.lookups = Counter()
    rt.lookups[regime] += 1
    if level < levels.depth - 1:
        return TWindow(None, None, levels=levels, level=level + 1, owner=pos,
                       scale=window.scale)
    values, finite = levels.padded_values()[pos], levels.finite    # a miss reads 0
    if window.scale is not None:
        values, finite = np.where(found, _product(values, window.scale), 0), None
    return TBatch(values, None, None, finite)


def _expand_source(rt: _Runtime, source, lanes: int):
    """Fan a batched sum source out into an expanded lane space.

    Returns ``(parent, keys, values, counts)`` — ``parent`` maps every new
    lane back to its outer lane, ``keys`` and ``values`` are per-lane values
    — or a plain scalar 0 when the source is the semiring zero on every lane.
    An entry bag is iterated through its window (:func:`_bag_window`).
    """
    if isinstance(source, TFlat):
        source = _bag_window(rt, source, lanes)
    if isinstance(source, TWindow):
        return _window_entries(rt, source)
    if source.__class__ is TBatch:
        raise Untyped(f"cannot iterate {type(source).__name__} in batched body")
    if isinstance(source, Scalar):
        if is_zero(source):
            return 0
        raise Untyped("sum over a non-zero scalar")
    # Loop-invariant source: the cross product of outer lanes × its entries.
    space = _iteration_space(rt, source)
    if space is None:
        raise Untyped(f"cannot batch iteration over {type(source).__name__}")
    inner_keys, inner_values = space
    size = inner_keys.data.shape[0]
    if size == 0:
        return 0
    if lanes * size > _EXPANSION_CAP:
        raise Untyped("cross-product expansion exceeds the lane cap")
    parent = np.arange(lanes, dtype=np.int64).repeat(size)
    keys = TBatch(_tile(inner_keys.data, lanes), inner_keys.bounds)
    if inner_values.__class__ is TBatch:
        values = TBatch(_tile(inner_values.data, lanes), inner_values.bounds, None,
                        inner_values.finite)
    else:
        values = TWindow(None, None, levels=inner_values.levels, level=inner_values.level,
                         owner=_tile(inner_values.owner, lanes))
    counts = np.empty(lanes, dtype=np.int64)
    counts.fill(size)
    return parent, keys, values, counts


def _tile(data: np.ndarray, times: int) -> np.ndarray:
    """``np.tile`` of a 1-D array, without its Python-level wrapper."""
    return data[None, :].repeat(times, axis=0).reshape(-1)


def _flat_pairs(rt: _Runtime, value):
    """``(keys, values)`` float arrays of a flat scalar-valued collection.

    Used by the merge join; ``None`` when the collection is nested or not
    array-representable.
    """
    if isinstance(value, Scalar):
        if not is_zero(value):
            return None
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    space = _iteration_space(rt, value)
    if space is None or space[1].__class__ is not TBatch:
        return None
    keys, values = space
    return keys.data, np.asarray(_num(values.data), dtype=np.float64)


def _neg_value(rt: _Runtime, value):
    if value.__class__ is TBatch:
        data = -_num(value.data)
        bounds = value.bounds
        return TBatch(data, None if bounds is None or data.dtype.kind not in "iu"
                      else _int64_bounds(-bounds[1], -bounds[0]), None, value.finite)
    if isinstance(value, (TFlat, TWindow)):
        flat = _flatten(rt, value)
        return TFlat(flat.cols, -flat.vals, flat.rows, flat.bounds, flat.every_lane,
                     flat.finite)
    return v_mul(-1, value) if not isinstance(value, Scalar) else -value


def _union(left, right):
    if left is None or right is None:
        return None
    return min(left[0], right[0]), max(left[1], right[1])


def _add_values(rt: _Runtime, left, right):
    """``left + right`` where either may hold one value per lane."""
    if isinstance(left, Scalar) and left == 0:
        return right
    if isinstance(right, Scalar) and right == 0:
        return left
    lbatch, rbatch = left.__class__ is TBatch, right.__class__ is TBatch
    if lbatch or rbatch:
        ldata = left.data if lbatch else left if isinstance(left, Scalar) else _lane_data(left)
        rdata = right.data if rbatch else right if isinstance(right, Scalar) \
            else _lane_data(right)
        if lbatch and ldata.dtype.kind == "b":
            ldata = ldata.astype(np.int64)
        if rbatch and rdata.dtype.kind == "b":
            rdata = rdata.astype(np.int64)
        data = ldata + rdata
        # A run of keys plus a constant is a run: `row + 1`.
        batch, other = (left, right) if lbatch else (right, left)
        run = batch.run
        if run is None or run[0] is not None or not isinstance(other, (int, np.integer)):
            run = None
        else:
            run = (None, run[1] + int(other), None)
        bounds = finite = None
        if data.dtype.kind in "iu":
            lb = left.bounds if lbatch else (left, left) if left.__class__ is int \
                else _lane_bounds(left)
            rb = right.bounds if rbatch else (right, right) if right.__class__ is int \
                else _lane_bounds(right)
            if lb is not None and rb is not None:
                lo, hi = lb[0] + rb[0], lb[1] + rb[1]
                bounds = (lo, hi) if -(1 << 63) <= lo and hi < (1 << 63) else None
        else:
            lmag, rmag = _magnitude(left), _magnitude(right)
            if lmag is not None and rmag is not None and lmag + rmag <= _FINITE_LIMIT:
                finite = lmag + rmag
        return TBatch(data, bounds, run, finite)
    if not _is_batched(left) and not _is_batched(right):
        return v_add(left, right)
    if _is_dict_batched(left) and _is_dict_batched(right):
        lflat = _flatten(rt, left)
        rflat = _flatten(rt, right)
        if len(lflat.cols) != len(rflat.cols):
            raise Untyped("mixed-depth dictionary addition in batched body")
        finite = None if lflat.finite is None or rflat.finite is None \
            else max(lflat.finite, rflat.finite)
        return TFlat([np.concatenate([a, b]) for a, b in zip(lflat.cols, rflat.cols)],
                     np.concatenate([lflat.vals, rflat.vals]),
                     np.concatenate([lflat.rows, rflat.rows]),
                     [_union(a, b) for a, b in zip(lflat.bounds, rflat.bounds)],
                     finite=finite)
    raise Untyped("dictionary addition does not batch")


def _scale_dict(rt: _Runtime, dct, factor):
    """``factor * dct`` where ``dct`` is per-lane and ``factor`` scalar-per-lane."""
    if isinstance(factor, Scalar):
        if is_zero(factor):
            return 0
        magnitude = _magnitude(factor)
    else:
        magnitude = factor.finite
        factor = _num(factor.data)
    if isinstance(dct, TWindow) and dct.levels is None:
        dct = _flatten(rt, dct)   # read now, while it may be one range
    if isinstance(dct, TFlat):
        scale = factor if isinstance(factor, Scalar) or dct.every_lane else factor[dct.rows]
        proven = dct.finite is not None and magnitude is not None
        return TFlat(dct.cols, _product(dct.vals, scale, proven), dct.rows, dct.bounds,
                     dct.every_lane, _times(dct.finite, magnitude))
    if isinstance(dct, TWindow):
        factor = np.full(dct.owner.shape[0], float(factor)) if isinstance(factor, Scalar) \
            else factor.astype(np.float64)
        # A zero factor annihilates the whole per-lane dictionary (v_mul
        # prunes it), so iteration must not see its entries: empty the window.
        return dct.masked(factor != 0, factor)
    raise Untyped("dictionary scaling does not batch")


def _mul_values(rt: _Runtime, left, right):
    """``left * right`` where either may hold one value per lane."""
    lbatch, rbatch = left.__class__ is TBatch, right.__class__ is TBatch
    if (lbatch and (rbatch or isinstance(right, Scalar))) \
            or (rbatch and isinstance(left, Scalar)):
        if lbatch:
            lmag, left = left.finite, left.data
            if left.dtype.kind == "b":
                left = left.astype(np.int64)
        else:
            lmag = _magnitude(left)
        if rbatch:
            rmag, right = right.finite, right.data
            if right.dtype.kind == "b":
                right = right.astype(np.int64)
        else:
            rmag = _magnitude(right)
        if lmag is None or rmag is None:
            return TBatch(_product(left, right))
        bound = lmag * rmag
        return TBatch(left * right, None, None, bound if bound <= _FINITE_LIMIT else None)
    if not _is_batched(left) and not _is_batched(right):
        return v_mul(left, right)
    scalarish_left = lbatch or isinstance(left, Scalar)
    scalarish_right = rbatch or isinstance(right, Scalar)
    if _is_dict_batched(left) and scalarish_right:
        return _scale_dict(rt, left, right)
    if _is_dict_batched(right) and scalarish_left:
        return _scale_dict(rt, right, left)
    if lbatch or rbatch:
        # per-lane scalar × loop-invariant dictionary
        factor = left if lbatch else right
        other = right if lbatch else left
        data = _num(factor.data).astype(np.float64)
        return _invariant_lanes(rt, other, data != 0, data,
                                "batched multiplication with a materialized dictionary")
    raise Untyped("dictionary × dictionary in batched body")


def _singleton_lanes(rt: _Runtime, key, value):
    """``{ key[i] -> value[i] }`` per lane, for a lane-wise ``DictExpr``: an
    entry bag (the plain dictionary when neither side holds lanes).

    A lane whose value is zero holds no entry (``{k -> 0}`` is ``{}``), so
    the lanes of a lookup that missed never reach a reduction; adding a zero
    changes no sum, so dropping them leaves every result bit for bit.
    """
    if key.__class__ is TBatch:
        if key.data.dtype is not _I64:
            ints, valid = _int_lanes(key.data)
            if valid is not None:
                raise Untyped("non-integer dictionary keys in batched body")
            key = TBatch(ints, key.bounds)
    elif _is_dict_batched(key):
        raise Untyped("dictionary-valued key")
    elif not _is_batched(value):
        return _singleton(key, value)
    elif not isinstance(key, Scalar):
        raise EvaluationError("dictionary keys must evaluate to scalars")
    else:
        index = integral_index(normalize_key(key))
        if index is None:
            raise Untyped("non-integer dictionary key in batched body")
        key = TBatch(np.full(rt.lanes, index, dtype=np.int64), (index, index))
    lanes = key.data.shape[0]
    if isinstance(value, Scalar):
        value = TBatch(np.full(lanes, value), None, None, _magnitude(value))
    if value.__class__ is TBatch:
        vals = value.data
        if vals.dtype is not _F64:
            vals = vals.astype(np.float64)
        rows = vals.nonzero()[0]
        if rows.shape[0] == lanes:  # rows is arange(lanes)
            return TFlat([key.data], vals, rows, [key.bounds], True, value.finite)
        return TFlat([key.data[rows]], vals[rows], rows, [key.bounds], False, value.finite)
    if isinstance(value, (TWindow, TFlat)):
        flat = _flatten(rt, value)
        col = key.data if flat.every_lane else key.data[flat.rows]
        return TFlat([col] + flat.cols, flat.vals, flat.rows, [key.bounds] + flat.bounds,
                     flat.every_lane, flat.finite)
    raise Untyped("dictionary value does not batch")


# ---------------------------------------------------------------------------
# Lowering: AST -> closures, one per node and lane mode
# ---------------------------------------------------------------------------


def _note_fallback(rt: _Runtime, slot, source: Expr, reason: str) -> None:
    """Count a ``sum``/``merge`` that runs as a Python loop; say so once per run."""
    if rt.fallbacks is None:
        rt.fallbacks = {}
    if slot not in rt.fallbacks:
        rt.fallbacks[slot] = reason
        if _log.isEnabledFor(logging.DEBUG):
            kind, number = ("sum", slot) if isinstance(slot, int) else slot
            _log.debug("typed %s #%d over %s falls back to a Python loop: %s",
                       kind, number, pretty(source, resolve_indices=False), reason)


def _is_key(expr: Expr) -> bool:
    """A scalar expression: no ``sum``, ``merge`` or dictionary in it."""
    return not contains(expr, lambda node: isinstance(node, (Sum, Merge, DictExpr)))


def _is_iterable(source: Expr) -> bool:
    """A ``sum`` source that yields stored values as they are: a collection
    symbol or variable, a range, or a slice or entry of one."""
    if isinstance(source, (Sym, Idx)):
        return True
    if isinstance(source, RangeExpr):
        return _is_key(source.lo) and _is_key(source.hi)
    if isinstance(source, SliceGet):
        return (isinstance(source.target, (Sym, Idx))
                and _is_key(source.lo) and _is_key(source.hi))
    return (isinstance(source, Get) and isinstance(source.target, (Sym, Idx))
            and _is_key(source.key))


def _is_stored(expr: Expr, scope: tuple) -> bool:
    """A stored read ``X(p)``, or a variable ``scope`` marks as holding one."""
    if isinstance(expr, Get):
        return isinstance(expr.target, (Sym, Idx)) and _is_key(expr.key)
    return isinstance(expr, Idx) and scope[-1 - expr.index]


def _rekeys(expr: Expr, scope: tuple) -> bool:
    """Whether ``expr`` builds a dictionary of stored values under new keys.

    ``scope`` has one flag per enclosing binder, innermost last: whether the
    binder holds a stored value (a ``sum``'s value, or a ``let`` of a stored
    read) rather than a key.
    """
    if isinstance(expr, Sum):
        return _is_iterable(expr.source) and _rekeys(expr.body, scope + (False, True))
    if isinstance(expr, Let):
        stored = _is_stored(expr.value, scope)
        return ((stored or _is_key(expr.value))
                and _rekeys(expr.body, scope + (stored,)))
    if isinstance(expr, IfThen):
        return _is_key(expr.cond) and _rekeys(expr.then, scope)
    if isinstance(expr, DictExpr):
        return _is_key(expr.key) and (_is_stored(expr.value, scope)
                                      or _rekeys(expr.value, scope))
    return False


def _is_relayout(expr: Expr) -> bool:
    """Whether the closed ``expr`` only re-keys stored values: a transpose,
    a re-nesting.

    Its value is a dictionary whose leaves are stored reads ``X_val(p)`` or
    iterated values, unchanged.  Arithmetic appears only in keys, range and
    slice bounds, guards and the ``let``s that feed them, so a closed scalar
    reduction such as ``sum(…) c * beta * …`` is not one.
    """
    return isinstance(expr, Sum) and _rekeys(expr, ())


def _segment(source: Expr) -> tuple[str, str, Expr] | None:
    """``(T, P, e)`` when ``source`` is the segment ``T(P(e):P(e + 1))`` over
    globals ``T`` and ``P`` and a key ``e``."""
    if not (isinstance(source, SliceGet) and isinstance(source.target, Sym)
            and isinstance(source.lo, Get) and isinstance(source.hi, Get)):
        return None
    lo, hi = source.lo, source.hi
    if not (isinstance(lo.target, Sym) and hi.target == lo.target and _is_key(lo.key)
            and hi.key == Add(lo.key, Const(1))):
        return None
    return source.target.name, lo.target.name, lo.key


def _segment_sum(expr: Sum) -> tuple[str, str, Expr] | None:
    """:func:`_segment` of the source of ``sum(<p, v> in T(P(e):P(e + 1)))
    body``, with a ``body`` that reads only ``p`` and ``v``: its value
    depends on the segment ``e`` alone.

    The body also runs no loop of its own, so the table answering this
    ``sum`` is all a profiled run would have recorded for it.
    """
    if not (free_indices(expr.body) <= {0, 1} and _is_key(expr.body)):
        return None
    return _segment(expr.source)


#: The values a kept re-layout may read: the catalog's containers, which no
#: write changes in place (``docs/formats.md``), and scalars.
_STORED_TYPES = (np.ndarray, PhysicalArray, PhysicalHashMap, PhysicalTrie)


def _stored_inputs(env: Mapping[str, Any], names: list) -> tuple | None:
    """The env values of ``names``, or ``None`` when one is not stored data."""
    inputs = tuple(map(env.get, names))
    for value in inputs:
        if not isinstance(value, _STORED_TYPES) and not isinstance(value, Scalar):
            return None
    return inputs


def _same_inputs(refs: tuple, inputs: tuple) -> bool:
    """The identical containers, and scalars of equal value and type."""
    for old, value in zip(refs, inputs):
        if old.__class__ is weakref.ref:
            if old() is not value:
                return False
        elif type(old) is not type(value) or old != value:
            return False
    return True


def _keep_entry(kept: dict, slot, inputs: tuple, value, loops) -> None:
    """Store a kept re-layout that lives no longer than its stored inputs.

    The entry refers to its containers weakly (scalars by value): once one
    is collected no later run can present it again, so the entry, and the
    value it holds, go with it.
    """
    token = object()

    def forget(_):
        entry = kept.get(slot)
        if entry is not None and entry[-1] is token:
            kept.pop(slot, None)

    refs = tuple(item if isinstance(item, Scalar) else weakref.ref(item, forget)
                 for item in inputs)
    kept[slot] = (refs, value, loops, token)


#: How a binder holds its value, fixed when lowering (a scope has one per
#: enclosing binder, innermost last): a plain value; lanes of the current
#: lane space; or lanes of an enclosing lane space, which a read gathers
#: onto the current one (:class:`_Deferred`).
_PLAIN, _LANE, _DEFERRED = 0, 1, 2


class _Lowerer:
    """Translates a De Bruijn plan into a tree of typed evaluation closures,
    each lowered once for the lane mode it runs in.

    A node is *lane-wise* when it reads a binder of an enclosing batched
    ``sum`` or ``merge`` (a ``_LANE``/``_DEFERRED`` binder of its scope),
    directly or through a ``let``, or is itself a ``sum``/``merge`` inside a
    batched body; its closure handles lanes, and knows which of its operands
    may be lanes.  Every other node is lane-invariant and gets the plain
    closure of the interpreter's semantics, with no lane checks.  A
    ``sum``'s body is lowered in batched mode; its plain (Python-loop)
    closure is lowered when that loop first runs (:meth:`_later`).

    Every closure takes ``(frames, rt)``.  ``frames`` starts with the run's
    *prefix* — the value of every global the plan reads (``names``), bound
    once per run, then every constant — followed by one frame per enclosing
    binder.  A constant, a global and a binder that needs no gather are read
    by their parent as ``frames[slot]`` (:meth:`operand`), with no call.  An
    exception ends the use of a frames list: the code that catches
    :class:`Untyped` and goes on handed the failed body a list of its own.
    """

    def __init__(self, names: tuple) -> None:
        self.names = names
        self.slots = {name: slot for slot, name in enumerate(names)}
        self.consts: list = []
        self.const_slots: dict = {}
        self.frozen = False     # the prefix is fixed: a new constant gets a closure
        self.sum_count = 0
        self.merge_count = 0
        self.sum_sources: dict[int, Expr] = {}  # slot -> source expression
        self.memo_slots: dict = {}              # (expr, root) -> its memo slot
        self.windowed: set = set()              # prefix slots read through their window
        # memo slot -> (input refs, value, loop records, token) of each kept re-layout
        self.kept: dict = {}
        self.lock = threading.Lock()

    # -- operands ---------------------------------------------------------------

    def _const_slot(self, value) -> int | None:
        key = (type(value), value)
        try:
            slot = self.const_slots.get(key)
        except TypeError:       # an unhashable constant
            return None
        if slot is None and not self.frozen:
            slot = self.const_slots[key] = len(self.names) + len(self.consts)
            self.consts.append(value)
        return slot

    def operand(self, expr: Expr, scope: tuple, batched: bool):
        """``(closure, slot, lane)`` of an operand: ``closure`` is ``None`` when
        the value is ``frames[slot]``; ``lane`` when it may hold lanes."""
        if isinstance(expr, Idx):
            if expr.index < len(scope):
                kind = scope[-1 - expr.index]
                if kind != _DEFERRED:
                    return None, -1 - expr.index, kind == _LANE
        elif isinstance(expr, Sym):
            return None, self.slots[expr.name], False
        elif isinstance(expr, Const):
            slot = self._const_slot(expr.value)
            if slot is not None:
                return None, slot, False
        closure, lane = self.lower(expr, scope, batched)
        return closure, None, lane

    def _source(self, expr: Expr, scope: tuple, batched: bool):
        """:meth:`operand` of a ``sum`` source or a lookup target: a closed
        re-layout there (:func:`_is_relayout`) is kept across runs
        (:meth:`_keep`)."""
        if isinstance(expr, Sum) and not free_indices(expr) and _is_relayout(expr):
            closure = self._memoize(expr, False, self._lower_sum(expr, (), False), keep=True)
            return closure, None, False
        return self.operand(expr, scope, batched)

    # -- nodes --------------------------------------------------------------------

    def lower(self, expr: Expr, scope: tuple, batched: bool,
              root: bool = False) -> tuple[_Closure, bool]:
        """``(closure, lane)`` of ``expr`` under ``scope`` (one binder kind per
        enclosing binder); ``batched`` inside a batched body; ``root`` when
        its value is the plan's value (the plan itself, or the body of a
        top-level ``let``)."""
        if isinstance(expr, Const):
            slot = self._const_slot(expr.value)
            if slot is None:
                value = expr.value
                return (lambda frames, rt: value), False
            return (lambda frames, rt: frames[slot]), False
        if isinstance(expr, Sym):
            slot = self.slots[expr.name]
            return (lambda frames, rt: frames[slot]), False
        if isinstance(expr, Idx):
            return self._lower_idx(expr, scope)
        if isinstance(expr, Var):
            raise ExecutionError("named variables must be converted to De Bruijn form first")
        if isinstance(expr, Let):
            return self._lower_let(expr, scope, batched, root)
        if isinstance(expr, (Sum, Merge)):
            closed = not free_indices(expr)
            if isinstance(expr, Sum):
                if closed and not root:
                    return self._memoize(expr, root, self._lower_sum(expr, (), False)), False
                if batched:
                    return self._lower_sum_lanes(expr, scope), True
                return self._lower_sum(expr, scope, root), False
            if closed and not root:
                return self._memoize(expr, root, self._lower_merge(expr, (), False)), False
            return self._lower_merge(expr, scope, batched), batched
        build = _NODES.get(type(expr))
        if build is None:
            raise ExecutionError(f"cannot lower node of type {type(expr).__name__}")
        return build(self, expr, scope, batched)

    def _lower_idx(self, expr: Idx, scope: tuple):
        index = expr.index
        if index >= len(scope):
            def unbound(frames, rt):
                raise ExecutionError(f"unbound De Bruijn index %{index}")
            return unbound, False
        position = -1 - index
        if scope[position] == _DEFERRED:
            def deferred(frames, rt):
                frame = frames[position]
                forced = frame.forced
                return frame.force(rt) if forced is None else forced
            return deferred, True
        return (lambda frames, rt: frames[position]), scope[position] == _LANE

    def _lower_let(self, expr: Let, scope: tuple, batched: bool, root: bool):
        value_f, value_s, lane = self.operand(expr.value, scope, batched)
        body_f, body_lane = self.lower(expr.body, scope + (_LANE if lane else _PLAIN,),
                                       batched, root)
        if value_f is None:
            def let_f(frames, rt):
                frames.append(frames[value_s])
                result = body_f(frames, rt)
                frames.pop()
                return result
        else:
            def let_f(frames, rt):
                frames.append(value_f(frames, rt))
                result = body_f(frames, rt)
                frames.pop()
                return result
        return let_f, body_lane

    def _memoize(self, expr: Expr, root: bool, closure: _Closure,
                 keep: bool = False) -> _Closure:
        """Cache a closed (loop-invariant) sum/merge once per execution.

        Invariant subplans the optimizer leaves inside loops (e.g. a whole
        operand transpose) are computed once per run — and because this
        backend computes them, they materialize directly as
        :class:`BufferDict` views that downstream batched iteration and
        lookups consume with no conversion walk.  The slot is the
        expression itself, so every occurrence of one invariant (a
        factorized plan may iterate a transpose and look rows up in it)
        shares a single evaluation.  A closed subplan reads no binder of the
        frames it is handed, only the prefix and its own.  With ``keep`` the
        value also outlives the run (:meth:`_keep`).
        """
        slot = self.memo_slots.setdefault((expr, root), ("memo", len(self.memo_slots)))
        evaluate = self._keep(slot, sorted(symbols(expr)), closure) if keep else closure

        def memoized(frames, rt):
            invariants = rt.invariants
            if invariants is None:
                invariants = rt.invariants = {}
            else:
                value = invariants.get(slot)
                if value is not None:
                    return value
            value = invariants[slot] = evaluate(frames, rt)
            return value
        return memoized

    def _keep(self, slot, names: list, evaluate: _Closure) -> _Closure:
        """``evaluate``, reusing the value of an earlier run over the same inputs.

        The kept entry refers to the env values of the re-layout's symbols,
        and a run whose values are the identical containers (scalars: equal
        value and type) takes the kept value instead of rebuilding it.  No
        write changes a stored container in place, so the value is the one
        the run would rebuild.  One entry per slot, which a rebuild replaces
        and which keeps no input alive (:func:`_keep_entry`).  A build that
        fell back to a Python loop is not kept, and inputs that are not
        stored data (a plain dict, say) rebuild every run.  The build's loop
        counts are kept too and replayed into a profiled run.
        """
        kept = self.kept

        def keep(frames, rt):
            inputs = _stored_inputs(rt.env, names)
            if inputs is None:
                return evaluate(frames, rt)
            entry = kept.get(slot)
            if entry is not None and _same_inputs(entry[0], inputs):
                rt.relayouts_reused += 1
                _, value, loops, _ = entry
            else:
                outer, rt.profile = rt.profile, ExecutionProfile()
                fallbacks = len(rt.fallbacks or ())
                try:
                    value = evaluate(frames, rt)
                finally:
                    loops, rt.profile = rt.profile, outer
                rt.relayouts_built += 1
                if len(rt.fallbacks or ()) == fallbacks:
                    if isinstance(value, BufferDict):
                        # Read by every later run: find its key bounds once,
                        # so they prove the guards and lookups over it.
                        for level in range(value.levels.depth):
                            value.levels.key_bounds(level)
                    _keep_entry(kept, slot, inputs, value, loops)
            if rt.profile is not None:
                rt.profile.add_loops(loops)
            return value
        return keep

    def _later(self, expr: Expr, scope: tuple, counts: tuple) -> Callable[[], _Closure]:
        """A getter of ``expr``'s plain closure under ``scope``, lowered on
        first use: the Python-loop body of a ``sum`` or ``merge``.  The loops
        in it get the slots the batched lowering gave them (numbering
        restarts from ``counts``, the sum and merge counts before it)."""
        lowered: list = []

        def get() -> _Closure:
            if not lowered:
                with self.lock:
                    if not lowered:
                        now = self.sum_count, self.merge_count
                        self.sum_count, self.merge_count = counts
                        try:
                            lowered.append(self.lower(expr, scope, False)[0])
                        finally:
                            self.sum_count, self.merge_count = now
            return lowered[0]
        return get

    # -- sums ---------------------------------------------------------------------

    def _lower_sum(self, expr: Sum, scope: tuple, root: bool = False) -> _Closure:
        """A ``sum`` outside any batched body: its body runs batched over the
        source's entries, or in a Python loop when that raises :class:`Untyped`."""
        self.sum_count += 1
        slot = self.sum_count
        self.sum_sources[slot] = expr.source
        source_f, source_s, _ = self._source(expr.source, scope, False)
        sym = isinstance(expr.source, Sym)
        if sym:
            self.windowed.add(source_s)
        counts = self.sum_count, self.merge_count
        body_f, _ = self.lower(expr.body, scope + (_LANE, _LANE), True)
        plain_body = self._later(expr.body, scope + (_PLAIN, _PLAIN), counts)

        def python_loop(frames, rt, source, reason):
            _note_fallback(rt, slot, expr.source, reason)
            body = plain_body()
            accumulator: Any = 0
            iterations = 0
            for key, value in iter_items(source):
                iterations += 1
                frames.append(key)
                frames.append(value)
                try:
                    term = body(frames, rt)
                finally:
                    frames.pop()
                    frames.pop()
                accumulator = v_add(accumulator, term)
            if rt.profile is not None:
                rt.profile.record_loop(slot, iterations)
            return accumulator

        def sum_f(frames, rt):
            source = frames[source_s] if source_f is None else source_f(frames, rt)
            failed = rt.failed_batch
            if failed is not None and slot in failed:
                return python_loop(frames, rt, source,
                                   "its typed attempt already failed in this run")
            window = rt.views[source_s] if sym else None
            if sym and window is None:
                window = _sym_window(rt, frames, source_s)
            space = _iteration_space(rt, source, window)
            if space is None:
                return python_loop(frames, rt, source,
                                   f"cannot batch iteration over {type(source).__name__}")
            keys, values = space
            lanes = keys.data.shape[0]
            if rt.profile is not None:
                rt.profile.record_loop(slot, lanes)
            if lanes == 0:
                return 0
            outer_lanes = rt.lanes
            rt.lanes = lanes
            try:
                body_value = body_f(frames + [keys, values], rt)
            except Untyped as exc:
                if rt.failed_batch is None:
                    rt.failed_batch = set()
                rt.failed_batch.add(slot)
                reason = str(exc)
            else:
                return _reduce_lanes(rt, body_value, lanes, root)
            finally:
                rt.lanes = outer_lanes
            return python_loop(frames, rt, source, reason)

        return sum_f

    def _lower_sum_lanes(self, expr: Sum, scope: tuple) -> _Closure:
        """A ``sum`` inside a batched body: each lane's source fanned out into
        one lane per entry, the body run once over all of them, and summed
        back onto the lanes."""
        self.sum_count += 1
        slot = self.sum_count
        self.sum_sources[slot] = expr.source
        source_f, source_s, _ = self._source(expr.source, scope, True)
        inner = tuple(_DEFERRED if kind else _PLAIN for kind in scope) + (_LANE, _LANE)
        body_f, _ = self.lower(expr.body, inner, True)
        # The enclosing lane bindings the body reads, as positions in its frames.
        reads = tuple((-1 - index, scope[1 - index] == _DEFERRED)
                      for index in sorted(free_indices(expr.body))
                      if 2 <= index < len(scope) + 2 and scope[1 - index] != _PLAIN)
        segments = _segment_sum(expr)
        table_f = None if segments is None else \
            self._segment_table(slot, segments, scope)

        def sum_lanes(frames, rt, source=None):
            if source is None:
                if table_f is not None:
                    value = table_f(frames, rt, sum_lanes)
                    if value is not None:
                        return value
                source = frames[source_s] if source_f is None else source_f(frames, rt)
            lanes = rt.lanes
            expanded = _window_entries(rt, source) if source.__class__ is TWindow \
                else _expand_source(rt, source, lanes)
            if expanded.__class__ is not tuple:
                if rt.profile is not None and lanes:
                    rt.profile.record_loop(slot, 0, entries=lanes)
                return expanded  # the source is empty on every lane
            parent, keys, values, counts = expanded
            size = parent.shape[0]
            if rt.profile is not None and lanes:
                # parent has one lane per (outer lane, inner element) pair:
                # the total inner iteration count across the outer lanes.
                rt.profile.record_loop(slot, size, entries=lanes)
            if size == 0:
                return 0
            new_frames = frames + [keys, values]
            if reads:
                _defer(new_frames, reads, parent)
            rt.lanes = size
            result = body_f(new_frames, rt)
            rt.lanes = lanes
            return _reduce_expanded(rt, result, parent, lanes, counts)

        return sum_lanes

    def _segment_table(self, slot: int, segments: tuple, scope: tuple):
        """The closure answering a segment sum (:func:`_segment_sum`) from a
        table of its value per segment of ``P``, or returning ``None`` when
        the sum must expand as usual.

        Taken when the key ``e`` is integer lanes proven inside the segments
        of a ``P`` declared non-decreasing, not a range run (its slice is
        already one range), and the table is no larger than the lanes: at
        most as many segments, and at most as many positions, as lanes.  The
        table is built once per run, in ``rt.invariants``, by the batched
        expansion of the run ``0:len(P)-1`` — one position range, and per
        segment the same terms added in the same order as any lane of that
        segment adds them.  A build that raised :class:`Untyped` or is not
        one scalar per segment leaves ``None`` there: the run expands.  A
        profiled run records the loop counts the expansion would have.
        """
        target_name, pos_name, key_expr = segments
        key_f, key_s, _ = self.operand(key_expr, scope, True)
        target_s, pos_s = self.slots[target_name], self.slots[pos_name]
        self.windowed.update((target_s, pos_s))
        table_slot = ("segments", slot)

        def build(frames, rt, expand, target, pos, fact):
            count = pos.shape[0] - 1
            lo = _read(rt, pos, fact, _range_lanes(0, count))
            hi = _read(rt, pos, fact, _range_lanes(1, count + 1))
            lanes, profile = rt.lanes, rt.profile
            rt.lanes, rt.profile = count, None
            try:
                values = expand(frames, rt, _batched_slice(rt, target.target, target.fact,
                                                           lo, hi))
            except Untyped:
                return None
            finally:
                rt.lanes, rt.profile = lanes, profile
            if not (values.__class__ is TBatch and values.data.shape == (count,)):
                return None
            counts = np.diff(pos)
            return values.data, counts, not counts.all()

        def table_f(frames, rt, expand):
            key = frames[key_s] if key_f is None else key_f(frames, rt)
            if key.__class__ is not TBatch or key.data.dtype.kind not in "iu" \
                    or (key.run is not None and key.run[0] is None):
                return None
            pos, target = rt.views[pos_s], rt.views[target_s]
            if pos is None:
                pos = _sym_window(rt, frames, pos_s)
            if target is None:
                target = _sym_window(rt, frames, target_s)
            if not (pos and target and pos.contiguous and target.contiguous
                    and pos.levels is None and target.levels is None):
                return None
            fact, pos = pos.fact, pos.target
            lanes, count = key.data.shape[0], pos.shape[0] - 1
            if fact is None or not fact.ordered or not _within(key.bounds, 0, count - 1) \
                    or count > lanes or int(pos[-1]) - int(pos[0]) > lanes:
                return None
            if rt.invariants is None:
                rt.invariants = {}
            if table_slot not in rt.invariants:
                rt.invariants[table_slot] = build(frames, rt, expand, target, pos, fact)
            table = rt.invariants[table_slot]
            if table is None:
                return None
            values, counts, gaps = table
            rt.segment_tables += 1
            gathered = values[key.data]
            # A non-zero value proves a visit: count visits only to profile,
            # or when none might have happened (the expansion's int 0).
            if rt.profile is not None or (gaps and not gathered.any()):
                visited = int(counts[key.data].sum())
                if rt.profile is not None:
                    rt.profile.record_loop(slot, visited, entries=lanes)
                if visited == 0:
                    return 0
            return TBatch(gathered)

        return table_f

    # -- merges -------------------------------------------------------------------

    def _lower_merge(self, expr: Merge, scope: tuple, batched: bool) -> _Closure:
        """A ``merge``: a value-sorted join with its body run batched over the
        matches, or a Python loop.  Inside a batched body it raises
        :class:`Untyped` (its operands and body are lowered all the same, so
        the loops in them keep their slots)."""
        self.merge_count += 1
        slot = ("merge", self.merge_count)
        left_f, _ = self.lower(expr.left, scope, batched)
        right_f, _ = self.lower(expr.right, scope, batched)
        counts = self.sum_count, self.merge_count
        body_f, _ = self.lower(expr.body, scope + (_LANE,) * 3, True)
        if batched:
            def merge_lanes(frames, rt):
                raise Untyped("merge inside a batched body")
            return merge_lanes
        plain_body = self._later(expr.body, scope + (_PLAIN,) * 3, counts)

        def python_merge(frames, rt, left, right, reason):
            _note_fallback(rt, slot, expr.left, reason)
            body = plain_body()
            by_value: dict = {}
            for key, value in iter_items(right):
                by_value.setdefault(merge_hashable(value), []).append(key)
            accumulator: Any = 0
            for key1, value in iter_items(left):
                matches = by_value.get(merge_hashable(value))
                if not matches:
                    continue
                for key2 in matches:
                    frames.append(key1)
                    frames.append(key2)
                    frames.append(value)
                    try:
                        term = body(frames, rt)
                    finally:
                        del frames[-3:]
                    accumulator = v_add(accumulator, term)
            return accumulator

        def merge_f(frames, rt):
            left = left_f(frames, rt)
            right = right_f(frames, rt)
            pairs_left = _flat_pairs(rt, left)
            pairs_right = _flat_pairs(rt, right) if pairs_left is not None else None
            reason = "an operand is not a flat scalar-valued collection"
            if pairs_left is not None and pairs_right is not None:
                left_keys, left_vals = pairs_left
                right_keys, right_vals = pairs_right
                reason = "non-finite merge values"
                if np.all(np.isfinite(left_vals)) and np.all(np.isfinite(right_vals)):
                    # Value-equality join: sort the right side by value, then
                    # locate every left value's match range in one
                    # searchsorted pair instead of a per-key Python dict.
                    order = np.argsort(right_vals, kind="stable")
                    right_keys_sorted = right_keys[order]
                    right_vals_sorted = right_vals[order]
                    lo = np.searchsorted(right_vals_sorted, left_vals, side="left")
                    hi = np.searchsorted(right_vals_sorted, left_vals, side="right")
                    counts = hi - lo
                    lanes = int(counts.sum())
                    if lanes == 0:
                        return 0
                    parent, pos = expand_lanes(lo, counts)
                    key1, values = left_keys[parent], left_vals[parent]
                    key2 = right_keys_sorted[pos]
                    outer_lanes = rt.lanes
                    rt.lanes = lanes
                    try:
                        body_value = body_f(
                            frames + [TBatch(key1), TBatch(key2), TBatch(values)], rt)
                    except Untyped as exc:
                        reason = str(exc)
                    else:
                        return _reduce_lanes(rt, body_value, lanes)
                    finally:
                        rt.lanes = outer_lanes
            return python_merge(frames, rt, left, right, reason)

        return merge_f


# -- the other nodes: a plain closure, or a lane-wise one --------------------------
#
# Each builder takes (lowerer, expr, scope, batched) and returns (closure,
# lane).  An operand is read as ``frames[slot] if f is None else f(frames, rt)``.


def _negate(value):
    return -value if isinstance(value, Scalar) else v_mul(-1, value)


def _not_lanes(rt: _Runtime, value):
    if value.__class__ is TBatch:
        return TBatch(np.logical_not(_mask(value.data)))
    if _is_batched(value):
        raise Untyped("boolean negation of a dictionary in batched body")
    return not truthy(value)


def _sub_values(rt: _Runtime, left, right):
    if not _is_batched(left) and not _is_batched(right):
        return v_sub(left, right)
    return _add_values(rt, left, _neg_value(rt, right))


def _divide(left, right):
    if not (isinstance(left, Scalar) and isinstance(right, Scalar)):
        raise EvaluationError("division is only defined on scalars")
    return left / right


def _divide_lanes(rt: _Runtime, left, right):
    if left.__class__ is TBatch or right.__class__ is TBatch:
        divisor = _lane_num(right)
        # A zero divisor on any lane must surface as the same
        # ZeroDivisionError the other backends raise: fall back.
        if np.any(np.asarray(divisor) == 0):
            raise Untyped("zero divisor in batched body")
        return TBatch(np.asarray(_lane_num(left) / divisor))
    if _is_batched(left) or _is_batched(right):
        raise Untyped("dictionary division in batched body")
    return _divide(left, right)


def _compare(comparator, left, right):
    if not (isinstance(left, Scalar) and isinstance(right, Scalar)):
        raise EvaluationError("comparisons are only defined on scalars")
    return bool(comparator(left, right))


def _compare_lanes(op: str, comparator, rt: _Runtime, left, right):
    """``left op right`` per lane; one boolean when the operands' proven
    bounds decide it."""
    lbatch, rbatch = left.__class__ is TBatch, right.__class__ is TBatch
    if lbatch or rbatch:
        decided = _decide(
            op, left.bounds if lbatch else (left, left) if left.__class__ is int
            else _lane_bounds(left),
            right.bounds if rbatch else (right, right) if right.__class__ is int
            else _lane_bounds(right))
        if decided is not None:
            rt.proven_guards += 1
            return decided
        return TBatch(comparator(_lane_data(left), _lane_data(right)))
    if _is_batched(left) or _is_batched(right):
        raise Untyped("dictionary comparison in batched body")
    return _compare(comparator, left, right)


def _range(lo, hi):
    return RangeDict(int(lo), int(hi))


def _range_of(rt: _Runtime, lo, hi):
    if _is_batched(lo) or _is_batched(hi):
        return _batched_slice(rt, None, None, lo, hi)
    return _range(lo, hi)


def _singleton(key, value):
    if is_zero(value):
        return SemiringDict()
    return SemiringDict({normalize_key(key): value})


def _unary(plain, lanes):
    """The builder of a one-operand node: ``plain(value)``, or ``lanes(rt,
    value)`` when the operand may hold lanes."""
    def build(lowerer, expr, scope, batched):
        f, s, lane = lowerer.operand(expr.operand, scope, batched)
        if lane:
            return (lambda frames, rt: lanes(rt, frames[s] if f is None else f(frames, rt))), True
        return (lambda frames, rt: plain(frames[s] if f is None else f(frames, rt))), False
    return build


def _binary(first: str, second: str, plain, lanes):
    """The builder of a node of two eagerly evaluated operands (fields
    ``first`` and ``second``): ``plain(expr)(left, right)``, or
    ``lanes(expr)(rt, left, right)`` when either may hold lanes."""
    def build(lowerer, expr, scope, batched):
        lf, ls, llane = lowerer.operand(getattr(expr, first), scope, batched)
        rf, rs, rlane = lowerer.operand(getattr(expr, second), scope, batched)
        if llane or rlane:
            op = lanes(expr)

            def binary_lanes(frames, rt):
                return op(rt, frames[ls] if lf is None else lf(frames, rt),
                          frames[rs] if rf is None else rf(frames, rt))
            return binary_lanes, True
        op = plain(expr)

        def binary_f(frames, rt):
            return op(frames[ls] if lf is None else lf(frames, rt),
                      frames[rs] if rf is None else rf(frames, rt))
        return binary_f, False
    return build


def _mask(data: np.ndarray) -> np.ndarray:
    return data if data.dtype.kind == "b" else data.astype(bool)


def _lower_bool(lowerer, expr, scope, batched):
    """``&&`` / ``||``: the right operand is evaluated only when the left one
    does not decide (on every lane)."""
    short_circuit_on = isinstance(expr, Or)
    combine = np.logical_or if short_circuit_on else np.logical_and
    lf, ls, llane = lowerer.operand(expr.left, scope, batched)
    rf, rs, rlane = lowerer.operand(expr.right, scope, batched)
    if llane or rlane:
        def bool_lanes(frames, rt):
            left = frames[ls] if lf is None else lf(frames, rt)
            if left.__class__ is TBatch:
                right = frames[rs] if rf is None else rf(frames, rt)
                if isinstance(right, Scalar):    # e.g. a guard the bounds decided
                    if bool(right) == short_circuit_on:
                        return short_circuit_on
                    return TBatch(_mask(left.data))
                return TBatch(combine(_mask(left.data), _mask(np.asarray(_lane_data(right)))))
            if left.__class__ is not bool:
                if _is_batched(left):
                    raise Untyped("boolean connective over a dictionary in batched body")
                left = truthy(left)
            if left == short_circuit_on:
                return short_circuit_on
            right = frames[rs] if rf is None else rf(frames, rt)
            if right.__class__ is TBatch:
                return TBatch(_mask(right.data))
            if right.__class__ is bool:
                return right
            if _is_batched(right):
                raise Untyped("boolean connective over a dictionary in batched body")
            return truthy(right)
        return bool_lanes, True

    def bool_f(frames, rt):
        if truthy(frames[ls] if lf is None else lf(frames, rt)) == short_circuit_on:
            return short_circuit_on
        return truthy(frames[rs] if rf is None else rf(frames, rt))
    return bool_f, False


def _lower_get(lowerer, expr, scope, batched):
    """A lookup: a stored array's own read when the key holds integer lanes
    and the target is a global read whole."""
    tf, ts, tlane = lowerer._source(expr.target, scope, batched)
    kf, ks, klane = lowerer.operand(expr.key, scope, batched)
    if not (tlane or klane):
        def get_f(frames, rt):
            return lookup(frames[ts] if tf is None else tf(frames, rt),
                          normalize_key(frames[ks] if kf is None else kf(frames, rt)))
        return get_f, False
    sym = isinstance(expr.target, Sym)
    if sym:
        lowerer.windowed.add(ts)

    def get_lanes(frames, rt):
        target = frames[ts] if tf is None else tf(frames, rt)
        key = frames[ks] if kf is None else kf(frames, rt)
        if key.__class__ is TBatch:
            window = None
            if key.data.dtype is _I64:
                valid = None
                if sym:
                    window = rt.views[ts]
                    if window is None:
                        window = _sym_window(rt, frames, ts)
                    if window and window.contiguous and window.levels is None:
                        return _read(rt, window.target, window.fact, key)
                    window = window or None
            else:
                q, valid = _int_lanes(key.data)
                key = TBatch(q) if valid is not None else \
                    key if q is key.data else TBatch(q, key.bounds, key.run)
            value = _lookup_batched(rt, target, key, valid, window)
            if value is None:
                raise Untyped(f"vector-key lookup into {type(target).__name__}")
            return value
        if _is_batched(key):
            raise Untyped("dictionary-valued key in batched body")
        if _is_batched(target):
            index = integral_index(normalize_key(key))
            if index is None:
                return 0  # per-lane containers are integer-keyed
            q = TBatch(np.full(rt.lanes, index, dtype=np.int64), (index, index))
            value = _lookup_batched(rt, target, q, None)
            if value is None:
                raise Untyped(f"scalar lookup into batched {type(target).__name__}")
            return value
        return lookup(target, normalize_key(key))
    return get_lanes, True


def _lower_slice(lowerer, expr, scope, batched):
    tf, ts, tlane = lowerer.operand(expr.target, scope, batched)
    lf, ls, llane = lowerer.operand(expr.lo, scope, batched)
    hf, hs, hlane = lowerer.operand(expr.hi, scope, batched)
    if not (tlane or llane or hlane):
        def slice_f(frames, rt):
            return SliceDict(frames[ts] if tf is None else tf(frames, rt),
                             int(frames[ls] if lf is None else lf(frames, rt)),
                             int(frames[hs] if hf is None else hf(frames, rt)))
        return slice_f, False
    sym = isinstance(expr.target, Sym)
    if sym:
        lowerer.windowed.add(ts)

    def slice_lanes(frames, rt):
        target = frames[ts] if tf is None else tf(frames, rt)
        lo = frames[ls] if lf is None else lf(frames, rt)
        hi = frames[hs] if hf is None else hf(frames, rt)
        if tlane and _is_batched(target):
            raise Untyped("batched slice target")
        if lo.__class__ is TBatch or hi.__class__ is TBatch \
                or _is_batched(lo) or _is_batched(hi):
            window = rt.views[ts] if sym else False
            if window is None:
                window = _sym_window(rt, frames, ts)
            if window and window.contiguous and window.levels is None:
                return _batched_slice(rt, window.target, window.fact, lo, hi)
            array = _array(target)
            if array is None:
                raise Untyped("slice of a non-array with batched bounds")
            return _batched_slice(rt, array, _fact(rt, array), lo, hi)
        return SliceDict(target, int(lo), int(hi))

    segment = _segment(expr)
    if segment is None or expr.hi.key.right.value.__class__ is not int:
        return slice_lanes, True
    # A segment T(P(e):P(e + 1)) over whole arrays reads P at e and at e + 1
    # from one evaluation of e (``_read``'s ``next_entry``), as the two
    # lookups read them.
    ps = lowerer.slots[segment[1]]
    lowerer.windowed.add(ps)
    kf, ks, _ = lowerer.operand(segment[2], scope, batched)

    def segment_lanes(frames, rt):
        key = frames[ks] if kf is None else kf(frames, rt)
        if key.__class__ is TBatch and key.data.dtype is _I64:
            views = rt.views
            pos, window = views[ps], views[ts]
            if pos is None:
                pos = _sym_window(rt, frames, ps)
            if window is None:
                window = _sym_window(rt, frames, ts)
            if pos and window and pos.contiguous and window.contiguous \
                    and pos.levels is None and window.levels is None:
                target, fact = pos.target, pos.fact
                return _batched_slice(rt, window.target, window.fact,
                                      _read(rt, target, fact, key),
                                      _read(rt, target, fact, key, True))
        return slice_lanes(frames, rt)
    return segment_lanes, True


def _lower_if(lowerer, expr, scope, batched):
    cf, cs, clane = lowerer.operand(expr.cond, scope, batched)
    tf, ts, tlane = lowerer.operand(expr.then, scope, batched)
    if not (clane or tlane):
        def if_f(frames, rt):
            if truthy(frames[cs] if cf is None else cf(frames, rt)):
                return frames[ts] if tf is None else tf(frames, rt)
            return 0
        return if_f, False

    def if_lanes(frames, rt):
        cond = frames[cs] if cf is None else cf(frames, rt)
        if cond.__class__ is TBatch:
            return _apply_mask(rt, frames[ts] if tf is None else tf(frames, rt),
                               _mask(cond.data))
        if cond is True or (cond is not False and not _is_batched(cond) and truthy(cond)):
            return frames[ts] if tf is None else tf(frames, rt)
        if _is_batched(cond):
            raise Untyped("dictionary-valued condition")
        return 0
    return if_lanes, True


def _fixed(function):
    return lambda expr: function


def _by_op(function):
    return lambda expr: partial(function, COMPARATORS[expr.op])


_NODES = {
    Neg: _unary(_negate, _neg_value),
    Not: _unary(lambda value: not truthy(value), _not_lanes),
    Add: _binary("left", "right", _fixed(v_add), _fixed(_add_values)),
    Sub: _binary("left", "right", _fixed(v_sub), _fixed(_sub_values)),
    Mul: _binary("left", "right", _fixed(v_mul), _fixed(_mul_values)),
    Div: _binary("left", "right", _fixed(_divide), _fixed(_divide_lanes)),
    Cmp: _binary("left", "right", _by_op(_compare),
                 lambda expr: partial(_compare_lanes, expr.op, COMPARATORS[expr.op])),
    RangeExpr: _binary("lo", "hi", _fixed(_range), _fixed(_range_of)),
    DictExpr: _binary("key", "value", _fixed(_singleton), _fixed(_singleton_lanes)),
    And: _lower_bool,
    Or: _lower_bool,
    Get: _lower_get,
    SliceGet: _lower_slice,
    IfThen: _lower_if,
}


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


@dataclass
class TypedPlan:
    """A plan lowered to typed-buffer kernels.

    Calling the object with an environment executes the plan.  Pass a
    ``stats`` dict to receive per-run fallback accounting (``sum_loops`` /
    ``merge_loops`` lowered, ``fallback_sums`` / ``fallback_merges`` — how
    many of them ran a scalar Python loop — and ``fallback_reasons``, a
    ``{reason: loops}`` dict with the strings of the debug log event, empty
    when everything kernelized), how many group-by reductions ran in each
    regime of
    :func:`repro.storage.formats.group_sum` (``group_by_ordered``,
    ``group_by_segmented``, ``group_by_dense``, ``group_by_sorted``,
    ``group_by_lexsort``), how many batched lookups took each regime of
    :func:`~repro.execution.buffers.lookup_sorted` (``lookup_direct``,
    ``lookup_search``) and whether the root reduction went straight to the
    dense output (``dense_sink``: 0 or 1).

    What the environment's declared facts (:mod:`repro.storage.facts`) and
    the lanes' own provenance proved is counted too: ``proven_guards``, the
    comparisons and bounds checks that proven lane bounds decided without
    looking at the lanes (a guard that became one boolean, a gather, lookup
    or dense sink that skipped its min/max scan), and ``contiguous_reads``,
    the reads made one slice: a lookup with a run of keys read as a view,
    and a ``P(s):P(s+1)`` traversal expanded as one position range; and
    ``segment_tables``, the sums over ``T(P(e):P(e+1))`` answered from a
    table of their value per segment of ``P`` instead of expanded per
    outer lane (built once per run, never kept across runs).

    A closed re-layout a ``sum`` iterates or a lookup probes — a transpose
    of a stored operand, say — is kept in ``kept`` with weak references to
    the inputs it read, and reused by every later run over the identical
    stored inputs: once per stored version, not once per run.  ``relayouts_built`` counts the ones
    this run computed, ``relayouts_reused`` the ones it took from an earlier
    run, and ``levelized`` the collections it walked into buffer levels (a
    stored hash-map or trie is walked once, by its first run).  The other
    counters describe the work the run did, so a reused re-layout's
    group-by and lookups are not in them.
    """

    plan: Expr
    function: Callable[..., Any]
    sum_count: int = 0
    sum_sources: Mapping[int, Expr] | None = None
    kept: dict | None = None

    def __call__(self, env: Mapping[str, Any], stats: dict | None = None,
                 profile=None, dense_shape: tuple[int, ...] | None = None) -> Any:
        """Execute against ``env``.

        With a ``dense_shape``, a root reduction whose keys all lie inside it
        returns a :class:`DenseResult` holding the dense output; every other
        result is the plain value, for the caller to convert.
        """
        return self.function(env, stats, profile, dense_shape)

    @property
    def source(self) -> str:
        """A one-line marker: loop count and kernel mode (there is no source text)."""
        return (f"<typed: {self.sum_count} sum loop(s) over flat columnar "
                f"buffers, NumPy kernels with loop fallback>")


def _report(rt: _Runtime, lowerer: _Lowerer, stats: dict) -> None:
    """Write a run's counters into the ``stats`` sink (:class:`TypedPlan`)."""
    fallbacks = rt.fallbacks or {}
    regimes, lookups = rt.regimes or Counter(), rt.lookups or Counter()
    stats["sum_loops"] = lowerer.sum_count
    stats["merge_loops"] = lowerer.merge_count
    stats["fallback_sums"] = sum(1 for slot in fallbacks if isinstance(slot, int))
    stats["fallback_merges"] = sum(1 for slot in fallbacks if not isinstance(slot, int))
    stats["fallback_reasons"] = dict(Counter(fallbacks.values()))
    for regime in GROUP_REGIMES:
        stats[f"group_by_{regime}"] = regimes[regime]
    for regime in LOOKUP_REGIMES:
        stats[f"lookup_{regime}"] = lookups[regime]
    stats["dense_sink"] = rt.dense_sinks
    stats["relayouts_built"] = rt.relayouts_built
    stats["relayouts_reused"] = rt.relayouts_reused
    stats["levelized"] = rt.levelized
    stats["proven_guards"] = rt.proven_guards
    stats["contiguous_reads"] = rt.contiguous_reads
    stats["segment_tables"] = rt.segment_tables


def typed_plan(plan: Expr, name: str = "typed_plan") -> TypedPlan:
    """Lower a physical plan (De Bruijn form) for typed-buffer execution.

    The returned :class:`TypedPlan` evaluates nested ``sum`` loops by lane
    expansion over flat columnar buffers, with a per-loop Python fallback for
    untypeable constructs; results are identical to the reference
    interpreter (dictionary results come back as lazy
    :class:`~repro.execution.buffers.BufferDict` views).  A run's prologue
    binds the value of every global the plan reads, once; a name the
    environment does not bind raises :class:`ExecutionError`.
    """
    names = tuple(sorted(symbols(plan)))
    lowerer = _Lowerer(names)
    root, _ = lowerer.lower(plan, (), False, root=True)
    lowerer.frozen = True
    consts = tuple(lowerer.consts)
    windowed = tuple(sorted(lowerer.windowed))

    # IEEE results (`inf - inf`, `0 * inf` before the annihilation pass) are
    # the semantics, not an accident: no warning from any operation of a run.
    # "all", not a subset: ignoring only some kinds made every small ufunc
    # call ~15 ns dearer (NumPy 2.4, 2-CPU Xeon); all costs none.  As a
    # decorator it costs 0.5 µs a run, half of a `with` block.
    @np.errstate(all="ignore")
    def function(env: Mapping[str, Any], stats: dict | None = None,
                 profile=None, dense_shape: tuple[int, ...] | None = None) -> Any:
        try:
            frames = [*map(env.__getitem__, names), *consts]
        except KeyError as exc:
            raise ExecutionError(f"unknown global symbol {exc.args[0]!r}") from None
        views = [None] * len(frames)
        rt = _Runtime(env, profile, dense_shape, views)
        facts = rt.facts
        for slot in windowed:     # other kinds are made on first use, by _sym_window
            value = frames[slot]
            if value.__class__ is np.ndarray and value.ndim == 1:
                fact = facts.get(id(value))
                views[slot] = TWindow(0, value.shape[0], value, None, True, fact=(
                    fact if fact is not None and fact.array is value else None))
        result = root(frames, rt)
        if stats is not None:
            _report(rt, lowerer, stats)
        return result

    return TypedPlan(plan=plan, function=function, sum_count=lowerer.sum_count,
                     sum_sources=lowerer.sum_sources, kept=lowerer.kept)
