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
  is one position range,
* a ``sum`` over ``T(P(e):P(e + 1))`` whose body reads only its own two
  binders is answered from a table of its value per segment of ``P``,
* ``merge`` over flat scalar-valued collections is a value-sorted join,
* dictionary-shaped loop bodies accumulate as flat (coords, values) entry
  bags reduced by one order-aware group-by-sum
  (:func:`repro.storage.formats.group_sum`) into a lazy
  :class:`~repro.execution.buffers.BufferDict`, or, at the root of a run
  asked for a dense shape, summed straight into the array
  (:class:`DenseResult`).

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
    SemiringDict,
    SliceDict,
    integral_index,
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
    "==": lambda a, b: a == b,
    "!=": lambda a, b: a != b,
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    ">": lambda a, b: a > b,
    ">=": lambda a, b: a >= b,
}

#: Lane-count ceiling for cross-product expansion of a loop-invariant source
#: inside a batched body (outer lanes × inner entries).  Beyond it the sum
#: falls back rather than materialize huge intermediates.
_EXPANSION_CAP = 1 << 23


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

    Integer lanes may carry what is proven about them, never found by a
    scan: ``bounds`` ``(lo, hi)`` when every lane lies in ``[lo, hi]``, and
    ``run`` ``(source, start)`` when the lanes are ``source[start:start + n]``
    (``source`` ``None``: ``arange(start, start + n)``).
    """

    __slots__ = ("data", "bounds", "run")

    def __init__(self, data: np.ndarray, bounds: tuple[int, int] | None = None,
                 run: tuple | None = None):
        self.data = data
        self.bounds = bounds
        self.run = run

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"TBatch({self.data!r})"


@dataclass(slots=True, eq=False)
class TWindow:
    """Entries ``[lo, hi)`` of one stored level: once (a *root* window, what
    :func:`_stored` makes of a stored input, with ``int`` bounds) or per lane.

    A *dense* level (``levels`` ``None``) keys an entry by its position and
    holds ``target[position]`` (``target`` ``None``: the key itself, a
    range).  A *compressed* level is ``levels.keys[level]``; above the
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
                           span=self.span)
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
                           self.target, scale=scale, span=self.span)
        return TWindow(None, None, levels=self.levels, level=self.level,
                       owner=np.where(keep, self.owner, -1), scale=scale)


@dataclass(slots=True, eq=False)
class TFlat:
    """A dictionary per lane while a batched body builds it: a bag of
    (coords, value) entries.

    ``cols`` are int64 coordinate columns (outermost key first), ``vals``
    float64, ``rows`` the owning lane of each entry, ``bounds`` the proven
    ``(lo, hi)`` of each column or ``None``, and ``every_lane`` that the
    entries are the lanes in order (``rows`` is ``arange(lanes)``), so a
    per-lane array needs no gather onto them.  Semiring addition is
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
    """Per-execution state threaded through the closures."""

    __slots__ = ("env", "facts", "batched", "lanes", "invariants", "failed_batch",
                 "fallbacks", "buffers", "profile", "regimes", "lookups",
                 "dense_shape", "dense_sinks", "relayouts_built",
                 "relayouts_reused", "levelized", "proven_guards", "contiguous_reads",
                 "segment_tables")

    def __init__(self, env: Mapping[str, Any], profile=None,
                 dense_shape: tuple[int, ...] | None = None):
        self.env = env
        self.facts = getattr(env, "facts", None) or {}   # id(array) -> ArrayFact
        self.batched = False
        self.lanes = 0
        self.invariants: dict = {}
        self.failed_batch: set = set()   # sums whose typed attempt failed this run
        self.fallbacks: dict = {}        # sum/merge that ran a Python loop -> why
        self.buffers: dict = {}          # id(obj) -> (obj, LevelView | None)
        self.profile = profile           # optional ExecutionProfile (loop counts)
        self.regimes: Counter = Counter()  # group-by regime -> reductions that took it
        self.lookups: Counter = Counter()  # lookup regime -> batched lookups that took it
        self.dense_shape = dense_shape     # the root reduction's dense sink, if any
        self.dense_sinks = 0
        self.relayouts_built = 0           # kept re-layouts this run computed ...
        self.relayouts_reused = 0          # ... and took from an earlier run
        self.levelized = 0                 # collections this run walked into levels
        self.proven_guards = 0             # checks the lanes' proven bounds decided
        self.contiguous_reads = 0          # gathers and expansions read as one slice
        self.segment_tables = 0            # sums answered from a per-segment table


_Closure = Callable[[list, _Runtime], Any]


# ---------------------------------------------------------------------------
# Small helpers
# ---------------------------------------------------------------------------


def _num(data: np.ndarray) -> np.ndarray:
    """Promote bool arrays for arithmetic (``True + True`` must be 2, not OR)."""
    return data.astype(np.int64) if data.dtype == np.bool_ else data


def _lane_data(value):
    """Unwrap a scalar-or-:class:`TBatch` operand for element-wise ops."""
    if isinstance(value, TBatch):
        return value.data
    if is_scalar(value):
        return value
    raise Untyped(f"non-scalar operand of type {type(value).__name__} in batched body")


def _lane_num(value):
    data = _lane_data(value)
    return _num(data) if isinstance(data, np.ndarray) else data


def _product(left, right) -> np.ndarray:
    """``left * right`` per lane, with a zero factor annihilating as in
    ``v_mul``: ``0 * inf`` and ``0 * nan`` are 0, not NaN."""
    product = left * right
    if product.dtype.kind == "f" and np.isnan(product).any():
        product = np.where((left == 0) | (right == 0), 0.0, product)
    return product


def _int_lanes(data: np.ndarray):
    """``(int64 keys, valid-mask | None)`` for a per-lane key array.

    Integral lanes convert exactly; non-integral / non-finite float lanes are
    flagged invalid (they can never hit an integer-keyed container).
    """
    data = np.asarray(data)
    if data.dtype == np.bool_ or data.dtype.kind in ("i", "u"):
        return data.astype(np.int64, copy=False), None
    if data.dtype.kind == "f":
        finite = np.isfinite(data) & (np.abs(data) < float(1 << 62))
        with np.errstate(invalid="ignore"):
            ok = finite & (np.mod(data, 1) == 0)
        ints = np.where(ok, data, 0).astype(np.int64)
        return ints, (None if bool(ok.all()) else ok)
    raise Untyped(f"cannot use dtype {data.dtype} as dictionary keys")


def _trunc_lanes(value, lanes: int) -> np.ndarray:
    """Per-lane ``int()`` truncation for range/slice bounds."""
    if isinstance(value, TBatch):
        data = np.asarray(value.data)
        if data.dtype == np.bool_ or data.dtype.kind in ("i", "u"):
            return data.astype(np.int64, copy=False)
        if data.dtype.kind == "f":
            if not (np.all(np.isfinite(data)) and np.all(np.abs(data) < float(1 << 62))):
                raise Untyped("non-finite range bound in batched body")
            return np.trunc(data).astype(np.int64)
        raise Untyped(f"cannot use dtype {data.dtype} as a range bound")
    if is_scalar(value):
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


def _stored(rt: _Runtime, value) -> TWindow | None:
    """The root window of a stored input, ``None`` when it has none.

    A 1-D array, a range and a slice of a 1-D array are dense; any other
    collection is a compressed level: a :class:`BufferDict`'s own, a stored
    hash-map's or trie's levelized view (built once, by
    :meth:`~repro.storage.physical.PhysicalHashMap.level_view`), or else one
    :func:`to_buffer_levels` walk per run, cached with a strong reference to
    the source, so an ``id()`` cannot be recycled into a stale hit mid-run.
    ``rt.levelized`` counts the walks.
    """
    if isinstance(value, PhysicalArray):
        value = value.data
    if isinstance(value, np.ndarray) and value.ndim == 1:
        return TWindow(0, value.shape[0], value, None, True)
    if isinstance(value, RangeDict):
        return TWindow(value.lo, value.hi)
    if isinstance(value, SliceDict):
        array = _array(value.target)
        if array is not None:
            return TWindow(value.lo, value.hi, array)
    if isinstance(value, BufferDict):
        return TWindow(value.lo, value.hi, levels=value.levels, level=value.level)
    if isinstance(value, (PhysicalHashMap, PhysicalTrie)):
        rt.levelized += not value.levelized
        view = value.level_view()
    else:
        hit = rt.buffers.get(id(value))
        if hit is None:
            rt.levelized += 1
            hit = rt.buffers[id(value)] = (value, to_buffer_levels(value))
        view = hit[1]
    if view is None:
        return None
    return TWindow(view.lo, view.hi, levels=view.levels, level=view.level)


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

    Only :class:`Idx` reads frames, and it forces the binding; one that the
    body never reads is never expanded.
    """

    __slots__ = ("value", "lanes", "forced")

    def __init__(self, value, lanes: _LaneMap):
        self.value = value
        self.lanes = lanes
        self.forced = None

    def force(self, rt: "_Runtime"):
        if self.forced is None:
            self.forced = _reindex(rt, self.value, self.lanes.index)
        return self.forced


def _defer_frames(frames: list, parent: np.ndarray) -> list:
    """The frames as seen from the lanes a ``parent`` expansion creates."""
    step = _LaneMap(parent)
    chains: dict[int, _LaneMap] = {}    # id(map to the current lanes) -> map to the new ones
    deferred = []
    for frame in frames:
        if isinstance(frame, _Deferred):
            if frame.forced is not None:
                frame = _Deferred(frame.forced, step)
            else:
                chain = chains.get(id(frame.lanes))
                if chain is None:
                    chain = chains[id(frame.lanes)] = _LaneMap(parent, frame.lanes)
                frame = _Deferred(frame.value, chain)
        elif _is_batched(frame):
            frame = _Deferred(frame, step)
        deferred.append(frame)
    return deferred


def _reindex(rt: _Runtime, value, parent: np.ndarray):
    """Re-map a per-lane value onto an expanded lane space (``new -> old``)."""
    if isinstance(value, TBatch):
        return TBatch(value.data[parent], value.bounds)
    if isinstance(value, TFlat):
        value = _bag_window(rt, value, int(parent.max()) + 1 if parent.shape[0] else 0)
    if isinstance(value, TWindow):
        return value.select(parent)
    return value


def _safe_gather(arr: np.ndarray, pos: np.ndarray, found: np.ndarray):
    """``arr[pos]`` with miss lanes redirected to entry 0 (result unmasked).

    ``lookup_sorted``/``lookup_level`` leave a miss's position unspecified
    — only lanes where ``found`` is true carry a real position.
    """
    if arr.shape[0] == 0:
        return np.zeros(found.shape[0], dtype=arr.dtype)
    return arr[np.where(found, pos, 0)]


def _all_inside(keys: np.ndarray, size: int) -> bool:
    """True when every key is a position of a ``size``-entry array."""
    return keys.shape[0] == 0 or (int(keys.min()) >= 0 and int(keys.max()) < size)


def _within(bounds: tuple[int, int] | None, lo, hi) -> bool:
    """Whether proven ``bounds`` lie inside ``[lo, hi]``."""
    return bounds is not None and bounds[0] >= lo and bounds[1] <= hi


def _lane_bounds(value) -> tuple[int, int] | None:
    """The proven bounds of a per-lane integer operand: a :class:`TBatch`'s, or
    an integer scalar's own value."""
    if isinstance(value, TBatch):
        return value.bounds
    if isinstance(value, (int, np.integer)):
        return int(value), int(value)
    return None


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


def _int_bounds(data: np.ndarray, left, right) -> tuple[int, int] | None:
    """Bounds of ``left + right`` from the operands' (integer lanes only, and
    only while no lane can have wrapped around)."""
    if data.dtype.kind not in "iu":
        return None
    lb, rb = _lane_bounds(left), _lane_bounds(right)
    if lb is None or rb is None:
        return None
    return _int64_bounds(lb[0] + rb[0], lb[1] + rb[1])


def _int64_bounds(lo: int, hi: int) -> tuple[int, int] | None:
    """``(lo, hi)`` when int64 lanes between them cannot have wrapped around."""
    return (lo, hi) if -(1 << 63) <= lo and hi < (1 << 63) else None


def _fact(rt: _Runtime, array: np.ndarray):
    """The declared :class:`~repro.storage.facts.ArrayFact` of this very array."""
    fact = rt.facts.get(id(array))
    return fact if fact is not None and fact.array is array else None


def _fact_bounds(rt: _Runtime, array: np.ndarray) -> tuple[int, int] | None:
    fact = _fact(rt, array)
    return None if fact is None else (fact.lo, fact.hi)


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
    return np.where(valid, _num(target[np.clip(keys, 0, size - 1)]), 0)


def _read(rt: _Runtime, target: np.ndarray | None, keys: TBatch) -> TBatch:
    """:func:`_gather` of the per-lane positions ``keys``, using what is proven.

    Keys that are a run ``start:start+n`` inside ``target`` read the view
    ``target[start:start+n]``; keys proven inside it are gathered with no
    bounds scan.  Either way the lanes carry ``target``'s declared bounds.
    """
    if target is None:
        return keys
    size = target.shape[0]
    if size:
        run = keys.run
        if run is not None and run[0] is None and 0 <= run[1] \
                and run[1] + keys.data.shape[0] <= size:
            rt.contiguous_reads += 1
            start = run[1]
            return TBatch(_num(target[start:start + keys.data.shape[0]]),
                          _fact_bounds(rt, target), (target, start))
        if _within(keys.bounds, 0, size - 1):
            rt.proven_guards += 1
            return TBatch(_num(target[keys.data]), _fact_bounds(rt, target))
    return TBatch(_gather(target, keys.data))


def _batched_slice(rt: _Runtime, target: np.ndarray | None, lo, hi) -> TWindow:
    """``target(lo:hi)`` (the range ``lo:hi`` when ``target`` is ``None``) with
    bounds per lane, and what they prove: the span of its keys, and whether
    it is ``P(s):P(s+1)`` over a run ``s`` and a ``P`` declared non-decreasing.
    """
    lo_lanes, hi_lanes = _trunc_lanes(lo, rt.lanes), _trunc_lanes(hi, rt.lanes)
    lo_bounds, hi_bounds = _lane_bounds(lo), _lane_bounds(hi)
    span = None if lo_bounds is None or hi_bounds is None else (lo_bounds[0], hi_bounds[1])
    contiguous = False
    if isinstance(lo, TBatch) and isinstance(hi, TBatch) \
            and lo.run is not None and hi.run is not None:
        (source, start), (hi_source, hi_start) = lo.run, hi.run
        if source is not None and hi_source is source and hi_start == start + 1:
            fact = _fact(rt, source)
            contiguous = fact is not None and fact.ordered
    return TWindow(lo_lanes, hi_lanes, target, span, contiguous)


def _window_entries(rt: _Runtime, window: TWindow):
    """``(parent, keys, values, counts)``: per-lane windows fanned out into
    one lane per entry, ``parent`` mapping each back to its lane.

    A contiguous window — ``P(s):P(s+1)`` over a non-decreasing ``P`` and a
    run of ``s`` — is the one range ``lo[0]:hi[-1]``: one ``repeat`` for the
    parent map and no clamp or contiguity scan (:func:`expand_lanes`).
    """
    lo, hi = window.bounds()
    if window.contiguous and lo.shape[0]:
        start, end = int(lo[0]), int(hi[-1])
        counts = hi - lo
        parent = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        rt.contiguous_reads += 1
        positions = TBatch(np.arange(start, end, dtype=np.int64), (start, end - 1),
                           (None, start))
    else:   # a compressed window's bounds come from a non-decreasing segment array
        counts = hi - lo if window.levels is not None else np.maximum(hi - lo, 0)
        parent, positions = expand_lanes(lo, counts)
        span = window.span
        positions = TBatch(positions, None if span is None else (span[0], span[1] - 1))
    scale = None if window.scale is None else window.scale[parent]
    return (parent, *_entries(rt, window, positions, scale), counts)


def _entries(rt: _Runtime, window: TWindow, positions, scale: np.ndarray | None = None):
    """``(keys, values)`` of the entries at ``positions`` of ``window``'s level
    (a :class:`TBatch`; a ``slice`` of a compressed root), one per lane and
    each times its ``scale``: a compressed level's values below its deepest
    level are the windows of the entries' children."""
    levels = window.levels
    if levels is None:
        keys, values = positions, _read(rt, window.target, positions)
    else:
        pos = positions.data if isinstance(positions, TBatch) else positions
        keys = TBatch(levels.keys[window.level][pos], levels.known_bounds(window.level))
        if window.level < levels.depth - 1:
            if not isinstance(pos, np.ndarray):
                pos = np.arange(pos.start, pos.stop, dtype=np.int64)
            return keys, TWindow(None, None, levels=levels, level=window.level + 1,
                                 owner=pos, scale=scale)
        values = TBatch(levels.values[pos])
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
    return TFlat(cols, np.asarray(value.data).astype(np.float64, copy=False), rows, bounds)


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
    rt.regimes[regime] += 1
    if take is not None:
        cols = [col[take] for col in cols]
    levels = BufferLevels.from_sorted_columns(cols, sums)
    roots = levels.keys[0]
    if roots.shape[0]:
        lanes = max(lanes, int(roots[-1]) + 1)
    owner = np.full(lanes, -1, dtype=np.int64)
    owner[roots] = np.arange(roots.shape[0], dtype=np.int64)
    return TWindow(None, None, levels=levels, level=1, owner=owner)


def _group_result(rt: _Runtime, cols: list, vals: np.ndarray):
    """Group-by-sum an entry bag into a :class:`BufferDict` (or 0)."""
    take, sums, regime = group_sum(cols, np.asarray(vals, dtype=np.float64))
    rt.regimes[regime] += 1
    if sums.size == 0:
        return 0
    if take is None:    # passed through: a result shares no memory with a stored array
        cols, sums = [col.copy() for col in cols], sums.copy()
    else:
        cols = [col[take] for col in cols]
    return BufferDict(BufferLevels.from_sorted_columns(cols, sums))


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
    sums = np.bincount(flat_keys, weights=np.asarray(flat.vals, dtype=np.float64),
                       minlength=math.prod(shape))
    # An empty bag (every lane masked or zero) comes back as int64.
    return sums.astype(np.float64, copy=False).reshape(shape)


def _reduce_lanes(rt: _Runtime, body, lanes: int, root: bool = False):
    """Collapse a batched sum body over *all* lanes into one value.

    The reduction at the ``root`` of a run with a dense shape returns a
    :class:`DenseResult` when :func:`_dense_sink` takes the entry bag.
    """
    if isinstance(body, TBatch):
        return body.data.sum().item()
    if _is_dict_batched(body):
        flat = _flatten(rt, body)
        if root and rt.dense_shape is not None:
            dense = _dense_sink(rt, flat, rt.dense_shape)
            if dense is not None:
                rt.dense_sinks += 1
                return DenseResult(dense)
        return _group_result(rt, flat.cols, flat.vals)
    # Constant across lanes (the body used no batched variable).
    return v_mul(lanes, body)


def _reduce_expanded(rt: _Runtime, body, parent: np.ndarray, out_lanes: int,
                     counts: np.ndarray):
    """Collapse an expanded sum body back onto the outer lane space."""
    if isinstance(body, TBatch):
        return TBatch(parent_sum(parent, _num(body.data), out_lanes))
    if _is_dict_batched(body):
        flat = _flatten(rt, body)
        return TFlat(flat.cols, flat.vals, parent[flat.rows], flat.bounds)
    if is_scalar(body):
        if is_zero(body):
            return 0
        return TBatch(_product(counts.astype(np.float64), float(body)))
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
                         window.target, span=(window.lo, window.hi))
    elif window is not None and window.level == 0 and window.lo == 0 \
            and window.hi == window.levels.keys[0].shape[0]:
        window = TWindow(None, None, levels=window.levels,
                         owner=np.zeros(lanes, dtype=np.int64))
    else:
        raise Untyped(reason)
    return window.masked(keep, scale)


def _apply_mask(rt: _Runtime, result, mask: np.ndarray):
    """Zero out the lanes where ``mask`` is False (``if`` filtering)."""
    if isinstance(result, TBatch):
        return TBatch(np.where(mask, _num(result.data), 0))
    if isinstance(result, TFlat):
        keep = mask[result.rows]
        return TFlat([c[keep] for c in result.cols], result.vals[keep],
                     result.rows[keep], result.bounds)
    if isinstance(result, TWindow):
        return result.masked(mask)
    if is_scalar(result):
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
    return TBatch(np.arange(lo, hi, dtype=np.int64), (lo, hi - 1), (None, lo))


def _iteration_space(rt: _Runtime, source):
    """``(keys, values)`` of a non-batched collection's entries, one lane
    each, else ``None``: the iteration of a non-batched sum, the merge join
    and the cross product of a loop-invariant source.

    A nested dictionary's value side is the :class:`TWindow` of each
    entry's children.
    """
    window = _stored(rt, source)
    if window is None:
        return None
    if window.levels is not None:
        return _entries(rt, window, slice(window.lo, window.hi))
    keys = _range_lanes(window.lo, window.hi)
    if window.contiguous:   # a whole stored array: its values as they are
        target = window.target
        return keys, TBatch(target, _fact_bounds(rt, target), (target, 0))
    return keys, _read(rt, window.target, keys)


def _lookup_batched(rt: _Runtime, target, key: TBatch, valid: np.ndarray | None):
    """Per-lane point lookup ``target(key[i])``, ``None`` when the target kind
    does not support a batched lookup.

    ``key`` holds int64 lanes; ``valid``, when given, marks the lanes whose
    key is an integer at all (the others miss).  A stored input is looked
    up through its root window (:func:`_stored`); a whole 1-D array's is
    read from the array itself, so the most common lookup allocates no
    window.  An entry bag is looked up through its window
    (:func:`_bag_window`).
    """
    if not isinstance(target, (TWindow, TFlat, TBatch)):
        array = _array(target)
        if array is not None:
            return _lookup_dense(rt, array, 0, array.shape[0], True, None, key, valid)
        if is_scalar(target) and is_zero(target):
            return 0
        target = _stored(rt, target)
        if target is None:
            return None
    elif isinstance(target, TFlat):
        target = _bag_window(rt, target, key.data.shape[0])
    elif isinstance(target, TBatch):
        return None     # a scalar per lane
    if target.levels is None:
        return _lookup_dense(rt, target.target, target.lo, target.hi, target.contiguous,
                             target.scale, key, valid)
    return _lookup_compressed(rt, target, key, valid)


def _lookup_dense(rt: _Runtime, target: np.ndarray | None, lo, hi, whole: bool,
                  scale: np.ndarray | None, key: TBatch, valid: np.ndarray | None):
    """:func:`_lookup_batched` in the dense window ``[lo, hi)`` of ``target``
    (``whole``: a whole stored array), whose keys are positions.

    Keys proven inside a root window are read as :func:`_read` reads them
    (a whole stored array's own bounds are the window's); elsewhere a lane
    outside its window reads 0.
    """
    keys = key.data
    if valid is None and not isinstance(lo, np.ndarray) and (
            whole or _within(key.bounds, lo, hi - 1)):
        rt.proven_guards += not whole
        return _read(rt, target, key)
    found = (keys >= lo) & (keys < hi)
    if valid is not None:
        found &= valid
    values = _gather(target, keys)
    if scale is not None:
        values = _product(values, scale)
    return TBatch(np.where(found, values, 0))


def _lookup_compressed(rt: _Runtime, window: TWindow, key: TBatch,
                       valid: np.ndarray | None):
    """:func:`_lookup_batched` in a compressed window: one search of a root
    window's keys, or one lookup of per-lane windows' composite (owner, key)
    (:meth:`~repro.execution.buffers.BufferLevels.lookup_level`)."""
    levels, level, keys = window.levels, window.level, key.data
    if window.owner is None:
        span = levels.keys[level][window.lo:window.hi]
        inside = span.shape[0] > 0 and _within(key.bounds, int(span[0]), int(span[-1]))
        pos, found, regime = lookup_sorted(span, keys, inside)
        rt.proven_guards += inside
        pos = pos + window.lo
        if valid is not None:
            found = found & valid
    else:
        hit = levels.lookup_level(level, window.owner, keys, valid, key.bounds)
        if hit is None:
            raise Untyped("composite key overflow in nested lookup")
        pos, found, regime = hit
        rt.proven_guards += _within(key.bounds, *levels.key_bounds(level))
    rt.lookups[regime] += 1
    if level < levels.depth - 1:
        return TWindow(None, None, levels=levels, level=level + 1,
                       owner=np.where(found, pos, -1), scale=window.scale)
    values = _safe_gather(levels.values, pos, found)
    if window.scale is not None:
        values = _product(values, window.scale)
    return TBatch(np.where(found, values, 0))


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
    if _is_batched(source):
        raise Untyped(f"cannot iterate {type(source).__name__} in batched body")
    if is_scalar(source):
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
    parent = np.repeat(np.arange(lanes, dtype=np.int64), size)
    keys = TBatch(np.tile(inner_keys.data, lanes), inner_keys.bounds)
    if isinstance(inner_values, TBatch):
        values = TBatch(np.tile(inner_values.data, lanes), inner_values.bounds)
    else:
        values = TWindow(None, None, levels=inner_values.levels, level=inner_values.level,
                         owner=np.tile(inner_values.owner, lanes))
    return parent, keys, values, np.full(lanes, size, dtype=np.int64)


def _flat_pairs(rt: _Runtime, value):
    """``(keys, values)`` float arrays of a flat scalar-valued collection.

    Used by the merge join; ``None`` when the collection is nested or not
    array-representable.
    """
    if is_scalar(value):
        if not is_zero(value):
            return None
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    space = _iteration_space(rt, value)
    if space is None or not isinstance(space[1], TBatch):
        return None
    keys, values = space
    return keys.data, np.asarray(_num(values.data), dtype=np.float64)


def _neg_value(rt: _Runtime, value):
    if isinstance(value, TBatch):
        data = -_num(value.data)
        bounds = value.bounds
        return TBatch(data, None if bounds is None or data.dtype.kind not in "iu"
                      else _int64_bounds(-bounds[1], -bounds[0]))
    if isinstance(value, (TFlat, TWindow)):
        flat = _flatten(rt, value)
        return TFlat(flat.cols, -flat.vals, flat.rows, flat.bounds, flat.every_lane)
    return v_mul(-1, value) if not is_scalar(value) else -value


def _union(left, right):
    if left is None or right is None:
        return None
    return min(left[0], right[0]), max(left[1], right[1])


def _add_values(rt: _Runtime, left, right):
    if is_scalar(left) and is_zero(left):
        return right
    if is_scalar(right) and is_zero(right):
        return left
    if not _is_batched(left) and not _is_batched(right):
        return v_add(left, right)
    if isinstance(left, TBatch) or isinstance(right, TBatch):
        data = np.asarray(_lane_num(left) + _lane_num(right))
        # A run of keys plus a constant is a run: `row + 1`.
        batch, other = (left, right) if isinstance(left, TBatch) else (right, left)
        run = batch.run
        if run is None or run[0] is not None or not isinstance(other, (int, np.integer)):
            run = None
        else:
            run = (None, run[1] + int(other))
        return TBatch(data, _int_bounds(data, left, right), run)
    if _is_dict_batched(left) and _is_dict_batched(right):
        lflat = _flatten(rt, left)
        rflat = _flatten(rt, right)
        if len(lflat.cols) != len(rflat.cols):
            raise Untyped("mixed-depth dictionary addition in batched body")
        return TFlat([np.concatenate([a, b]) for a, b in zip(lflat.cols, rflat.cols)],
                     np.concatenate([lflat.vals, rflat.vals]),
                     np.concatenate([lflat.rows, rflat.rows]),
                     [_union(a, b) for a, b in zip(lflat.bounds, rflat.bounds)])
    raise Untyped("dictionary addition does not batch")


def _scale_dict(rt: _Runtime, dct, factor):
    """``factor * dct`` where ``dct`` is per-lane and ``factor`` scalar-per-lane."""
    if is_scalar(factor):
        if is_zero(factor):
            return 0
    else:
        factor = _num(factor.data)
    if isinstance(dct, TWindow) and dct.levels is None:
        dct = _flatten(rt, dct)   # read now, while it may be one range
    if isinstance(dct, TFlat):
        scale = factor if is_scalar(factor) or dct.every_lane else factor[dct.rows]
        return TFlat(dct.cols, _product(dct.vals, scale), dct.rows, dct.bounds, dct.every_lane)
    if isinstance(dct, TWindow):
        factor = np.full(dct.owner.shape[0], float(factor)) if is_scalar(factor) \
            else factor.astype(np.float64)
        # A zero factor annihilates the whole per-lane dictionary (v_mul
        # prunes it), so iteration must not see its entries: empty the window.
        return dct.masked(factor != 0, factor)
    raise Untyped("dictionary scaling does not batch")


def _mul_values(rt: _Runtime, left, right):
    if not _is_batched(left) and not _is_batched(right):
        return v_mul(left, right)
    scalarish_left = isinstance(left, TBatch) or is_scalar(left)
    scalarish_right = isinstance(right, TBatch) or is_scalar(right)
    if scalarish_left and scalarish_right:
        return TBatch(np.asarray(_product(_lane_num(left), _lane_num(right))))
    if _is_dict_batched(left) and scalarish_right:
        return _scale_dict(rt, left, right)
    if _is_dict_batched(right) and scalarish_left:
        return _scale_dict(rt, right, left)
    if isinstance(left, TBatch) or isinstance(right, TBatch):
        # per-lane scalar × loop-invariant dictionary
        factor = left if isinstance(left, TBatch) else right
        other = right if isinstance(left, TBatch) else left
        data = _num(factor.data).astype(np.float64)
        return _invariant_lanes(rt, other, data != 0, data,
                                "batched multiplication with a materialized dictionary")
    raise Untyped("dictionary × dictionary in batched body")


def _singleton_lanes(rt: _Runtime, key: TBatch, value) -> TFlat:
    """``{ key[i] -> value[i] }`` per lane, for a batched ``DictExpr``: an
    entry bag.

    A lane whose value is zero holds no entry (``{k -> 0}`` is ``{}``), so
    the lanes of a lookup that missed never reach a reduction; adding a zero
    changes no sum, so dropping them leaves every result bit for bit.
    """
    lanes = key.data.shape[0]
    if is_scalar(value):
        value = TBatch(np.full(lanes, value))
    if isinstance(value, TBatch):
        vals = np.asarray(value.data).astype(np.float64, copy=False)
        keep = vals != 0
        if keep.all():
            return TFlat([key.data], vals, np.arange(lanes, dtype=np.int64), [key.bounds], True)
        rows = np.flatnonzero(keep)
        return TFlat([key.data[rows]], vals[rows], rows, [key.bounds])
    if isinstance(value, (TWindow, TFlat)):
        flat = _flatten(rt, value)
        col = key.data if flat.every_lane else key.data[flat.rows]
        return TFlat([col] + flat.cols, flat.vals, flat.rows, [key.bounds] + flat.bounds,
                     flat.every_lane)
    raise Untyped("dictionary value does not batch")


# ---------------------------------------------------------------------------
# Lowering: AST -> closures
# ---------------------------------------------------------------------------


def _note_fallback(rt: _Runtime, slot, source: Expr, reason: str) -> None:
    """Count a ``sum``/``merge`` that runs as a Python loop; say so once per run."""
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


def _segment_sum(expr: Sum) -> tuple[str, str, Expr] | None:
    """``(T, P, e)`` when ``expr`` is ``sum(<p, v> in T(P(e):P(e + 1))) body``
    over globals ``T`` and ``P``, with a ``body`` that reads only ``p`` and
    ``v``: its value depends on the segment ``e`` alone.

    The body also runs no loop of its own, so the table answering this
    ``sum`` is all a profiled run would have recorded for it.
    """
    source = expr.source
    if not (isinstance(source, SliceGet) and isinstance(source.target, Sym)
            and isinstance(source.lo, Get) and isinstance(source.hi, Get)):
        return None
    lo, hi = source.lo, source.hi
    if not (isinstance(lo.target, Sym) and hi.target == lo.target and _is_key(lo.key)
            and hi.key == Add(lo.key, Const(1))):
        return None
    if not (free_indices(expr.body) <= {0, 1} and _is_key(expr.body)):
        return None
    return source.target.name, lo.target.name, lo.key


#: The values a kept re-layout may read: the catalog's containers, which no
#: write changes in place (``docs/formats.md``), and scalars.
_STORED_TYPES = (np.ndarray, PhysicalArray, PhysicalHashMap, PhysicalTrie)


def _stored_inputs(env: Mapping[str, Any], names: list) -> tuple | None:
    """The env values of ``names``, or ``None`` when one is not stored data."""
    inputs = tuple(env.get(name) for name in names)
    if all(isinstance(value, _STORED_TYPES) or is_scalar(value) for value in inputs):
        return inputs
    return None


def _same_inputs(refs: tuple, inputs: tuple) -> bool:
    """The identical containers, and scalars of equal value and type."""
    return all(old() is value if isinstance(old, weakref.ref)
               else type(old) is type(value) and old == value
               for old, value in zip(refs, inputs))


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

    refs = tuple(item if is_scalar(item) else weakref.ref(item, forget)
                 for item in inputs)
    kept[slot] = (refs, value, loops, token)


class _Lowerer:
    """Translates a De Bruijn plan into a tree of typed evaluation closures."""

    def __init__(self) -> None:
        self.sum_count = 0
        self.merge_count = 0
        self.sum_sources: dict[int, Expr] = {}  # slot -> source expression
        # slot -> (input refs, value, loop records, token) of each kept re-layout
        self.kept: dict = {}

    def lower(self, expr: Expr, root: bool = False) -> _Closure:
        """The closure evaluating ``expr``; ``root`` when its value is the
        plan's value (the plan itself, or the body of a top-level ``let``)."""
        if isinstance(expr, Const):
            value = expr.value
            return lambda frames, rt: value
        if isinstance(expr, Sym):
            name = expr.name
            def sym_f(frames, rt):
                try:
                    return rt.env[name]
                except KeyError:
                    raise ExecutionError(f"unknown global symbol {name!r}") from None
            return sym_f
        if isinstance(expr, Idx):
            index = expr.index
            def idx_f(frames, rt):
                if index >= len(frames):
                    raise ExecutionError(f"unbound De Bruijn index %{index}")
                value = frames[-1 - index]
                return value.force(rt) if isinstance(value, _Deferred) else value
            return idx_f
        if isinstance(expr, Var):
            raise ExecutionError("named variables must be converted to De Bruijn form first")
        if isinstance(expr, Neg):
            operand_f = self.lower(expr.operand)
            return lambda frames, rt: _neg_value(rt, operand_f(frames, rt))
        if isinstance(expr, Not):
            operand_f = self.lower(expr.operand)
            def not_f(frames, rt):
                value = operand_f(frames, rt)
                if isinstance(value, TBatch):
                    return TBatch(np.logical_not(value.data.astype(bool)))
                if _is_batched(value):
                    raise Untyped("boolean negation of a dictionary in batched body")
                return not truthy(value)
            return not_f
        if isinstance(expr, (Add, Sub)):
            subtract = isinstance(expr, Sub)
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def add_f(frames, rt):
                left, right = left_f(frames, rt), right_f(frames, rt)
                if not _is_batched(left) and not _is_batched(right):
                    return v_sub(left, right) if subtract else v_add(left, right)
                if subtract:
                    right = _neg_value(rt, right)
                return _add_values(rt, left, right)
            return add_f
        if isinstance(expr, Mul):
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            return lambda frames, rt: _mul_values(
                rt, left_f(frames, rt), right_f(frames, rt))
        if isinstance(expr, Div):
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def div_f(frames, rt):
                left, right = left_f(frames, rt), right_f(frames, rt)
                if isinstance(left, TBatch) or isinstance(right, TBatch):
                    divisor = _lane_num(right)
                    # A zero divisor on any lane must surface as the same
                    # ZeroDivisionError the other backends raise: fall back.
                    if np.any(np.asarray(divisor) == 0):
                        raise Untyped("zero divisor in batched body")
                    return TBatch(np.asarray(_lane_num(left) / divisor))
                if _is_batched(left) or _is_batched(right):
                    raise Untyped("dictionary division in batched body")
                if not (is_scalar(left) and is_scalar(right)):
                    raise EvaluationError("division is only defined on scalars")
                return left / right
            return div_f
        if isinstance(expr, Cmp):
            comparator = COMPARATORS[expr.op]
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            op = expr.op
            def cmp_f(frames, rt):
                left, right = left_f(frames, rt), right_f(frames, rt)
                if isinstance(left, TBatch) or isinstance(right, TBatch):
                    decided = _decide(op, _lane_bounds(left), _lane_bounds(right))
                    if decided is not None:
                        rt.proven_guards += 1
                        return decided
                    return TBatch(np.asarray(comparator(_lane_data(left),
                                                        _lane_data(right))))
                if _is_batched(left) or _is_batched(right):
                    raise Untyped("dictionary comparison in batched body")
                if not (is_scalar(left) and is_scalar(right)):
                    raise EvaluationError("comparisons are only defined on scalars")
                return bool(comparator(left, right))
            return cmp_f
        if isinstance(expr, (And, Or)):
            combine = np.logical_and if isinstance(expr, And) else np.logical_or
            short_circuit_on = isinstance(expr, Or)
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def bool_f(frames, rt):
                left = left_f(frames, rt)
                if isinstance(left, TBatch):
                    right = right_f(frames, rt)
                    if is_scalar(right):    # e.g. a guard the bounds decided
                        if truthy(right) == short_circuit_on:
                            return short_circuit_on
                        return TBatch(left.data.astype(bool))
                    return TBatch(combine(left.data.astype(bool),
                                          np.asarray(_lane_data(right)).astype(bool)))
                if _is_batched(left):
                    raise Untyped("boolean connective over a dictionary in batched body")
                if truthy(left) == short_circuit_on:
                    return short_circuit_on
                right = right_f(frames, rt)
                if isinstance(right, TBatch):
                    return TBatch(right.data.astype(bool))
                if _is_batched(right):
                    raise Untyped("boolean connective over a dictionary in batched body")
                return truthy(right)
            return bool_f
        if isinstance(expr, Get):
            target_f, key_f = self._lower_operand(expr.target), self.lower(expr.key)
            def get_f(frames, rt):
                target = target_f(frames, rt)
                key = key_f(frames, rt)
                if isinstance(key, TBatch):
                    q, valid = _int_lanes(key.data)
                    lanes = TBatch(q) if valid is not None else \
                        key if q is key.data else TBatch(q, key.bounds, key.run)
                    value = _lookup_batched(rt, target, lanes, valid)
                    if value is None:
                        raise Untyped(
                            f"vector-key lookup into {type(target).__name__}")
                    return value
                if _is_batched(key):
                    raise Untyped("dictionary-valued key in batched body")
                if _is_batched(target):
                    norm = normalize_key(key)
                    index = integral_index(norm)
                    if index is None:
                        return 0  # per-lane containers are integer-keyed
                    q = TBatch(np.full(rt.lanes, index, dtype=np.int64), (index, index))
                    value = _lookup_batched(rt, target, q, None)
                    if value is None:
                        raise Untyped(
                            f"scalar lookup into batched {type(target).__name__}")
                    return value
                return lookup(target, normalize_key(key))
            return get_f
        if isinstance(expr, RangeExpr):
            lo_f, hi_f = self.lower(expr.lo), self.lower(expr.hi)
            def range_f(frames, rt):
                lo, hi = lo_f(frames, rt), hi_f(frames, rt)
                if _is_batched(lo) or _is_batched(hi):
                    return _batched_slice(rt, None, lo, hi)
                return RangeDict(int(lo), int(hi))
            return range_f
        if isinstance(expr, SliceGet):
            target_f = self.lower(expr.target)
            lo_f, hi_f = self.lower(expr.lo), self.lower(expr.hi)
            def slice_f(frames, rt):
                target = target_f(frames, rt)
                lo, hi = lo_f(frames, rt), hi_f(frames, rt)
                if _is_batched(target):
                    raise Untyped("batched slice target")
                if _is_batched(lo) or _is_batched(hi):
                    array = _array(target)
                    if array is None:
                        raise Untyped("slice of a non-array with batched bounds")
                    return _batched_slice(rt, array, lo, hi)
                return SliceDict(target, int(lo), int(hi))
            return slice_f
        if isinstance(expr, DictExpr):
            key_f, value_f = self.lower(expr.key), self.lower(expr.value)
            def dict_f(frames, rt):
                key = key_f(frames, rt)
                value = value_f(frames, rt)
                if _is_dict_batched(key):
                    raise Untyped("dictionary-valued key")
                if isinstance(key, TBatch) or _is_batched(value):
                    if isinstance(key, TBatch):
                        klanes, kvalid = _int_lanes(key.data)
                        if kvalid is not None:
                            raise Untyped("non-integer dictionary keys in batched body")
                        klanes = TBatch(klanes, key.bounds)
                    elif is_scalar(key):
                        norm = normalize_key(key)
                        index = integral_index(norm)
                        if index is None:
                            raise Untyped("non-integer dictionary key in batched body")
                        klanes = TBatch(np.full(rt.lanes, index, dtype=np.int64),
                                        (index, index))
                    else:
                        raise EvaluationError("dictionary keys must evaluate to scalars")
                    return _singleton_lanes(rt, klanes, value)
                if is_zero(value):
                    return SemiringDict()
                return SemiringDict({normalize_key(key): value})
            return dict_f
        if isinstance(expr, IfThen):
            cond_f, then_f = self.lower(expr.cond), self.lower(expr.then)
            def if_f(frames, rt):
                cond = cond_f(frames, rt)
                if isinstance(cond, TBatch):
                    mask = cond.data.astype(bool)
                    return _apply_mask(rt, then_f(frames, rt), mask)
                if _is_batched(cond):
                    raise Untyped("dictionary-valued condition")
                if truthy(cond):
                    return then_f(frames, rt)
                return 0
            return if_f
        if isinstance(expr, Let):
            value_f, body_f = self.lower(expr.value), self.lower(expr.body, root)
            def let_f(frames, rt):
                frames.append(value_f(frames, rt))
                try:
                    return body_f(frames, rt)
                finally:
                    frames.pop()
            return let_f
        if isinstance(expr, Sum):
            return self._maybe_memoize(expr, root, self._lower_sum(expr, root))
        if isinstance(expr, Merge):
            return self._maybe_memoize(expr, root, self._lower_merge(expr))
        raise ExecutionError(f"cannot lower node of type {type(expr).__name__}")

    def _lower_operand(self, expr: Expr) -> _Closure:
        """Lower a ``sum`` source or a lookup target.

        A closed re-layout there (:func:`_is_relayout`) is kept across runs
        (:meth:`_keep`); any other operand lowers as usual.
        """
        if isinstance(expr, Sum) and not free_indices(expr) and _is_relayout(expr):
            return self._maybe_memoize(expr, False, self._lower_sum(expr), keep=True)
        return self.lower(expr)

    def _maybe_memoize(self, expr: Expr, root: bool, closure: _Closure,
                       keep: bool = False) -> _Closure:
        """Cache closed (loop-invariant) sums/merges once per execution.

        Invariant subplans the optimizer leaves inside loops (e.g. a whole
        operand transpose) are computed once per run — and because this
        backend computes them, they materialize directly as
        :class:`BufferDict` views that downstream batched iteration and
        lookups consume with no conversion walk.  The slot is the
        expression itself, so every occurrence of one invariant (a
        factorized plan may iterate a transpose and look rows up in it)
        shares a single evaluation.  With ``keep`` the value also outlives
        the run (:meth:`_keep`).
        """
        if free_indices(expr):
            return closure
        slot = (expr, root)

        def evaluate(rt):
            batched, lanes = rt.batched, rt.lanes
            rt.batched, rt.lanes = False, 0
            try:
                # Closed subplans reference no loop variables: evaluate with
                # an empty frame stack so the invariant's own batched sums
                # never try to reindex outer-lane frames.
                return closure([], rt)
            finally:
                rt.batched, rt.lanes = batched, lanes

        if keep:
            evaluate = self._keep(slot, sorted(symbols(expr)), evaluate)

        def memoized(frames, rt):
            try:
                return rt.invariants[slot]
            except KeyError:
                pass
            value = rt.invariants[slot] = evaluate(rt)
            return value
        return memoized

    def _keep(self, slot, names: list, evaluate: Callable[[_Runtime], Any]):
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

        def keep(rt):
            inputs = _stored_inputs(rt.env, names)
            if inputs is None:
                return evaluate(rt)
            entry = kept.get(slot)
            if entry is not None and _same_inputs(entry[0], inputs):
                rt.relayouts_reused += 1
                _, value, loops, _ = entry
            else:
                outer, rt.profile = rt.profile, ExecutionProfile()
                fallbacks = len(rt.fallbacks)
                try:
                    value = evaluate(rt)
                finally:
                    loops, rt.profile = rt.profile, outer
                rt.relayouts_built += 1
                if len(rt.fallbacks) == fallbacks:
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

    def _lower_sum(self, expr, root: bool = False) -> _Closure:
        self.sum_count += 1
        slot = self.sum_count
        self.sum_sources[slot] = expr.source
        source_f, body_f = self._lower_operand(expr.source), self.lower(expr.body)

        def python_loop(frames, rt, source, reason):
            _note_fallback(rt, slot, expr.source, reason)
            accumulator: Any = 0
            iterations = 0
            for key, value in iter_items(source):
                iterations += 1
                frames.append(key)
                frames.append(value)
                try:
                    term = body_f(frames, rt)
                finally:
                    frames.pop()
                    frames.pop()
                accumulator = v_add(accumulator, term)
            if rt.profile is not None:
                rt.profile.record_loop(slot, iterations)
            return accumulator

        def sum_batched(frames, rt, source):
            lanes = rt.lanes
            expanded = _expand_source(rt, source, lanes)
            if not isinstance(expanded, tuple):
                if rt.profile is not None and lanes:
                    rt.profile.record_loop(slot, 0, entries=lanes)
                return expanded  # the source is empty on every lane
            parent, keys, values, counts = expanded
            if rt.profile is not None and lanes:
                # parent has one lane per (outer lane, inner element) pair:
                # the total inner iteration count across the outer lanes.
                rt.profile.record_loop(slot, parent.shape[0], entries=lanes)
            if parent.shape[0] == 0:
                return 0
            new_frames = _defer_frames(frames, parent)
            new_frames.append(keys)
            new_frames.append(values)
            rt.lanes = parent.shape[0]
            try:
                result = body_f(new_frames, rt)
            finally:
                rt.lanes = lanes
            return _reduce_expanded(rt, result, parent, lanes, counts)

        segments = _segment_sum(expr)
        table_f = None if segments is None else \
            self._segment_table(slot, segments, sum_batched)

        def sum_f(frames, rt):
            if rt.batched and table_f is not None:
                value = table_f(frames, rt)
                if value is not None:
                    return value
            source = source_f(frames, rt)
            if rt.batched:
                return sum_batched(frames, rt, source)
            reason = "its typed attempt already failed in this run"
            if slot not in rt.failed_batch:
                space = _iteration_space(rt, source)
                if space is None:
                    reason = f"cannot batch iteration over {type(source).__name__}"
                else:
                    keys, values = space
                    lanes = keys.data.shape[0]
                    if rt.profile is not None:
                        rt.profile.record_loop(slot, lanes)
                    if lanes == 0:
                        return 0
                    outer_lanes = rt.lanes
                    rt.batched, rt.lanes = True, lanes
                    frames.append(keys)
                    frames.append(values)
                    try:
                        body_value = body_f(frames, rt)
                    except Untyped as exc:
                        rt.failed_batch.add(slot)
                        reason = str(exc)
                    else:
                        return _reduce_lanes(rt, body_value, lanes, root)
                    finally:
                        frames.pop()
                        frames.pop()
                        rt.batched, rt.lanes = False, outer_lanes
            return python_loop(frames, rt, source, reason)

        return sum_f

    def _segment_table(self, slot: int, segments: tuple,
                       sum_batched: Callable) -> _Closure:
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
        key_f = self.lower(key_expr)
        table_slot = ("segments", slot)

        def build(rt, target, pos):
            count = pos.shape[0] - 1
            lo = _read(rt, pos, _range_lanes(0, count))
            hi = _read(rt, pos, _range_lanes(1, count + 1))
            lanes, profile = rt.lanes, rt.profile
            rt.lanes, rt.profile = count, None
            try:
                values = sum_batched([], rt, _batched_slice(rt, target, lo, hi))
            except Untyped:
                return None
            finally:
                rt.lanes, rt.profile = lanes, profile
            if not (isinstance(values, TBatch) and values.data.shape == (count,)):
                return None
            counts = np.diff(pos)
            return values.data, counts, not counts.all()

        def table_f(frames, rt):
            key = key_f(frames, rt)
            if not isinstance(key, TBatch) or key.data.dtype.kind not in "iu" \
                    or (key.run is not None and key.run[0] is None):
                return None
            pos, target = _array(rt.env.get(pos_name)), _array(rt.env.get(target_name))
            if pos is None or target is None:
                return None
            fact = _fact(rt, pos)
            lanes, count = key.data.shape[0], pos.shape[0] - 1
            if fact is None or not fact.ordered or not _within(key.bounds, 0, count - 1) \
                    or count > lanes or int(pos[-1]) - int(pos[0]) > lanes:
                return None
            if table_slot not in rt.invariants:
                rt.invariants[table_slot] = build(rt, target, pos)
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

    def _lower_merge(self, expr) -> _Closure:
        self.merge_count += 1
        slot = ("merge", self.merge_count)
        left_f, right_f = self.lower(expr.left), self.lower(expr.right)
        body_f = self.lower(expr.body)

        def python_merge(frames, rt, left, right, reason):
            _note_fallback(rt, slot, expr.left, reason)
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
                        term = body_f(frames, rt)
                    finally:
                        del frames[-3:]
                    accumulator = v_add(accumulator, term)
            return accumulator

        def merge_f(frames, rt):
            if rt.batched:
                raise Untyped("merge inside a batched body")
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
                    rt.batched, rt.lanes = True, lanes
                    frames.append(TBatch(key1))
                    frames.append(TBatch(key2))
                    frames.append(TBatch(values))
                    try:
                        body_value = body_f(frames, rt)
                    except Untyped as exc:
                        reason = str(exc)
                    else:
                        return _reduce_lanes(rt, body_value, lanes)
                    finally:
                        del frames[-3:]
                        rt.batched, rt.lanes = False, outer_lanes
            return python_merge(frames, rt, left, right, reason)

        return merge_f


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


def typed_plan(plan: Expr, name: str = "typed_plan") -> TypedPlan:
    """Lower a physical plan (De Bruijn form) for typed-buffer execution.

    The returned :class:`TypedPlan` evaluates nested ``sum`` loops by lane
    expansion over flat columnar buffers, with a per-loop Python fallback for
    untypeable constructs; results are identical to the reference
    interpreter (dictionary results come back as lazy
    :class:`~repro.execution.buffers.BufferDict` views).
    """
    lowerer = _Lowerer()
    root = lowerer.lower(plan, root=True)

    def function(env: Mapping[str, Any], stats: dict | None = None,
                 profile=None, dense_shape: tuple[int, ...] | None = None) -> Any:
        rt = _Runtime(env, profile, dense_shape)
        result = root([], rt)
        if stats is not None:
            stats["sum_loops"] = lowerer.sum_count
            stats["merge_loops"] = lowerer.merge_count
            stats["fallback_sums"] = sum(
                1 for slot in rt.fallbacks if isinstance(slot, int))
            stats["fallback_merges"] = sum(
                1 for slot in rt.fallbacks if not isinstance(slot, int))
            stats["fallback_reasons"] = dict(Counter(rt.fallbacks.values()))
            for regime in GROUP_REGIMES:
                stats[f"group_by_{regime}"] = rt.regimes[regime]
            for regime in LOOKUP_REGIMES:
                stats[f"lookup_{regime}"] = rt.lookups[regime]
            stats["dense_sink"] = rt.dense_sinks
            stats["relayouts_built"] = rt.relayouts_built
            stats["relayouts_reused"] = rt.relayouts_reused
            stats["levelized"] = rt.levelized
            stats["proven_guards"] = rt.proven_guards
            stats["contiguous_reads"] = rt.contiguous_reads
            stats["segment_tables"] = rt.segment_tables
        return result

    return TypedPlan(plan=plan, function=function, sum_count=lowerer.sum_count,
                     sum_sources=lowerer.sum_sources, kept=lowerer.kept)
