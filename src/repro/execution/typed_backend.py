"""Typed-buffer compiled execution of physical SDQLite plans.

The execution backend (``backend="typed"``, the default everywhere; the
reference interpreter is the only other one).  A ``sum`` loop is evaluated
as one batched array expression over its iteration space — one *lane* per
iteration — and what is nested inside a batched body stays batched:

* every collection is viewed through the flat columnar buffers of
  :mod:`repro.execution.buffers` (one sorted int64 key array per nesting
  level plus segment pointers and a float64 leaf array),
* a ``sum`` nested inside a batched body **expands the lane space** instead
  of bailing out: each outer lane fans out into its iteration sub-space
  (``expand_lanes`` over per-lane slice bounds or trie segments); an
  enclosing binding is gathered onto the expanded lanes only when the body
  reads it, through one composed lane map however many expansions lie
  between (bindings nobody reads are never expanded),
* integer lanes carry what is proven about them — bounds, and being a run
  ``start:start+n`` or ``array[s:s+n]`` — from ranges, ``+ c`` and the facts
  the storage declares (:mod:`repro.storage.facts`); a guard they decide is
  one boolean, a gather they bound scans nothing, a lookup with a run of
  keys is a view, and a traversal ``P(s):P(s+1)`` of a non-decreasing ``P``
  is one position range,
* a ``sum`` over ``T(P(e):P(e + 1))`` whose body reads only its own two
  binders has one value per segment of ``P``: nested in a batched body it
  is evaluated once over every segment, as one position range, and each
  outer lane gathers its value at ``e`` (a *segment table*, built per run),
* lookups with per-lane keys into nested dictionaries become one lookup of
  a composite (parent, key) integer over the level's order — one gather
  through a position table when the key range is dense, a ``searchsorted``
  otherwise (:func:`~repro.execution.buffers.lookup_sorted`) — and into a
  per-lane entry bag (a dictionary an inner ``sum`` just built) one
  comparison plus one ``np.bincount``,
* ``merge`` over flat scalar-valued collections becomes a value-sorted join
  (argsort + ``searchsorted``) instead of a per-key Python dict of lists,
* dictionary-shaped loop bodies accumulate as flat (coords, values) entry
  bags whose final reduction is one order-aware group-by-sum
  (:func:`repro.storage.formats.group_sum`, which sorts only entries that
  do not already arrive in order) producing a
  :class:`~repro.execution.buffers.BufferDict` — a lazy view the engine's
  ``result_to_*`` helpers scatter straight into dense output,
* except at the root of a run whose caller asked for a dense shape: there
  the entry bag accumulates straight into the output array, one
  ``np.bincount`` over the linearized coordinate (:class:`DenseResult`),
  with the same per-cell sums in the same order.

Every kernel is NumPy; pure Python remains the reference path.  A loop runs
as the plan says: an equality probe the optimizer could resolve is already a
lookup (:data:`repro.core.strategies.PROBE_TRANSFORMS`), and one it left is
iterated.

Anything the typed representation cannot hold (tuple or non-integral float
dictionary keys, ragged nesting, value types that only exist mid-expression)
raises :class:`Untyped`; the nearest enclosing non-batched ``sum`` (or
``merge``) then falls back to a plain Python loop — inside which nested
sums get a fresh chance to batch — so the backend executes every plan the
interpreter executes, with identical results.  The number of loops that took
the fallback, and why (``fallback_reasons``), is reported through the
optional ``stats`` sink (see :class:`TypedPlan`), and each fallback is a
debug event on ``logging.getLogger("repro.execution")``; ``docs/backends.md``
lists what is known not to kernelize.
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
    LevelView,
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


class TBatchDict:
    """A singleton dictionary ``{ key -> value }`` per lane.

    ``keys`` is int64 per lane, with its proven ``bounds`` if any (see
    :class:`TBatch`); ``value`` is a per-lane array (scalar leaf) or a nested
    :class:`TBatchDict`; ``mask`` marks lanes whose entry exists.
    """

    __slots__ = ("keys", "value", "mask", "bounds")

    def __init__(self, keys: np.ndarray, value, mask: np.ndarray | None = None,
                 bounds: tuple[int, int] | None = None):
        self.keys = keys
        self.value = value
        self.mask = mask
        self.bounds = bounds

    def with_mask(self, mask: np.ndarray) -> "TBatchDict":
        combined = mask if self.mask is None else (self.mask & mask)
        return TBatchDict(self.keys, self.value, combined, self.bounds)

    def scaled(self, factor) -> "TBatchDict":
        if isinstance(self.value, TBatchDict):
            value = self.value.scaled(factor)
        else:
            value = _num(np.asarray(self.value)) * factor
        return TBatchDict(self.keys, value, self.mask, self.bounds)


class TSlice:
    """A range/array-slice dictionary per lane, with per-lane bounds.

    ``target`` is a shared 1-D float array (``e(lo:hi)``) or ``None`` for a
    bare range ``lo:hi`` (values are the keys); ``lo``/``hi`` are int64 per
    lane.  ``span`` ``(first, end)``, when proven, holds every key in
    ``[first, end)``; ``contiguous`` that the lanes' ranges are back to back
    (``hi[i] == lo[i + 1]``) and none is negative — a full traversal of a
    segment array (:func:`_slice_lanes`).
    """

    __slots__ = ("target", "lo", "hi", "span", "contiguous")

    def __init__(self, target: np.ndarray | None, lo: np.ndarray, hi: np.ndarray,
                 span: tuple[int, int] | None = None, contiguous: bool = False):
        self.target = target
        self.lo = lo
        self.hi = hi
        self.span = span
        self.contiguous = contiguous


class TSegs:
    """A nested-dictionary segment per lane.

    Lane ``i`` denotes the children of entry ``owner[i]`` (an entry index at
    ``level - 1`` of ``levels``; ``owner[i] < 0`` means the empty
    dictionary).  ``scale`` is an optional per-lane scalar multiplier applied
    lazily at the leaves, so ``c * d`` never copies the buffers.
    """

    __slots__ = ("levels", "level", "owner", "scale")

    def __init__(self, levels: BufferLevels, level: int, owner: np.ndarray,
                 scale: np.ndarray | None = None):
        self.levels = levels
        self.level = level
        self.owner = owner
        self.scale = scale


class TFlat:
    """A general dictionary per lane, stored as a bag of (coords, value) entries.

    ``cols`` are int64 coordinate columns (outermost key first), ``vals``
    float64, ``rows`` the owning lane of each entry, ``bounds`` the proven
    ``(lo, hi)`` of each column or ``None``.  Semiring addition is
    concatenation; duplicate coordinates are resolved by the final
    group-by-sum reduction, matching the interpreter's ``v_add`` exactly.
    """

    __slots__ = ("cols", "vals", "rows", "bounds")

    def __init__(self, cols: list, vals: np.ndarray, rows: np.ndarray,
                 bounds: list | None = None):
        self.cols = cols
        self.vals = vals
        self.rows = rows
        self.bounds = bounds if bounds is not None else [None] * len(cols)


def _is_batched(value) -> bool:
    return isinstance(value, (TBatch, TBatchDict, TSlice, TSegs, TFlat))


def _is_dict_batched(value) -> bool:
    return isinstance(value, (TBatchDict, TSlice, TSegs, TFlat))


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


def _levels_of(rt: _Runtime, value) -> LevelView | None:
    """Cached :func:`to_buffer_levels` view of a collection.

    A stored hash-map or trie keeps its own view, built once
    (:meth:`~repro.storage.physical.PhysicalHashMap.level_view`).  Any other
    collection is cached per run, with a strong reference to the source
    object, so an ``id()`` can never be recycled into a stale hit mid-run.
    ``rt.levelized`` counts the walks.
    """
    if isinstance(value, BufferDict):
        return LevelView(value.levels, value.level, value.lo, value.hi)
    if isinstance(value, (PhysicalHashMap, PhysicalTrie)):
        rt.levelized += not value.levelized
        return value.level_view()
    key = id(value)
    hit = rt.buffers.get(key)
    if hit is not None:
        return hit[1]
    rt.levelized += 1
    view = to_buffer_levels(value)
    rt.buffers[key] = (value, view)
    return view


def _unwrap(value):
    if isinstance(value, PhysicalArray):
        return value.data
    return value


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

    def force(self):
        if self.forced is None:
            self.forced = _reindex(self.value, self.lanes.index)
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


def _reindex(value, parent: np.ndarray):
    """Re-map a per-lane value onto an expanded lane space (``new -> old``)."""
    if isinstance(value, TBatch):
        return TBatch(value.data[parent], value.bounds)
    if isinstance(value, TBatchDict):
        inner = value.value
        inner = _reindex(inner, parent) if isinstance(inner, TBatchDict) \
            else np.asarray(inner)[parent]
        mask = None if value.mask is None else value.mask[parent]
        return TBatchDict(value.keys[parent], inner, mask, value.bounds)
    if isinstance(value, TSlice):
        return TSlice(value.target, value.lo[parent], value.hi[parent], value.span)
    if isinstance(value, TSegs):
        scale = None if value.scale is None else value.scale[parent]
        return TSegs(value.levels, value.level, value.owner[parent], scale)
    if isinstance(value, TFlat):
        raise Untyped("cannot re-index an entry bag across a lane expansion")
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


def _batched_slice(rt: _Runtime, target: np.ndarray | None, lo, hi) -> TSlice:
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
    return TSlice(target, lo_lanes, hi_lanes, span, contiguous)


def _slice_lanes(rt: _Runtime, ts: TSlice):
    """``(parent, positions, counts)`` of a per-lane slice fanned out into lanes.

    A contiguous slice — ``P(s):P(s+1)`` over a non-decreasing ``P`` and a
    run of ``s`` — is the one range ``lo[0]:hi[-1]``: one ``repeat`` for the
    parent map and no clamp or contiguity scan (:func:`expand_lanes`).
    """
    if ts.contiguous and ts.lo.shape[0]:
        start, end = int(ts.lo[0]), int(ts.hi[-1])
        counts = ts.hi - ts.lo
        parent = np.repeat(np.arange(counts.shape[0], dtype=np.int64), counts)
        rt.contiguous_reads += 1
        return (parent, TBatch(np.arange(start, end, dtype=np.int64),
                               (start, end - 1), (None, start)), counts)
    counts = np.maximum(ts.hi - ts.lo, 0)
    parent, positions = expand_lanes(ts.lo, counts)
    bounds = None if ts.span is None else (ts.span[0], ts.span[1] - 1)
    return parent, TBatch(positions, bounds), counts


def _flatten_tbd(tbd: TBatchDict, lanes: int) -> TFlat:
    """The entry bag of a per-lane singleton-dictionary chain.

    A lane is an entry when every mask of the chain keeps it and its value
    is not zero: ``{k -> 0}`` is ``{}``, so the lanes of a lookup that
    missed (a resolved equality probe) never reach a reduction.  Adding a
    zero changes no sum, so dropping them leaves every result bit for bit.
    """
    cols: list = []
    bounds: list = []
    keep = None     # the lanes the masks keep; None: all of them
    node = tbd
    while isinstance(node, TBatchDict):
        if node.mask is not None:
            keep = node.mask if keep is None else keep & node.mask
        cols.append(node.keys)
        bounds.append(node.bounds)
        node = node.value
    vals = np.asarray(node).astype(np.float64, copy=False)
    nonzero = vals != 0
    keep = nonzero if keep is None else keep & nonzero
    if keep.all():
        return TFlat(cols, vals, np.arange(lanes, dtype=np.int64), bounds)
    sel = np.flatnonzero(keep)
    return TFlat([col[sel] for col in cols], vals[sel], sel, bounds)


def _flatten_segs(ts: TSegs) -> TFlat:
    """The entry bag of a per-lane nested-dictionary segment."""
    levels = ts.levels
    lanes = ts.owner.shape[0]
    rows = np.arange(lanes, dtype=np.int64)
    owner, scale = ts.owner, ts.scale
    keep = owner >= 0
    if not bool(keep.all()):
        rows, owner = rows[keep], owner[keep]
        if scale is not None:
            scale = scale[keep]
    cols: list = []
    level = ts.level
    while True:
        seg = levels.seg[level]
        starts = seg[owner]
        parent, pos = expand_lanes(starts, seg[owner + 1] - starts)
        rows = rows[parent]
        cols = [c[parent] for c in cols]
        if scale is not None:
            scale = scale[parent]
        cols.append(levels.keys[level][pos])
        if level == levels.depth - 1:
            vals = levels.values[pos]
            if scale is not None:
                vals = vals * scale
            bounds = [levels.known_bounds(d) for d in range(ts.level, level + 1)]
            return TFlat(cols, vals, rows, bounds)
        owner = pos
        level += 1


def _flatten_slice(rt: _Runtime, ts: TSlice) -> TFlat:
    rows, keys, _ = _slice_lanes(rt, ts)
    vals = np.asarray(_read(rt, ts.target, keys).data).astype(np.float64, copy=False)
    return TFlat([keys.data], vals, rows, [keys.bounds])


def _flatten(rt: _Runtime, value, lanes: int) -> TFlat:
    """The entry bag of any per-lane dictionary representation."""
    if isinstance(value, TFlat):
        return value
    if isinstance(value, TBatchDict):
        return _flatten_tbd(value, lanes)
    if isinstance(value, TSegs):
        return _flatten_segs(value)
    if isinstance(value, TSlice):
        return _flatten_slice(rt, value)
    raise Untyped(f"cannot flatten {type(value).__name__}")


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
        flat = _flatten(rt, body, lanes)
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
        flat = _flatten(rt, body, parent.shape[0])
        return TFlat(flat.cols, flat.vals, parent[flat.rows], flat.bounds)
    if is_scalar(body):
        if is_zero(body):
            return 0
        return TBatch(counts.astype(np.float64) * float(body))
    # A loop-invariant dictionary summed `counts[i]` times per outer lane.
    view = _levels_of(rt, body)
    if view is not None and view.level == 0 and view.lo == 0 \
            and view.hi == view.levels.keys[0].shape[0]:
        owner = np.where(counts > 0, 0, -1).astype(np.int64)
        return TSegs(view.levels, 0, owner, counts.astype(np.float64))
    raise Untyped("loop-invariant dictionary body does not flatten")


def _apply_mask(result, mask: np.ndarray):
    """Zero out the lanes where ``mask`` is False (``if`` filtering)."""
    if isinstance(result, TBatch):
        return TBatch(np.where(mask, _num(result.data), 0))
    if isinstance(result, TBatchDict):
        return result.with_mask(mask)
    if isinstance(result, TFlat):
        keep = mask[result.rows]
        return TFlat([c[keep] for c in result.cols], result.vals[keep],
                     result.rows[keep], result.bounds)
    if isinstance(result, TSegs):
        return TSegs(result.levels, result.level,
                     np.where(mask, result.owner, -1), result.scale)
    if isinstance(result, TSlice):
        return TSlice(result.target, np.where(mask, result.lo, 0),
                      np.where(mask, result.hi, 0), result.span)
    if is_scalar(result):
        if is_zero(result):
            return 0
        return TBatch(np.where(mask, result, 0))
    raise Untyped("conditional dictionary value in batched body")


# ---------------------------------------------------------------------------
# Iteration spaces, batched point lookups and lane expansion
# ---------------------------------------------------------------------------


def _range_lanes(lo: int, hi: int) -> TBatch:
    """The keys ``lo:hi``, one per lane, with what that proves."""
    return TBatch(np.arange(lo, hi, dtype=np.int64), (lo, hi - 1), (None, lo))


def _iteration_space(rt: _Runtime, source):
    """``(keys, values)`` for batching a non-batched sum source, else ``None``.

    Both are per-lane values; nested dictionaries and tries batch too: their
    value side is a :class:`TSegs` over the levelized buffers.
    """
    source = _unwrap(source)
    if isinstance(source, RangeDict):
        keys = _range_lanes(source.lo, source.hi)
        return keys, keys
    if isinstance(source, np.ndarray):
        if source.ndim != 1:
            return None
        return (_range_lanes(0, source.shape[0]),
                TBatch(source, _fact_bounds(rt, source), (source, 0)))
    if isinstance(source, SliceDict):
        target = _unwrap(source.target)
        if not (isinstance(target, np.ndarray) and target.ndim == 1):
            return None
        keys = _range_lanes(source.lo, source.hi)
        return keys, _read(rt, target, keys)
    view = _levels_of(rt, source)
    if view is None:
        return None
    levels = view.levels
    keys = TBatch(levels.keys[view.level][view.lo:view.hi],
                  levels.known_bounds(view.level))
    if view.is_leaf:
        return keys, TBatch(levels.values[view.lo:view.hi])
    return keys, TSegs(levels, view.level + 1,
                       np.arange(view.lo, view.hi, dtype=np.int64))


def _lookup_batched(rt: _Runtime, target, key: TBatch, valid: np.ndarray | None):
    """Per-lane point lookup ``target(key[i])``, ``None`` when the target kind
    does not support a batched lookup.

    ``key`` holds int64 lanes; ``valid``, when given, marks the lanes whose
    key is an integer at all (the others miss).
    """
    keys = key.data
    lanes = keys.shape[0]
    target = _unwrap(target)
    if is_scalar(target) and is_zero(target):
        return 0
    if isinstance(target, RangeDict):
        if valid is None and _within(key.bounds, target.lo, target.hi - 1):
            rt.proven_guards += 1
            return key
        found = (keys >= target.lo) & (keys < target.hi)
        if valid is not None:
            found = found & valid
        return TBatch(np.where(found, keys, 0))
    if isinstance(target, np.ndarray) and target.ndim == 1:
        if valid is None:
            return _read(rt, target, key)
        return TBatch(_gather(target, np.where(valid, keys, -1)))
    if isinstance(target, SliceDict):
        if valid is None and _within(key.bounds, target.lo, target.hi - 1):
            rt.proven_guards += 1
            return _lookup_batched(rt, target.target, key, None)
        in_slice = (keys >= target.lo) & (keys < target.hi)
        if valid is not None:
            in_slice = in_slice & valid
        value = _lookup_batched(rt, target.target, key, in_slice)
        return None if value is None else _apply_mask(value, in_slice)
    if isinstance(target, TSlice):
        in_slice = (keys >= target.lo) & (keys < target.hi)
        if valid is not None:
            in_slice = in_slice & valid
        return TBatch(np.where(in_slice, _gather(target.target, keys), 0))
    if isinstance(target, TSegs):
        levels = target.levels
        hit = levels.lookup_level(target.level, target.owner, keys, valid, key.bounds)
        if hit is None:
            raise Untyped("composite key overflow in nested lookup")
        pos, found, regime = hit
        rt.lookups[regime] += 1
        rt.proven_guards += _within(key.bounds, *levels.key_bounds(target.level))
        if target.level == levels.depth - 1:
            values = _safe_gather(levels.values, pos, found)
            if target.scale is not None:
                values = values * target.scale
            return TBatch(np.where(found, values, 0))
        return TSegs(levels, target.level + 1, np.where(found, pos, -1), target.scale)
    if isinstance(target, TBatchDict):
        found = target.keys == keys
        if target.mask is not None:
            found = found & target.mask
        if valid is not None:
            found = found & valid
        if isinstance(target.value, TBatchDict):
            return target.value.with_mask(found)
        return TBatch(np.where(found, _num(np.asarray(target.value)), 0))
    if isinstance(target, TFlat):
        # An entry bag: the entries whose outermost key is their lane's key.
        keep = target.cols[0] == keys[target.rows]
        if valid is not None:
            keep &= valid[target.rows]
        rows, vals = target.rows[keep], target.vals[keep]
        if len(target.cols) == 1:
            # bincount adds a lane's duplicates in input order, like v_add.
            return TBatch(np.bincount(rows, weights=vals, minlength=lanes))
        # Deeper: peel the matched column, summing per remaining key.
        cols = [rows] + [col[keep] for col in target.cols[1:]]
        take, vals, regime = group_sum(cols, vals)
        rt.regimes[regime] += 1
        if take is not None:
            cols = [col[take] for col in cols]
        return TFlat(cols[1:], vals, cols[0], target.bounds[1:])
    if _is_batched(target):
        return None
    view = _levels_of(rt, target)
    if view is None:
        return None
    levels = view.levels
    span = levels.keys[view.level][view.lo:view.hi]
    inside = span.shape[0] > 0 and _within(key.bounds, int(span[0]), int(span[-1]))
    pos, found, regime = lookup_sorted(span, keys, inside)
    rt.lookups[regime] += 1
    rt.proven_guards += inside
    pos = pos + view.lo
    if valid is not None:
        found = found & valid
    if view.is_leaf:
        return TBatch(np.where(found, _safe_gather(levels.values, pos, found), 0))
    return TSegs(levels, view.level + 1, np.where(found, pos, -1))


def _expand_source(rt: _Runtime, source, lanes: int):
    """Fan a batched sum source out into an expanded lane space.

    Returns ``(parent, keys, values, counts)`` — ``parent`` maps every new
    lane back to its outer lane, ``keys`` and ``values`` are per-lane values
    — or a plain scalar 0 when the source is the semiring zero on every lane.
    """
    if isinstance(source, TSlice):
        parent, keys, counts = _slice_lanes(rt, source)
        return parent, keys, _read(rt, source.target, keys), counts
    if isinstance(source, TSegs):
        levels = source.levels
        seg = levels.seg[source.level]
        owner = source.owner
        if owner.shape[0] and int(owner.min()) >= 0:
            starts = seg[owner]
            counts = seg[owner + 1] - starts
        else:   # lanes with the empty dictionary (owner < 0) iterate nothing
            safe = np.maximum(owner, 0)
            starts = seg[safe]
            ends = seg[np.minimum(safe + 1, seg.shape[0] - 1)]
            counts = np.where(owner >= 0, ends - starts, 0)
        parent, pos = expand_lanes(starts, counts)
        keys = TBatch(levels.keys[source.level][pos], levels.known_bounds(source.level))
        scale = None if source.scale is None else source.scale[parent]
        if source.level == levels.depth - 1:
            values = levels.values[pos]
            if scale is not None:
                values = values * scale
            return parent, keys, TBatch(values), counts
        return parent, keys, TSegs(levels, source.level + 1, pos, scale), counts
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
    counts = np.full(lanes, size, dtype=np.int64)
    if isinstance(inner_values, TBatch):
        return (parent, keys, TBatch(np.tile(inner_values.data, lanes), inner_values.bounds),
                counts)
    return (parent, keys,
            TSegs(inner_values.levels, inner_values.level,
                  np.tile(inner_values.owner, lanes)), counts)


def _flat_pairs(rt: _Runtime, value):
    """``(keys, values)`` float arrays of a flat scalar-valued collection.

    Used by the merge join; ``None`` when the collection is nested or not
    array-representable.
    """
    value = _unwrap(value)
    if isinstance(value, RangeDict):
        keys = np.arange(value.lo, value.hi, dtype=np.int64)
        return keys, keys.astype(np.float64)
    if isinstance(value, np.ndarray):
        if value.ndim != 1:
            return None
        return (np.arange(value.shape[0], dtype=np.int64),
                _num(value).astype(np.float64))
    if isinstance(value, SliceDict):
        target = _unwrap(value.target)
        if not (isinstance(target, np.ndarray) and target.ndim == 1):
            return None
        keys = np.arange(value.lo, value.hi, dtype=np.int64)
        return keys, np.asarray(_gather(target, keys), dtype=np.float64)
    if is_scalar(value) and is_zero(value):
        return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.float64)
    if not hasattr(value, "items") and not isinstance(value, (dict, SemiringDict)):
        return None
    view = _levels_of(rt, value)
    if view is None or not view.is_leaf:
        return None
    return (view.levels.keys[view.level][view.lo:view.hi],
            view.levels.values[view.lo:view.hi])


def _is_full_root(view: LevelView) -> bool:
    return (view.level == 0 and view.lo == 0
            and view.hi == view.levels.keys[0].shape[0])


def _neg_value(rt: _Runtime, value):
    if isinstance(value, TBatch):
        data = -_num(value.data)
        bounds = value.bounds
        return TBatch(data, None if bounds is None or data.dtype.kind not in "iu"
                      else _int64_bounds(-bounds[1], -bounds[0]))
    if isinstance(value, TBatchDict):
        return value.scaled(-1.0)
    if isinstance(value, (TFlat, TSegs, TSlice)):
        flat = _flatten(rt, value, rt.lanes)
        return TFlat(flat.cols, -flat.vals, flat.rows, flat.bounds)
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
        lflat = _flatten(rt, left, rt.lanes)
        rflat = _flatten(rt, right, rt.lanes)
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
        factor_arr = None
        scalar_factor = factor
    else:
        factor_arr = _num(factor.data)
        scalar_factor = None
    if isinstance(dct, TBatchDict):
        return dct.scaled(scalar_factor if factor_arr is None else factor_arr)
    if isinstance(dct, TSlice):
        dct = _flatten_slice(rt, dct)
    if isinstance(dct, TFlat):
        scale = scalar_factor if factor_arr is None else factor_arr[dct.rows]
        return TFlat(dct.cols, dct.vals * scale, dct.rows, dct.bounds)
    if isinstance(dct, TSegs):
        lanes = dct.owner.shape[0]
        fac = np.full(lanes, float(scalar_factor)) if factor_arr is None \
            else factor_arr.astype(np.float64)
        # A zero factor annihilates the whole per-lane dictionary (v_mul
        # prunes it), so iteration must not see its entries: kill the owner.
        owner = np.where(fac != 0, dct.owner, -1)
        scale = fac if dct.scale is None else dct.scale * fac
        return TSegs(dct.levels, dct.level, owner, scale)
    raise Untyped("dictionary scaling does not batch")


def _mul_values(rt: _Runtime, left, right):
    if not _is_batched(left) and not _is_batched(right):
        return v_mul(left, right)
    scalarish_left = isinstance(left, TBatch) or is_scalar(left)
    scalarish_right = isinstance(right, TBatch) or is_scalar(right)
    if scalarish_left and scalarish_right:
        return TBatch(np.asarray(_lane_num(left) * _lane_num(right)))
    if _is_dict_batched(left) and scalarish_right:
        return _scale_dict(rt, left, right)
    if _is_dict_batched(right) and scalarish_left:
        return _scale_dict(rt, right, left)
    if isinstance(left, TBatch) or isinstance(right, TBatch):
        # per-lane scalar × loop-invariant dictionary
        factor = left if isinstance(left, TBatch) else right
        other = right if isinstance(left, TBatch) else left
        view = _levels_of(rt, other)
        if view is not None and _is_full_root(view):
            data = _num(factor.data).astype(np.float64)
            owner = np.where(data != 0, 0, -1).astype(np.int64)
            return TSegs(view.levels, 0, owner, data)
        raise Untyped("batched multiplication with a materialized dictionary")
    raise Untyped("dictionary × dictionary in batched body")


def _singleton_lanes(rt: _Runtime, key: TBatch, value, lanes: int):
    """``{ key[i] -> value[i] }`` per lane, for a batched ``DictExpr``."""
    klanes, kbounds = key.data, key.bounds
    if isinstance(value, TBatch):
        return TBatchDict(klanes, value.data, None, kbounds)
    if isinstance(value, TBatchDict):
        return TBatchDict(klanes, value, None, kbounds)
    if isinstance(value, (TSegs, TSlice, TFlat)):
        flat = _flatten(rt, value, lanes)
        return TFlat([klanes[flat.rows]] + list(flat.cols), flat.vals, flat.rows,
                     [kbounds] + list(flat.bounds))
    if is_scalar(value):
        return TBatchDict(klanes, np.full(lanes, value), None, kbounds)
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
                return value.force() if isinstance(value, _Deferred) else value
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
                    array = _unwrap(target)
                    if not (isinstance(array, np.ndarray) and array.ndim == 1):
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
                    lanes = key.data.shape[0] if isinstance(key, TBatch) else rt.lanes
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
                        klanes = TBatch(np.full(lanes, index, dtype=np.int64),
                                        (index, index))
                    else:
                        raise EvaluationError("dictionary keys must evaluate to scalars")
                    return _singleton_lanes(rt, klanes, value, lanes)
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
                    then = then_f(frames, rt)
                    if not _is_batched(then) and not is_scalar(then):
                        view = _levels_of(rt, then)
                        if view is None or not _is_full_root(view):
                            raise Untyped(
                                "conditional dictionary value in batched body")
                        owner = np.where(mask, 0, -1).astype(np.int64)
                        return TSegs(view.levels, 0, owner)
                    return _apply_mask(then, mask)
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
            pos, target = _unwrap(rt.env.get(pos_name)), _unwrap(rt.env.get(target_name))
            if not (isinstance(pos, np.ndarray) and pos.ndim == 1
                    and isinstance(target, np.ndarray) and target.ndim == 1):
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
