"""Vectorized NumPy execution of physical SDQLite plans.

The third execution backend (``backend="vectorize"``).  Where the ``compile``
backend lowers every plan to nested scalar Python ``for`` loops, this module
evaluates whole loops at once with NumPy array operations:

* a ``sum`` over a range / array / segmented-array slice binds its key and
  value variables to **index vectors** ("lanes", one lane per iteration) and
  evaluates the loop body once over all lanes,
* scalar arithmetic, comparisons and conditionals inside the body become
  element-wise array expressions (``if (c) then e`` → ``np.where``),
* ``e(i)`` with a vector key over a physical array becomes a bounds-checked
  gather,
* a body of shape ``{ key -> value }`` becomes a scatter-add
  (``np.bincount`` on the key vector) producing the result dictionary in one
  step instead of per-iteration dictionary updates.

Not every construct vectorizes: nested ``sum``s inside an already-batched
body, ``merge``, iteration over tries / tuple-keyed hash-maps, and lookups
into non-array collections with vector keys all raise
:class:`Unvectorizable`.  The enclosing ``sum`` then **falls back** to a
plain Python loop over its iteration space — inside which inner ``sum``s get
their own chance to vectorize.  A typical CSR plan therefore runs its outer
row loop in Python and each row-segment reduction as one NumPy expression.
The fallback is per-``sum`` and automatic, so the backend executes every
plan the interpreter and the ``compile`` backend execute, with identical
results (see ``tests/test_vectorize.py`` for the kernel × format parity
matrix).

The lowering is closure-based: :func:`vectorize_plan` translates the De
Bruijn plan once into a tree of Python closures; executing the resulting
:class:`VectorizedPlan` re-runs the closures against an environment without
re-traversing the AST.  Lowered plans are environment-independent and are
cached by :class:`repro.execution.engine.PlanCache`.
"""

from __future__ import annotations

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
)
from ..sdqlite.errors import EvaluationError, ExecutionError
from ..sdqlite.values import (
    RangeDict,
    SemiringDict,
    SliceDict,
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
from ..storage.physical import PhysicalArray
from .lowering import COMPARATORS, NO_PROBE, is_closed, probe_entry, uses_sum_binders

__all__ = ["vectorize_plan", "VectorizedPlan", "Unvectorizable"]


class Unvectorizable(Exception):
    """Raised inside a batched body when a construct cannot be vectorized.

    Caught by the enclosing ``sum``, which falls back to a Python loop.
    """


class Batch:
    """A scalar value per lane: one NumPy array over the iteration space."""

    __slots__ = ("data",)

    def __init__(self, data: np.ndarray):
        self.data = data

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Batch({self.data!r})"


class BatchDict:
    """A singleton dictionary ``{ key -> value }`` per lane.

    ``keys`` holds one integer key per lane; ``value`` is either a
    :class:`Batch`-style array (scalar leaf per lane) or a nested
    :class:`BatchDict`; ``mask`` (optional boolean array) marks lanes whose
    entry exists at all (lanes filtered out by ``if`` conditions).
    Reduced to a real nested dictionary by :func:`_scatter`.
    """

    __slots__ = ("keys", "value", "mask")

    def __init__(self, keys: np.ndarray, value: "np.ndarray | BatchDict",
                 mask: np.ndarray | None = None):
        self.keys = keys
        self.value = value
        self.mask = mask

    def with_mask(self, mask: np.ndarray) -> "BatchDict":
        combined = mask if self.mask is None else (self.mask & mask)
        return BatchDict(self.keys, self.value, combined)

    def scaled(self, factor) -> "BatchDict":
        """Multiply every lane's leaf value by ``factor`` (array or scalar)."""
        if isinstance(self.value, BatchDict):
            return BatchDict(self.keys, self.value.scaled(factor), self.mask)
        return BatchDict(self.keys, self.value * factor, self.mask)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"BatchDict(keys={self.keys!r}, value={self.value!r}, mask={self.mask!r})"


class _Runtime:
    """Per-execution state threaded through the closures."""

    __slots__ = ("env", "batched", "lanes", "invariants", "failed_batch",
                 "fallbacks", "profile")

    def __init__(self, env: Mapping[str, Any], profile=None):
        self.env = env
        self.batched = False          # inside a vectorized sum body?
        self.lanes = 0                # lane count of the current batched body
        self.invariants: dict = {}    # slot -> value of closed (loop-invariant) subplans
        self.failed_batch: set = set()  # sum slots whose batched body failed this run
        self.fallbacks: set = set()   # loops that ran scalar Python this run
        self.profile = profile        # optional ExecutionProfile (loop counts)


_Closure = Callable[[list, _Runtime], Any]


# ---------------------------------------------------------------------------
# Batched helpers
# ---------------------------------------------------------------------------


def _is_batched(value) -> bool:
    return isinstance(value, (Batch, BatchDict))


def _lane_data(value):
    """Unwrap a scalar-or-:class:`Batch` operand for element-wise NumPy ops."""
    if isinstance(value, Batch):
        return value.data
    if is_scalar(value):
        return value
    raise Unvectorizable(f"non-scalar operand of type {type(value).__name__} in batched body")


def _key_lanes(value, lanes: int) -> np.ndarray:
    """Normalise a batched dictionary key to an int64 vector.

    BatchDict keys are integers; a non-integral key (which the interpreter
    would keep as a float key) raises :class:`Unvectorizable` so the
    enclosing sum falls back to the loop instead of silently truncating.
    """
    if isinstance(value, Batch):
        data = value.data
        if data.dtype.kind == "f":
            if not np.all(np.mod(data, 1) == 0):
                raise Unvectorizable("non-integer dictionary keys in batched body")
            return data.astype(np.int64)
        if data.dtype.kind in ("i", "u", "b"):
            return data.astype(np.int64)
        raise Unvectorizable(f"cannot use dtype {data.dtype} as dictionary keys")
    if is_scalar(value):
        as_float = float(value)
        if isinstance(value, (bool, np.bool_)) or as_float.is_integer():
            return np.full(lanes, int(as_float), dtype=np.int64)
        raise Unvectorizable("non-integer dictionary key in batched body")
    raise Unvectorizable("dictionary key is not a scalar in batched body")


def _value_lanes(value, lanes: int) -> "np.ndarray | BatchDict":
    """Normalise a batched dictionary value to an array (or nested BatchDict)."""
    if isinstance(value, BatchDict):
        return value
    if isinstance(value, Batch):
        return value.data
    if is_scalar(value):
        return np.full(lanes, value)
    raise Unvectorizable("dictionary value does not vectorize")


def _iteration_arrays(source) -> tuple[np.ndarray, np.ndarray] | None:
    """``(keys, values)`` arrays for a vectorizable iteration space, else ``None``.

    Vectorizable sources: ranges ``lo:hi``, one-dimensional physical arrays,
    segmented-array slices ``e(lo:hi)`` over physical arrays, and flat
    integer-keyed dictionaries with scalar values.  Tries, nested hash-maps
    and tuple-keyed dictionaries return ``None`` (the sum falls back to a
    Python loop whose inner sums may still vectorize).
    """
    if isinstance(source, PhysicalArray):
        source = source.data
    if isinstance(source, RangeDict):
        keys = np.arange(source.lo, source.hi, dtype=np.int64)
        return keys, keys
    if isinstance(source, np.ndarray):
        if source.ndim != 1:
            return None
        return np.arange(source.shape[0], dtype=np.int64), source
    if isinstance(source, SliceDict):
        target = source.target
        if isinstance(target, PhysicalArray):
            target = target.data
        if not (isinstance(target, np.ndarray) and target.ndim == 1):
            return None
        lo, hi = source.lo, source.hi
        keys = np.arange(lo, hi, dtype=np.int64)
        if 0 <= lo and hi <= target.shape[0]:
            return keys, target[lo:hi]
        # Out-of-bounds positions default to 0, like `lookup`.
        values = np.zeros(max(0, hi - lo), dtype=np.float64)
        clipped_lo, clipped_hi = max(lo, 0), min(hi, target.shape[0])
        if clipped_lo < clipped_hi:
            values[clipped_lo - lo:clipped_hi - lo] = target[clipped_lo:clipped_hi]
        return keys, values
    if isinstance(source, (dict, SemiringDict)):
        items = source.items() if isinstance(source, dict) else list(source.items())
        keys: list = []
        values: list = []
        for key, value in items:
            if isinstance(key, bool) or not isinstance(key, (int, np.integer)):
                return None
            if not is_scalar(value):
                return None
            keys.append(int(key))
            values.append(value)
        return (np.asarray(keys, dtype=np.int64),
                np.asarray(values, dtype=np.float64))
    return None


def _scatter(batch_dict: BatchDict, selection: np.ndarray):
    """Sum a per-lane singleton dictionary over the selected lanes.

    Returns a :class:`SemiringDict` (or 0 when every entry vanishes),
    matching the interpreter's per-iteration ``v_add`` accumulation with
    zero pruning.
    """
    if batch_dict.mask is not None:
        selection = selection[batch_dict.mask[selection]]
    if selection.size == 0:
        return 0
    keys = batch_dict.keys[selection]
    if isinstance(batch_dict.value, BatchDict):
        unique, inverse = np.unique(keys, return_inverse=True)
        out = {}
        for position in range(unique.shape[0]):
            child = _scatter(batch_dict.value, selection[inverse == position])
            if not is_zero(child):
                out[int(unique[position])] = child
        return SemiringDict(out) if out else 0
    values = np.asarray(batch_dict.value, dtype=np.float64)[selection]
    minimum, maximum = int(keys.min()), int(keys.max())
    if minimum >= 0 and maximum + 1 <= 4 * keys.size + 1024:
        totals = np.bincount(keys, weights=values, minlength=maximum + 1)
        nonzero = np.nonzero(totals)[0]
        out = {int(key): float(totals[key]) for key in nonzero}
    else:
        unique, inverse = np.unique(keys, return_inverse=True)
        sums = np.zeros(unique.shape[0], dtype=np.float64)
        np.add.at(sums, inverse, values)
        out = {int(key): float(total) for key, total in zip(unique, sums) if total != 0.0}
    return SemiringDict(out) if out else 0


def _reduce_batched(body, lanes: int):
    """Collapse the batched body result of a ``sum`` into one value."""
    if isinstance(body, Batch):
        return body.data.sum().item()
    if isinstance(body, BatchDict):
        return _scatter(body, np.arange(lanes, dtype=np.int64))
    # The body was constant across all lanes (no batched variable used).
    return v_mul(lanes, body)


# ---------------------------------------------------------------------------
# Lowering: AST -> closures
# ---------------------------------------------------------------------------


class _Lowerer:
    """Translates a De Bruijn plan into a tree of evaluation closures."""

    def __init__(self) -> None:
        self.sum_count = 0
        self.merge_count = 0
        self.invariant_slots = 0
        self.sum_sources: dict[int, Expr] = {}  # slot -> source expression

    def lower(self, expr: Expr) -> _Closure:
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
                return frames[-1 - index]
            return idx_f
        if isinstance(expr, Var):
            raise ExecutionError("named variables must be converted to De Bruijn form first")
        if isinstance(expr, Neg):
            operand_f = self.lower(expr.operand)
            def neg_f(frames, rt):
                value = operand_f(frames, rt)
                if isinstance(value, Batch):
                    return Batch(-value.data)
                if isinstance(value, BatchDict):
                    return value.scaled(-1.0)
                return v_mul(-1, value) if not is_scalar(value) else -value
            return neg_f
        if isinstance(expr, Not):
            operand_f = self.lower(expr.operand)
            def not_f(frames, rt):
                value = operand_f(frames, rt)
                if isinstance(value, Batch):
                    return Batch(np.logical_not(value.data.astype(bool)))
                if isinstance(value, BatchDict):
                    raise Unvectorizable("boolean negation of a dictionary in batched body")
                return not truthy(value)
            return not_f
        if isinstance(expr, Add):
            return self._lower_add(expr, subtract=False)
        if isinstance(expr, Sub):
            return self._lower_add(expr, subtract=True)
        if isinstance(expr, Mul):
            return self._lower_mul(expr)
        if isinstance(expr, Div):
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def div_f(frames, rt):
                left, right = left_f(frames, rt), right_f(frames, rt)
                if isinstance(left, Batch) or isinstance(right, Batch):
                    divisor = _lane_data(right)
                    # A zero divisor on any lane must surface as the same
                    # ZeroDivisionError the other backends raise, not as a
                    # silent inf/nan: let the enclosing sum fall back to its
                    # scalar loop, which divides lane by lane.
                    if np.any(np.asarray(divisor) == 0):
                        raise Unvectorizable("zero divisor in batched body")
                    return Batch(np.asarray(_lane_data(left) / divisor))
                if not (is_scalar(left) and is_scalar(right)):
                    raise EvaluationError("division is only defined on scalars")
                return left / right
            return div_f
        if isinstance(expr, Cmp):
            comparator = COMPARATORS[expr.op]
            left_f, right_f = self.lower(expr.left), self.lower(expr.right)
            def cmp_f(frames, rt):
                left, right = left_f(frames, rt), right_f(frames, rt)
                if isinstance(left, Batch) or isinstance(right, Batch):
                    return Batch(np.asarray(comparator(_lane_data(left), _lane_data(right))))
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
                if isinstance(left, Batch):
                    right = right_f(frames, rt)
                    return Batch(combine(left.data.astype(bool),
                                         np.asarray(_lane_data(right)).astype(bool)))
                if isinstance(left, BatchDict):
                    raise Unvectorizable("boolean connective over a dictionary in batched body")
                if truthy(left) == short_circuit_on:
                    return short_circuit_on
                right = right_f(frames, rt)
                if isinstance(right, Batch):
                    return Batch(right.data.astype(bool))
                return truthy(right)
            return bool_f
        if isinstance(expr, Get):
            return self._lower_get(expr)
        if isinstance(expr, RangeExpr):
            lo_f, hi_f = self.lower(expr.lo), self.lower(expr.hi)
            def range_f(frames, rt):
                lo, hi = lo_f(frames, rt), hi_f(frames, rt)
                if _is_batched(lo) or _is_batched(hi):
                    raise Unvectorizable("range bounds depend on batched variables")
                return RangeDict(int(lo), int(hi))
            return range_f
        if isinstance(expr, SliceGet):
            target_f = self.lower(expr.target)
            lo_f, hi_f = self.lower(expr.lo), self.lower(expr.hi)
            def slice_f(frames, rt):
                target = target_f(frames, rt)
                lo, hi = lo_f(frames, rt), hi_f(frames, rt)
                if _is_batched(target) or _is_batched(lo) or _is_batched(hi):
                    raise Unvectorizable("slice bounds depend on batched variables")
                return SliceDict(target, int(lo), int(hi))
            return slice_f
        if isinstance(expr, DictExpr):
            key_f, value_f = self.lower(expr.key), self.lower(expr.value)
            def dict_f(frames, rt):
                key = key_f(frames, rt)
                value = value_f(frames, rt)
                if isinstance(key, BatchDict):
                    raise Unvectorizable("dictionary-valued key")
                if isinstance(key, Batch) or _is_batched(value):
                    lanes = key.data.shape[0] if isinstance(key, Batch) else rt.lanes
                    return BatchDict(_key_lanes(key, lanes), _value_lanes(value, lanes))
                if is_zero(value):
                    return SemiringDict()
                return SemiringDict({normalize_key(key): value})
            return dict_f
        if isinstance(expr, IfThen):
            cond_f, then_f = self.lower(expr.cond), self.lower(expr.then)
            def if_f(frames, rt):
                cond = cond_f(frames, rt)
                if isinstance(cond, Batch):
                    mask = cond.data.astype(bool)
                    then = then_f(frames, rt)
                    if isinstance(then, Batch):
                        return Batch(np.where(mask, then.data, 0))
                    if isinstance(then, BatchDict):
                        return then.with_mask(mask)
                    if is_scalar(then):
                        return Batch(np.where(mask, then, 0))
                    raise Unvectorizable("conditional dictionary value in batched body")
                if isinstance(cond, BatchDict):
                    raise Unvectorizable("dictionary-valued condition")
                if truthy(cond):
                    return then_f(frames, rt)
                return 0
            return if_f
        if isinstance(expr, Let):
            value_f, body_f = self.lower(expr.value), self.lower(expr.body)
            def let_f(frames, rt):
                frames.append(value_f(frames, rt))
                try:
                    return body_f(frames, rt)
                finally:
                    frames.pop()
            return let_f
        if isinstance(expr, Sum):
            return self._maybe_memoize(expr, self._lower_sum(expr))
        if isinstance(expr, Merge):
            return self._maybe_memoize(expr, self._lower_merge(expr))
        raise ExecutionError(f"cannot vectorize node of type {type(expr).__name__}")

    def _maybe_memoize(self, expr: Expr, closure: _Closure) -> _Closure:
        """Cache closed (loop-invariant) sums/merges once per execution.

        Several optimizer plans re-materialize a whole storage mapping (e.g.
        the transpose of an operand) inside an inner loop; the calculus is
        pure, so a subplan with no free loop variables has the same value on
        every iteration and is computed at most once per ``run()``.
        """
        if not is_closed(expr):
            return closure
        slot = self.invariant_slots
        self.invariant_slots += 1
        def memoized(frames, rt):
            try:
                return rt.invariants[slot]
            except KeyError:
                pass
            # A closed subplan reads no loop bindings, so it can be computed
            # outside the current batched body (if any).
            batched = rt.batched
            rt.batched = False
            try:
                value = closure(frames, rt)
            finally:
                rt.batched = batched
            rt.invariants[slot] = value
            return value
        return memoized

    # -- composite nodes -----------------------------------------------------

    def _lower_add(self, expr, *, subtract: bool) -> _Closure:
        left_f, right_f = self.lower(expr.left), self.lower(expr.right)
        def add_f(frames, rt):
            left, right = left_f(frames, rt), right_f(frames, rt)
            if isinstance(left, Batch) or isinstance(right, Batch):
                left_data, right_data = _lane_data(left), _lane_data(right)
                return Batch(np.asarray(left_data - right_data if subtract
                                        else left_data + right_data))
            if isinstance(left, BatchDict) or isinstance(right, BatchDict):
                raise Unvectorizable("dictionary addition in batched body")
            return v_sub(left, right) if subtract else v_add(left, right)
        return add_f

    def _lower_mul(self, expr) -> _Closure:
        left_f, right_f = self.lower(expr.left), self.lower(expr.right)
        def mul_f(frames, rt):
            left, right = left_f(frames, rt), right_f(frames, rt)
            left_batch, right_batch = isinstance(left, Batch), isinstance(right, Batch)
            if left_batch or right_batch:
                other = right if left_batch else left
                if isinstance(other, (Batch,)) or is_scalar(other):
                    return Batch(np.asarray(_lane_data(left) * _lane_data(right)))
                raise Unvectorizable("batched multiplication with a materialized dictionary")
            if isinstance(left, BatchDict):
                if is_scalar(right):
                    return left.scaled(right)
                raise Unvectorizable("dictionary × dictionary in batched body")
            if isinstance(right, BatchDict):
                if is_scalar(left):
                    return right.scaled(left)
                raise Unvectorizable("dictionary × dictionary in batched body")
            return v_mul(left, right)
        return mul_f

    def _lower_get(self, expr) -> _Closure:
        target_f, key_f = self.lower(expr.target), self.lower(expr.key)
        def get_f(frames, rt):
            target = target_f(frames, rt)
            key = key_f(frames, rt)
            if isinstance(key, Batch):
                if isinstance(target, PhysicalArray):
                    target = target.data
                if isinstance(target, np.ndarray) and target.ndim == 1:
                    indices = _key_lanes(key, key.data.shape[0])
                    valid = (indices >= 0) & (indices < target.shape[0])
                    gathered = target[np.clip(indices, 0, max(0, target.shape[0] - 1))] \
                        if target.shape[0] else np.zeros(indices.shape[0])
                    return Batch(np.where(valid, gathered, 0))
                if is_scalar(target) and target == 0:
                    return Batch(np.zeros(key.data.shape[0]))
                raise Unvectorizable(
                    f"vector-key lookup into {type(target).__name__}")
            if _is_batched(target) or _is_batched(key):
                raise Unvectorizable("batched lookup target")
            return lookup(target, normalize_key(key))
        return get_f

    def _lower_sum(self, expr) -> _Closure:
        self.sum_count += 1
        # This sum's identity in rt.failed_batch; fixed before lowering the
        # children, which advance the counter for their own nested sums.
        slot = self.sum_count
        self.sum_sources[slot] = expr.source
        source_f, body_f = self.lower(expr.source), self.lower(expr.body)
        # Probe short-circuiting: a body of shape `if (key == e) then t` where
        # `e` is independent of the loop variables turns the whole loop into a
        # single O(1) lookup — the plans' dense equality-probe loops
        # (`sum(<v,_> in 0:N) if (j == v) then ...`) hit this constantly.
        probe_f = then_f = None
        body = expr.body
        if isinstance(body, IfThen) and isinstance(body.cond, Cmp) and body.cond.op == "==":
            left, right = body.cond.left, body.cond.right
            if isinstance(left, Idx) and left.index == 1 and not uses_sum_binders(right):
                probe_f = self.lower(right)
            elif isinstance(right, Idx) and right.index == 1 and not uses_sum_binders(left):
                probe_f = self.lower(left)
            if probe_f is not None:
                then_f = self.lower(body.then)
        # rt.failed_batch is a per-execution memo: after the first
        # Unvectorizable body within one run, the sum stops re-attempting
        # batched evaluation for the rest of that run.  The state lives on
        # the runtime, not in the lowered artifact, because vectorizability
        # can be data-dependent and artifacts are shared across environments
        # by the plan cache.
        def sum_f(frames, rt):
            if rt.batched:
                raise Unvectorizable("nested sum inside a batched body")
            source = source_f(frames, rt)
            if probe_f is not None:
                # The probe expression sits in the body scope: give it dummy
                # bindings for the loop variables it provably does not use.
                frames.append(0)
                frames.append(0)
                try:
                    probe_key = probe_f(frames, rt)
                finally:
                    frames.pop()
                    frames.pop()
                if is_scalar(probe_key) and not isinstance(probe_key, (bool, np.bool_)):
                    as_float = float(probe_key)
                    if as_float.is_integer():
                        entry = probe_entry(source, int(as_float))
                        if entry is None:
                            return 0
                        if entry is not NO_PROBE:
                            frames.append(int(as_float))
                            frames.append(entry)
                            try:
                                return then_f(frames, rt)
                            finally:
                                frames.pop()
                                frames.pop()
                    elif probe_entry(source, 0) is not NO_PROBE:
                        # Integer-keyed space, non-integer probe: no match.
                        return 0
            if slot not in rt.failed_batch:
                arrays = _iteration_arrays(source)
                if arrays is not None:
                    keys, values = arrays
                    lanes = keys.shape[0]
                    if rt.profile is not None:
                        rt.profile.record_loop(slot, lanes)
                    if lanes == 0:
                        return 0
                    outer_lanes = rt.lanes
                    rt.batched, rt.lanes = True, lanes
                    frames.append(Batch(keys))
                    frames.append(Batch(values))
                    try:
                        body = body_f(frames, rt)
                    except Unvectorizable:
                        rt.failed_batch.add(slot)
                        body = _FAILED
                    finally:
                        frames.pop()
                        frames.pop()
                        rt.batched, rt.lanes = False, outer_lanes
                    if body is not _FAILED:
                        return _reduce_batched(body, lanes)
            rt.fallbacks.add(slot)
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
        return sum_f

    def _lower_merge(self, expr) -> _Closure:
        self.merge_count += 1
        slot = ("merge", self.merge_count)
        left_f, right_f = self.lower(expr.left), self.lower(expr.right)
        body_f = self.lower(expr.body)
        def merge_f(frames, rt):
            if rt.batched:
                raise Unvectorizable("merge inside a batched body")
            rt.fallbacks.add(slot)
            left = left_f(frames, rt)
            right = right_f(frames, rt)
            by_value: dict[Any, list] = {}
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
        return merge_f


_FAILED = object()


def merge_hashable(value):
    if is_scalar(value):
        return float(value)
    return id(value)


# ---------------------------------------------------------------------------
# Public entry point
# ---------------------------------------------------------------------------


@dataclass
class VectorizedPlan:
    """A plan lowered to closures with whole-array NumPy sum evaluation.

    Mirrors :class:`repro.execution.codegen.CompiledPlan`: calling the object
    with an environment executes the plan.  Lowered plans hold no reference
    to any environment and can be cached and shared across catalogs with the
    same symbol schema.
    """

    plan: Expr
    function: Callable[..., Any]
    sum_count: int = 0
    sum_sources: Mapping[int, Expr] | None = None

    def __call__(self, env: Mapping[str, Any], stats: dict | None = None,
                 profile=None) -> Any:
        return self.function(env, stats, profile)

    @property
    def source(self) -> str:
        """Pseudo-source marker (there is no generated Python text)."""
        return f"<vectorized: {self.sum_count} sum loop(s), NumPy batched with loop fallback>"


def vectorize_plan(plan: Expr, name: str = "vectorized_plan") -> VectorizedPlan:
    """Lower a physical plan (De Bruijn form) for vectorized execution.

    The returned :class:`VectorizedPlan` evaluates ``sum`` loops with
    whole-array NumPy operations where the plan shape permits and falls back
    to Python loops per ``sum`` otherwise; results are identical to the
    reference interpreter.
    """
    lowerer = _Lowerer()
    root = lowerer.lower(plan)

    def function(env: Mapping[str, Any], stats: dict | None = None,
                 profile=None) -> Any:
        rt = _Runtime(env, profile=profile)
        result = root([], rt)
        if stats is not None:
            stats["sum_loops"] = lowerer.sum_count
            stats["merge_loops"] = lowerer.merge_count
            stats["fallback_sums"] = sum(
                1 for slot in rt.fallbacks if isinstance(slot, int))
            stats["fallback_merges"] = sum(
                1 for slot in rt.fallbacks if not isinstance(slot, int))
        return result

    return VectorizedPlan(plan=plan, function=function, sum_count=lowerer.sum_count,
                          sum_sources=lowerer.sum_sources)
