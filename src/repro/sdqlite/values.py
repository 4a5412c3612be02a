"""Runtime values of the SDQLite reference interpreter.

The data model of SDQLite consists of scalars and nested *semiring
dictionaries* (Sec. 2 of the paper): finite maps from integer keys to scalars
or further dictionaries, where missing keys default to 0 and a dictionary
containing only zeros equals the empty dictionary.

This module defines

* :class:`SemiringDict` — the canonical materialized dictionary value,
* :class:`RangeDict` / :class:`SliceDict` — lazy views used for ``lo:hi`` and
  segmented-array expressions ``e(lo:hi)``,
* generic helpers (:func:`iter_items`, :func:`lookup`, :func:`v_add`,
  :func:`v_mul`, ...) that also accept NumPy arrays and plain Python dicts so
  that physical storage can be consumed without conversion.
"""

from __future__ import annotations

import math
from typing import Any, Iterator

import numpy as np

from .errors import EvaluationError

Scalar = (int, float, bool, np.integer, np.floating, np.bool_)


def is_scalar(value: Any) -> bool:
    """True for Python / NumPy numbers and booleans."""
    return isinstance(value, Scalar)


def is_dictlike(value: Any) -> bool:
    """True for values that can be iterated as key/value pairs.

    Besides the interpreter's own value types this accepts any object
    exposing ``items`` — notably the physical collections
    (:class:`~repro.storage.physical.PhysicalHashMap` /
    :class:`~repro.storage.physical.PhysicalTrie`), which optimized plans
    can legitimately feed straight into ``+`` / ``*`` (found by the
    differential fuzzer: ``A + B`` over two tries must not depend on
    whether the optimizer fused the storage mappings away).
    """
    if isinstance(value, (SemiringDict, RangeDict, SliceDict, dict, np.ndarray)):
        return True
    return not is_scalar(value) and hasattr(value, "items")


class SemiringDict:
    """A materialized semiring dictionary ``{k1 -> v1, ..., kn -> vn}``.

    Zero values are pruned on construction, so two dictionaries representing
    the same tensor compare equal regardless of explicit zeros.
    """

    __slots__ = ("_data",)

    def __init__(self, data: dict | None = None):
        self._data: dict = {}
        if data:
            for key, value in data.items():
                if not is_zero(value):
                    self._data[key] = value

    # -- mapping interface --------------------------------------------------

    def items(self) -> Iterator[tuple[Any, Any]]:
        return iter(self._data.items())

    def keys(self):
        return self._data.keys()

    def get(self, key, default=0):
        return self._data.get(key, default)

    def __getitem__(self, key):
        return self._data.get(key, 0)

    def __contains__(self, key) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __bool__(self) -> bool:
        return bool(self._data)

    def __iter__(self):
        return iter(self._data)

    # -- semiring structure --------------------------------------------------

    def __add__(self, other):
        return v_add(self, other)

    def __radd__(self, other):
        return v_add(other, self)

    def __mul__(self, other):
        return v_mul(self, other)

    def __rmul__(self, other):
        return v_mul(other, self)

    def __eq__(self, other) -> bool:
        if is_scalar(other) and other == 0:
            return not self._data
        if not is_dictlike(other):
            return NotImplemented
        return to_plain(self) == to_plain(other)

    def __hash__(self):  # pragma: no cover - dictionaries are not hashable
        raise TypeError("SemiringDict is not hashable")

    def __repr__(self) -> str:
        inner = ", ".join(f"{k} -> {v!r}" for k, v in sorted(self._data.items(), key=_sort_key))
        return "{" + inner + "}"

    def to_dict(self) -> dict:
        """A plain (nested) ``dict`` copy of this dictionary."""
        return to_plain(self)


def _sort_key(item):
    key = item[0]
    return (str(type(key)), key if not isinstance(key, tuple) else key)


def integral_index(key):
    """``int(key)`` when ``key`` is an integral number, else ``None``.

    The shared guard for every *positional* container (arrays, ranges,
    slices): their keys are exactly the integers, so a non-integral key like
    ``0.5`` must miss — not truncate to index 0 (a divergence between the
    dict-backed and array-backed representations of the same tensor, found
    by the differential fuzzer).
    """
    if isinstance(key, (bool, np.bool_, int, np.integer)):
        return int(key)
    if isinstance(key, (float, np.floating)):
        as_float = float(key)
        return int(as_float) if as_float.is_integer() else None
    return None


class RangeDict:
    """The lazy dictionary ``lo:hi = {lo -> lo, ..., hi-1 -> hi-1}``."""

    __slots__ = ("lo", "hi")

    def __init__(self, lo: int, hi: int):
        self.lo = int(lo)
        self.hi = int(hi)

    def items(self):
        for key in range(self.lo, self.hi):
            yield key, key

    def get(self, key, default=0):
        index = integral_index(key)
        if index is not None and self.lo <= index < self.hi:
            return index
        return default

    def __len__(self):
        return max(0, self.hi - self.lo)

    def __repr__(self):
        return f"RangeDict({self.lo}, {self.hi})"


class SliceDict:
    """The lazy sub-array ``e(lo:hi) = {lo -> e(lo), ..., hi-1 -> e(hi-1)}``."""

    __slots__ = ("target", "lo", "hi")

    def __init__(self, target, lo: int, hi: int):
        self.target = target
        self.lo = int(lo)
        self.hi = int(hi)

    def items(self):
        for key in range(self.lo, self.hi):
            yield key, lookup(self.target, key)

    def get(self, key, default=0):
        index = integral_index(key)
        if index is not None and self.lo <= index < self.hi:
            return lookup(self.target, index)
        return default

    def __len__(self):
        return max(0, self.hi - self.lo)

    def __repr__(self):
        return f"SliceDict({self.target!r}, {self.lo}, {self.hi})"


# ---------------------------------------------------------------------------
# Generic dictionary operations (accept SemiringDict, dict, ndarray, lazy views)
# ---------------------------------------------------------------------------


def iter_items(value) -> Iterator[tuple[Any, Any]]:
    """Iterate the key/value pairs of any dictionary-like value."""
    if isinstance(value, (SemiringDict, RangeDict, SliceDict)):
        yield from value.items()
    elif isinstance(value, dict):
        yield from value.items()
    elif isinstance(value, np.ndarray):
        if value.ndim == 1:
            for index, item in enumerate(value):
                yield index, item
        else:
            for index in range(value.shape[0]):
                yield index, value[index]
    elif is_scalar(value):
        # 0 and the empty dictionary are identified in the semiring data
        # model: iterating "0" yields no entries.
        if value == 0:
            return
        raise EvaluationError("cannot iterate over a non-zero scalar value")
    elif hasattr(value, "items"):
        yield from value.items()
    else:
        raise EvaluationError(f"cannot iterate over value of type {type(value).__name__}")


def lookup(value, key, default=0):
    """``value(key)`` with missing keys defaulting to 0 (or an empty dictionary)."""
    if isinstance(value, np.ndarray):
        index = integral_index(key)
        if index is not None and 0 <= index < value.shape[0]:
            item = value[index]
            return item
        return default
    if isinstance(value, (SemiringDict, RangeDict, SliceDict)):
        return value.get(key, default)
    if isinstance(value, dict):
        return value.get(key, default)
    if hasattr(value, "get"):
        return value.get(key, default)
    if is_scalar(value):
        # 0 and the empty dictionary are identified in the semiring data
        # model, so looking up a key in "0" yields the default.
        if value == 0:
            return default
        raise EvaluationError("cannot index into a non-zero scalar value")
    raise EvaluationError(f"cannot look up key in value of type {type(value).__name__}")


def is_zero(value) -> bool:
    """True when ``value`` is the semiring zero of its type."""
    if is_scalar(value):
        return bool(value == 0)
    if isinstance(value, SemiringDict):
        return len(value) == 0
    if isinstance(value, dict):
        return all(is_zero(v) for v in value.values())
    if isinstance(value, np.ndarray):
        return bool(np.all(value == 0))
    if isinstance(value, (RangeDict, SliceDict)):
        return len(value) == 0
    if hasattr(value, "items"):
        # Physical collections (hash-maps, tries) prune zeros at
        # construction, so this is effectively an emptiness check.
        return all(is_zero(item) for _, item in value.items())
    return False


def v_add(left, right):
    """Semiring addition, overloaded on scalars and dictionaries."""
    if is_zero(left):
        return right
    if is_zero(right):
        return left
    if is_scalar(left) and is_scalar(right):
        return left + right
    if is_dictlike(left) and is_dictlike(right):
        out: dict = {}
        for key, value in iter_items(left):
            out[key] = value
        for key, value in iter_items(right):
            if key in out:
                out[key] = v_add(out[key], value)
            else:
                out[key] = value
        return SemiringDict(out)
    raise EvaluationError(
        f"cannot add values of types {type(left).__name__} and {type(right).__name__}"
    )


def v_sub(left, right):
    """Subtraction: ``left - right`` (element-wise on dictionaries)."""
    return v_add(left, v_mul(-1, right))


def v_mul(left, right):
    """Semiring multiplication, with the scalar × dictionary overload of SDQL."""
    if is_zero(left) or is_zero(right):
        return 0
    if is_scalar(left) and is_scalar(right):
        return left * right
    if is_scalar(left) and is_dictlike(right):
        return SemiringDict({k: v_mul(left, v) for k, v in iter_items(right)})
    if is_dictlike(left) and is_scalar(right):
        return SemiringDict({k: v_mul(v, right) for k, v in iter_items(left)})
    if is_dictlike(left) and is_dictlike(right):
        out = {}
        right_map = dict(iter_items(right))
        for key, value in iter_items(left):
            if key in right_map:
                out[key] = v_mul(value, right_map[key])
        return SemiringDict(out)
    raise EvaluationError(
        f"cannot multiply values of types {type(left).__name__} and {type(right).__name__}"
    )


def to_plain(value):
    """Recursively convert a value to plain Python numbers and dicts (zeros pruned)."""
    if is_scalar(value):
        if isinstance(value, (bool, np.bool_)):
            return bool(value)
        if isinstance(value, (int, np.integer)):
            return int(value)
        return float(value)
    if is_dictlike(value) or hasattr(value, "items"):
        out = {}
        for key, item in iter_items(value):
            plain = to_plain(item)
            if not is_zero(plain):
                out[_plain_key(key)] = plain
        return out
    raise EvaluationError(f"cannot convert value of type {type(value).__name__}")


def _plain_key(key):
    if isinstance(key, (np.integer,)):
        return int(key)
    if isinstance(key, tuple):
        return tuple(_plain_key(k) for k in key)
    return key


def normalize_key(value):
    """Normalise a dictionary key: booleans and integral floats become ints.

    The single definition of SDQLite's key coercion rule, shared by the
    interpreter and the typed backend so they cannot diverge.
    Non-integral floats stay float keys; non-scalars are rejected.
    """
    if isinstance(value, (bool, np.bool_)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        as_float = float(value)
        return int(as_float) if as_float.is_integer() else as_float
    if is_scalar(value):
        return int(value)
    raise EvaluationError("dictionary keys must evaluate to scalars")


def truthy(value) -> bool:
    """SDQLite truthiness: scalar truth, or non-emptiness for dictionaries."""
    if is_scalar(value):
        return bool(value)
    return not is_zero(value)


def merge_hashable(value):
    """The grouping key ``merge`` pairs iteration values by.

    Scalars group numerically (``2 == 2.0``); dictionary values group by
    identity, matching the reference interpreter.
    """
    if is_scalar(value):
        return float(value)
    return id(value)


def values_equal(left, right, *, rel_tol: float = 1e-9, abs_tol: float = 1e-9) -> bool:
    """Structural equality of two values with floating point tolerance."""
    left_plain = to_plain(left) if not is_scalar(left) else left
    right_plain = to_plain(right) if not is_scalar(right) else right
    return _approx_equal(left_plain, right_plain, rel_tol, abs_tol)


def scalars_close(left, right, rel_tol: float, abs_tol: float) -> bool:
    """Tolerant equality of two scalars under IEEE semantics: NaN equals NaN,
    an infinity only itself, and finite values within the tolerances."""
    if left == right or (left != left and right != right):
        return True
    if not (math.isfinite(left) and math.isfinite(right)):
        return False
    return bool(abs(left - right) <= max(abs_tol, rel_tol * max(abs(left), abs(right))))


def _approx_equal(left, right, rel_tol, abs_tol) -> bool:
    if is_scalar(left) and is_scalar(right):
        return scalars_close(left, right, rel_tol, abs_tol)
    if is_scalar(left) or is_scalar(right):
        if is_scalar(left):
            return is_zero(left) and is_zero(right)
        return is_zero(left) and is_zero(right)
    if isinstance(left, dict) and isinstance(right, dict):
        if set(left.keys()) != set(right.keys()):
            return False
        return all(_approx_equal(left[k], right[k], rel_tol, abs_tol) for k in left)
    return left == right
