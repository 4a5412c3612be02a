"""The physical data model of SDQLite (Sec. 4 of the paper).

Four physical data types exist: scalars, arrays, hash-maps and tries.  The
data administrator declares them with ``CREATE`` statements and refers to
them from Tensor Storage Mappings.  At runtime they are the global symbols
supplied to the interpreter / execution engine.

The classes below are thin wrappers that

* carry the declared element type (``int`` / ``real``) and the declared size,
* expose the dictionary interface (``items`` / ``get``) that the interpreter
  expects, and
* know which *collection kind* they are, which the cost model uses to pick
  γ parameters (iterating a dense array is cheaper than a hash-map).
"""

from __future__ import annotations

from typing import Any, Iterator

import numpy as np

from ..sdqlite.errors import StorageError
from ..sdqlite.values import integral_index

#: Collection kinds distinguished by the cost model.
KIND_ARRAY = "array"
KIND_HASH = "hash"
KIND_TRIE = "trie"
KIND_SCALAR = "scalar"


class PhysicalScalar:
    """``CREATE [real|int] SCALAR name`` — a single global number."""

    kind = KIND_SCALAR

    def __init__(self, name: str, value: float | int, dtype: str = "int"):
        self.name = name
        self.value = int(value) if dtype == "int" else float(value)
        self.dtype = dtype

    def __int__(self) -> int:
        return int(self.value)

    def __index__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __repr__(self) -> str:
        return f"PhysicalScalar({self.name}={self.value})"


class PhysicalArray:
    """``CREATE [real|int] ARRAY name(n)`` — a contiguous memory array.

    Logically this is the dictionary ``{0 -> data[0], ..., n-1 -> data[n-1]}``.
    """

    kind = KIND_ARRAY

    def __init__(self, name: str, data: np.ndarray, dtype: str = "real"):
        self.name = name
        self.dtype = dtype
        wanted = np.int64 if dtype == "int" else np.float64
        self.data = np.asarray(data, dtype=wanted)
        if self.data.ndim != 1:
            raise StorageError(f"physical array {name!r} must be one-dimensional")

    def __len__(self) -> int:
        return int(self.data.shape[0])

    def items(self) -> Iterator[tuple[int, Any]]:
        for index, value in enumerate(self.data):
            yield index, value

    def get(self, key, default=0):
        # Integer-keyed container: a non-integral key misses rather than
        # truncating (the shared rule of values.integral_index).
        index = integral_index(key)
        if index is not None and 0 <= index < self.data.shape[0]:
            return self.data[index]
        return default

    def __getitem__(self, key):
        return self.get(key)

    def to_buffers(self) -> dict[str, np.ndarray]:
        """Export the flat data array for the typed backend."""
        return {"val": self.data}

    def __repr__(self) -> str:
        return f"PhysicalArray({self.name}, len={len(self)}, dtype={self.dtype})"


class _LevelizedOnce:
    """A stored container's levelized view, built on first use.

    No write changes a published container in place (``docs/formats.md``):
    a write publishes a new one.  So the
    :class:`~repro.execution.buffers.LevelView` the typed backend iterates
    and probes is built once per container, not once per run.
    """

    _view: tuple | None = None     # (LevelView | None,) once built

    @property
    def levelized(self) -> bool:
        """Whether :meth:`level_view` has already walked this container."""
        return self._view is not None

    def level_view(self):
        """The container as buffer levels, or ``None`` when it has none."""
        view = self._view
        if view is None:
            from ..execution.buffers import to_buffer_levels

            view = self._view = (to_buffer_levels(self),)
        return view[0]


class PhysicalHashMap(_LevelizedOnce):
    """``CREATE [real|int] HASHMAP name(n1, ..., nd)`` — tuple keys to values.

    Physically a single flat hash table keyed by ``(i1, ..., id)``.  Logically
    it is the nested dictionary obtained by currying, so iteration groups by
    the first coordinate; the grouping index is built once at construction.
    """

    kind = KIND_HASH

    def __init__(self, name: str, entries: dict[tuple[int, ...], float],
                 dims: tuple[int, ...], dtype: str = "real"):
        self.name = name
        self.dims = tuple(int(d) for d in dims)
        self.dtype = dtype
        self.entries: dict[tuple[int, ...], float] = {}
        for key, value in entries.items():
            key = (key,) if not isinstance(key, tuple) else tuple(int(k) for k in key)
            if len(key) != len(self.dims):
                raise StorageError(
                    f"hash-map {name!r} expects keys of arity {len(self.dims)}, got {key}"
                )
            if value != 0:
                self.entries[key] = value
        self._nested = _nest(self.entries)

    def __len__(self) -> int:
        return len(self._nested)

    @property
    def nnz(self) -> int:
        return len(self.entries)

    def items(self):
        return iter(self._nested.items())

    def get(self, key, default=0):
        index = integral_index(key)
        return default if index is None else self._nested.get(index, default)

    def lookup(self, *key: int, default=0):
        """Direct O(1) lookup with a full coordinate tuple."""
        return self.entries.get(tuple(int(k) for k in key), default)

    def to_buffers(self) -> dict[str, np.ndarray]:
        """Export lexicographically sorted coordinate/value arrays."""
        rank = len(self.dims)
        keys = sorted(self.entries)
        coords = np.array(keys, dtype=np.int64).reshape(len(keys), rank)
        values = np.array([self.entries[k] for k in keys], dtype=np.float64)
        buffers = {f"idx{axis + 1}": np.ascontiguousarray(coords[:, axis])
                   for axis in range(rank)}
        buffers["val"] = values
        return buffers

    def __repr__(self) -> str:
        return f"PhysicalHashMap({self.name}, dims={self.dims}, nnz={self.nnz})"


class PhysicalTrie(_LevelizedOnce):
    """``CREATE [real|int] TRIE name(n1)...(nd)`` — a tree of hash-maps.

    The top level maps the first coordinate to another trie level; the leaves
    hold scalar values.  Logically identical to the hash-map, physically a
    nested structure with cheap per-level iteration.
    """

    kind = KIND_TRIE

    def __init__(self, name: str, nested: dict, dims: tuple[int, ...], dtype: str = "real"):
        self.name = name
        self.dims = tuple(int(d) for d in dims)
        self.dtype = dtype
        self.nested = _prune(nested)

    @classmethod
    def from_entries(cls, name: str, entries: dict[tuple[int, ...], float],
                     dims: tuple[int, ...], dtype: str = "real") -> "PhysicalTrie":
        return cls(name, _nest({tuple(k): v for k, v in entries.items()}), dims, dtype)

    def __len__(self) -> int:
        return len(self.nested)

    @property
    def nnz(self) -> int:
        return sum(1 for _ in _leaves(self.nested))

    def items(self):
        return iter(self.nested.items())

    def get(self, key, default=0):
        index = integral_index(key)
        return default if index is None else self.nested.get(index, default)

    def to_buffers(self) -> dict[str, np.ndarray]:
        """Export one sorted key and one segment array per dimension — also
        of an empty trie — and the values in key order."""
        from .splice import build_levels

        rank = len(self.dims)
        entries = sorted(_paths(self.nested, ()))
        if any(len(path) != rank for path, _ in entries):
            raise StorageError(f"trie {self.name!r} is not levelizable")
        coords = np.array([path for path, _ in entries], dtype=np.int64).reshape(-1, rank)
        keys, seg = build_levels([np.ascontiguousarray(col) for col in coords.T],
                                 (1,) * rank)
        buffers: dict[str, np.ndarray] = {}
        for depth, (level, segment) in enumerate(zip(keys, seg), start=1):
            buffers[f"keys{depth}"], buffers[f"seg{depth}"] = level[0], segment
        buffers["val"] = np.array([value for _, value in entries], dtype=np.float64)
        return buffers

    def __repr__(self) -> str:
        return f"PhysicalTrie({self.name}, dims={self.dims})"


def _nest(entries: dict[tuple[int, ...], float]) -> dict:
    """Group flat tuple-keyed entries into a nested dictionary."""
    nested: dict = {}
    for key, value in entries.items():
        if len(key) == 1:
            nested[key[0]] = value
            continue
        node = nested
        for coordinate in key[:-1]:
            node = node.setdefault(coordinate, {})
        node[key[-1]] = value
    return nested


def _prune(nested: dict) -> dict:
    """Drop zero leaves and empty sub-dictionaries."""
    out = {}
    for key, value in nested.items():
        if isinstance(value, dict):
            child = _prune(value)
            if child:
                out[key] = child
        elif value != 0:
            out[key] = value
    return out


def _paths(nested: dict, prefix: tuple):
    """``(coordinate, value)`` of every leaf."""
    for key, value in nested.items():
        if isinstance(value, dict):
            yield from _paths(value, prefix + (key,))
        else:
            yield prefix + (key,), value


def _leaves(nested: dict):
    for value in nested.values():
        if isinstance(value, dict):
            yield from _leaves(value)
        else:
            yield value


def collection_kind(value: Any) -> str:
    """The collection kind of a runtime value, for the cost model."""
    if isinstance(value, (PhysicalArray, np.ndarray)):
        return KIND_ARRAY
    if isinstance(value, PhysicalHashMap):
        return KIND_HASH
    if isinstance(value, PhysicalTrie):
        return KIND_TRIE
    if isinstance(value, dict):
        return KIND_HASH
    if isinstance(value, (PhysicalScalar, int, float)):
        return KIND_SCALAR
    return KIND_HASH
