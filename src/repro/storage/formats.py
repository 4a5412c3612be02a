"""Flexible tensor storage formats and their Tensor Storage Mappings.

Each format class knows three things about a tensor:

1. **Physical layout** — the arrays / hash-maps / tries that hold the data
   (Sec. 4 of the paper, ``CREATE ARRAY`` etc.).  Exposed by
   :meth:`StorageFormat.physical` as a mapping from symbol names to runtime
   values consumable by the interpreter and the execution engine.
2. **Storage mapping** — an SDQLite expression from the physical symbols to
   the logical tensor (``CREATE TENSOR ... AS ...``).  Exposed as source text
   (:meth:`mapping_source`) and as a parsed AST (:meth:`mapping`).
3. **Statistics** — a nested cardinality profile and the collection kind of
   every physical symbol, which the cost model uses (Sec. 5.5 / 5.7).

Formats implemented here: dense (rank 1–3), COO, CSR, CSC, DCSR, CSF (rank 3),
DOK (hash-map), trie; the special formats of Sec. 4 (lower-triangular, band,
Z-order curve) live in :mod:`repro.storage.special`.

All formats can be built from a dense NumPy array (:meth:`from_dense`) or
from coordinate data (:meth:`from_coo`), and can reconstruct the dense tensor
(:meth:`to_dense`) — the round-trip is heavily exercised by the test suite,
together with the *semantic* round-trip: evaluating the storage mapping with
the reference interpreter must reproduce the logical tensor.

Duplicate coordinates passed to :meth:`from_coo` are **summed** (the COO
convention of SciPy and the natural semiring semantics of SDQLite's ``sum``);
every format coalesces duplicates at construction, so stored coordinates are
always unique.  See ``docs/formats.md`` ("Duplicate-coordinate semantics").

For the workload-driven format advisor (:mod:`repro.advisor`), every format
answers :meth:`StorageFormat.candidates_for` — given a :class:`TensorStats`
summary of a tensor, can this format legally store it?  The advisor
enumerates exactly the formats that say yes.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Any, Mapping, Sequence

import numpy as np

from ..sdqlite.ast import Expr
from ..sdqlite.errors import StorageError
from ..sdqlite.parser import parse_expr
from .physical import (
    KIND_ARRAY,
    KIND_HASH,
    KIND_SCALAR,
    KIND_TRIE,
    PhysicalHashMap,
    PhysicalTrie,
)
from .splice import splice

Profile = tuple  # nested (count, child) tuples ending in "s"; see profile() docstrings


def coo_from_dense(array: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(coords, values)`` of the non-zero entries in row-major order."""
    coords = np.argwhere(array != 0)
    values = array[tuple(coords.T)] if coords.size else np.empty(0, dtype=array.dtype)
    return coords.astype(np.int64), np.asarray(values, dtype=np.float64)


def _key_space(blocks: Sequence[Sequence[np.ndarray]], axes: Sequence[int] = ()):
    """``(lo, weights)`` linearizing coordinates into one order-preserving int64 key.

    A block is a sequence of equal-length coordinate columns (``coords.T`` of
    a coordinate matrix).  :func:`_linear_keys` orders rows lexicographically
    by the columns ``axes`` (most significant first; ``()``: natural order)
    for every row inside the bounding box of the non-empty ``blocks``.
    ``None`` when the box has ``2**63`` or more cells, so the key would
    overflow.
    """
    blocks = [block for block in blocks if block[0].shape[0]]
    rank = len(blocks[0])
    lo, weights = [0] * rank, [0] * rank
    cells = 1
    for axis in reversed(axes or range(rank)):
        lo[axis] = min(int(block[axis].min()) for block in blocks)
        hi = max(int(block[axis].max()) for block in blocks)
        weights[axis] = cells
        cells *= hi - lo[axis] + 1
        if cells >= 1 << 63:
            return None
    return lo, weights


def _linear_keys(cols: Sequence[np.ndarray], lo: list[int], weights: list[int]) -> np.ndarray:
    """The int64 key of every row of the columns ``cols`` in a :func:`_key_space`.

    Read-only: a single zero-based column is returned as it is.
    """
    keys = None
    for col, low, weight in zip(cols, lo, weights):
        term = col - low if low else col
        if weight != 1:
            term = term * weight
        keys = term if keys is None else keys + term
    return keys


def _first_of_run(keys: np.ndarray) -> np.ndarray:
    """Mask of the entries of a sorted 1-D key array that start a run."""
    first = np.ones(keys.shape[0], dtype=bool)
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    return first


#: Group-by regimes, from the least work to the most (see :func:`group_sum`).
GROUP_REGIMES = ("ordered", "segmented", "dense", "sorted", "lexsort")

#: The dense accumulation workspace of :func:`group_sum` may have this many
#: cells per input entry; wider key ranges are sorted instead.
_DENSE_CELLS_PER_ENTRY = 8


def group_sum(cols: Sequence[np.ndarray], values: np.ndarray):
    """Group-by-sum over integer key columns: ``(take, sums, regime)``.

    ``cols`` are equal-length int64 columns, most significant first, and
    ``values`` float64.  ``take`` indexes one input row per distinct key,
    keys in lexicographic order — ``None`` when that is every row, in input
    order — and ``sums`` adds the values of each key **in input order**, so
    every regime gives bit-identical sums.  Keys whose values sum to zero
    are dropped (the semiring identifies a zero entry with an absent one).

    The one implementation behind :func:`sum_duplicates` and the typed
    backend's accumulation looks at its input and does the least work that
    is exact; ``regime`` names what it did:

    * ``"ordered"`` — the linearized keys are strictly increasing (canonical
      order): the entries pass through;
    * ``"segmented"`` — non-decreasing: equal keys are adjacent, one
      ``np.bincount`` over run ids and no sort;
    * ``"dense"`` — unordered keys whose range has at most
      ``_DENSE_CELLS_PER_ENTRY`` cells per entry: one ``np.bincount``
      straight into a workspace over the key range;
    * ``"sorted"`` — one sort of ``key * n + row``, a unique key that keeps
      input order inside a group whatever the sorting algorithm (a stable
      ``argsort`` of the key, several times slower, when that product would
      overflow);
    * ``"lexsort"`` — the columns' bounding box has ``2**63`` or more cells
      and no int64 key exists.
    """
    n = values.shape[0]
    if n == 0:
        return None, values, "ordered"
    space = _key_space([cols])
    order = first = None
    if space is None:
        regime = "lexsort"
        order = np.lexsort(tuple(reversed(cols)))
        first = np.zeros(n, dtype=bool)
        first[0] = True
        for col in cols:
            col = col[order]
            first[1:] |= col[1:] != col[:-1]
    else:
        keys = _linear_keys(cols, *space)
        step = int(np.diff(keys).min()) if n > 1 else 1
        if step > 0:
            regime = "ordered"
        elif step == 0:
            regime = "segmented"
            first = _first_of_run(keys)
        else:
            top = int(keys.max()) + 1
            if top <= _DENSE_CELLS_PER_ENTRY * n:
                sums = np.bincount(keys, weights=values)
                present = np.flatnonzero(sums != 0)
                last = np.empty(top, dtype=np.intp)   # read only where a key is present
                last[keys] = np.arange(n)
                return last[present], sums[present], "dense"
            regime = "sorted"
            if top * n < 1 << 63:
                keys, order = np.divmod(np.sort(keys * n + np.arange(n)), n)
            else:
                order = np.argsort(keys, kind="stable")
                keys = keys[order]
            first = _first_of_run(keys)
    take = order
    sums = values if order is None else values[order]
    if first is not None and not first.all():
        # bincount adds in array order, i.e. in input order within a key.
        sums = np.bincount(np.cumsum(first) - 1, weights=sums)
        take = np.flatnonzero(first) if order is None else order[first]
    nonzero = sums != 0
    if not nonzero.all():
        take = np.flatnonzero(nonzero) if take is None else take[nonzero]
        sums = sums[nonzero]
    return take, sums, regime


def sum_duplicates(coords: np.ndarray, values: np.ndarray,
                   rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Coalesce duplicate coordinates by summing their values.

    This is the repository-wide ``from_coo`` semantics (documented in
    ``docs/formats.md``): duplicates sum, matching SciPy's COO convention and
    the semiring addition of SDQLite's ``sum``.  Entries whose value is (or
    sums to) zero are dropped — a stored zero is indistinguishable from an
    absent entry in the semiring semantics, and dropping it uniformly keeps
    ``nnz`` independent of the conversion path a tensor took.  The returned
    coordinates are unique and sorted in row-major (lexicographic) order —
    the *canonical order* every sorted-array format stores its entries in.

    One :func:`group_sum`: input already in canonical order is not sorted
    again, and the values of one coordinate are accumulated in input order.
    The result never shares memory with the arguments.
    """
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, rank or 1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    take, sums, _ = group_sum(coords.T, values)
    if take is None:
        return coords.copy(), sums.copy()
    return np.take(coords, take, axis=0), sums  # much faster than coords[take]


@dataclass(frozen=True)
class TensorStats:
    """A structural summary of one stored tensor, for format legality checks.

    This is the ``stats`` argument of :meth:`StorageFormat.candidates_for`:
    enough information to decide whether a format *can* store the tensor
    (rank, shape, structural predicates), plus the nnz/density the advisor's
    cost estimates start from.  Built from any live format with
    :meth:`TensorStats.of`.
    """

    shape: tuple[int, ...]
    nnz: int
    #: rank-2 structural predicates (all False for other ranks)
    square: bool = False
    lower_triangular: bool = False
    tridiagonal: bool = False
    pow2_square: bool = False

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def dense_cells(self) -> float:
        return float(np.prod(self.shape)) if self.shape else 1.0

    @property
    def density(self) -> float:
        total = self.dense_cells
        return self.nnz / total if total else 0.0

    #: Above this many dense cells the structural scan is skipped (the scan
    #: goes through coordinate form, which may densify some formats).
    STRUCTURE_SCAN_CELLS = 1 << 26

    @classmethod
    def of(cls, fmt: "StorageFormat") -> "TensorStats":
        """Summarize a stored tensor (inspects the non-zero structure once).

        The rank-2 structural predicates need the non-zero coordinates; they
        are read in coordinate form (free for COO, one densify for other
        formats).  Tensors larger than :data:`STRUCTURE_SCAN_CELLS` dense
        cells skip the scan — the flags stay conservatively ``False``, which
        only means the special formats are not offered as candidates.
        """
        shape = tuple(fmt.shape)
        square = lower = tri = pow2 = False
        if len(shape) == 2 and shape[0] == shape[1]:
            square = True
            n = shape[0]
            pow2 = n > 0 and (n & (n - 1)) == 0
            if float(n) * n <= cls.STRUCTURE_SCAN_CELLS:
                from .convert import coo_arrays

                coords, _ = coo_arrays(fmt)
                if coords.size:
                    i, j = coords[:, 0], coords[:, 1]
                    lower = bool(np.all(j <= i))
                    tri = bool(np.all(np.abs(i - j) <= 1))
                else:
                    lower = tri = True
        return cls(shape=shape, nnz=int(fmt.nnz), square=square,
                   lower_triangular=lower, tridiagonal=tri, pow2_square=pow2)


class StorageFormat(ABC):
    """Base class of all storage formats."""

    #: short identifier used in benchmark tables, e.g. ``"csr"``.
    format_name: str = "abstract"

    def __init__(self, name: str, shape: tuple[int, ...]):
        self.name = name
        self.shape = tuple(int(s) for s in shape)

    @property
    def spec_name(self) -> str:
        """The full format specification, including construction parameters.

        For most formats this is just :attr:`format_name`; parameterized
        formats (the sharded family) append their knob, e.g.
        ``"sharded_csr@4"``.  ``reformat(fmt, fmt.spec_name)`` is always a
        no-op, which is how the advisor and
        :meth:`repro.session.Session.apply_recommendation` detect that a
        recommendation is already in place.
        """
        return self.format_name

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_dense(cls, name: str, array: np.ndarray, **kwargs) -> "StorageFormat":
        """Build the format from a dense NumPy array."""
        array = np.asarray(array, dtype=np.float64)
        coords, values = coo_from_dense(array)
        return cls.from_coo(name, coords, values, array.shape, **kwargs)

    @classmethod
    @abstractmethod
    def from_coo(cls, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int], **kwargs) -> "StorageFormat":
        """Build the format from coordinate data (``coords`` is nnz × rank).

        Duplicate coordinates are summed (see :func:`sum_duplicates`).
        """

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        """Can this format legally store a tensor with these statistics?

        The workload-driven advisor (:mod:`repro.advisor`) enumerates
        candidate storage configurations from exactly these answers; the base
        class says no, every concrete format overrides with its own legality
        rule (rank restrictions, and for the Sec. 4 special formats the
        structural predicates of :class:`TensorStats`).
        """
        return False

    #: Sorted-array formats set this to the order of significance (most
    #: significant first) of the coordinate columns their entries are kept
    #: sorted by — ``(1, 0)`` for CSC, ``()`` for the natural order of any
    #: rank — and add a delta to their arrays with :meth:`_splice`.
    #: ``None``: the layout is not a sorted run of entries.
    _sort_axes: tuple[int, ...] | None = None

    def _splice(self, coords: np.ndarray, values: np.ndarray) -> "StorageFormat":
        """A copy holding this tensor plus the delta, by a level splice
        (:mod:`repro.storage.splice`) of the stored arrays.

        ``coords`` are validated in-range int64 coordinates.  Arrays the
        delta leaves unchanged are shared with ``self``; none is written to.
        """
        raise NotImplementedError

    def from_coo_kwargs(self) -> dict[str, Any]:
        """Constructor kwargs that reproduce this instance's parameterization.

        ``type(fmt).from_coo(name, coords, values, shape,
        **fmt.from_coo_kwargs())`` must yield a format with the same physical
        symbol layout and mapping text — the contract behind value-only
        rebuilds (:func:`repro.storage.convert.apply_delta`).  Parameterized
        formats (the sharded family) override this to pin their knobs.
        """
        return {}

    # -- required protocol ---------------------------------------------------

    @property
    @abstractmethod
    def nnz(self) -> int:
        """Number of stored non-zero entries."""

    @abstractmethod
    def physical(self) -> dict[str, Any]:
        """Mapping from physical symbol names to runtime values."""

    @abstractmethod
    def mapping_source(self) -> str:
        """The Tensor Storage Mapping as SDQLite source text."""

    @abstractmethod
    def to_dense(self) -> np.ndarray:
        """Reconstruct the dense tensor (for verification)."""

    @abstractmethod
    def profile(self) -> Profile:
        """Nested cardinality profile ``(n1, (n2, ... 's'))`` of the logical tensor."""

    def physical_kinds(self) -> dict[str, str]:
        """Collection kind of every physical symbol (default: inferred)."""
        kinds = {}
        for symbol, value in self.physical().items():
            if isinstance(value, (int, float)):
                kinds[symbol] = KIND_SCALAR
            elif isinstance(value, np.ndarray):
                kinds[symbol] = KIND_ARRAY
            elif isinstance(value, PhysicalTrie):
                kinds[symbol] = KIND_TRIE
            elif isinstance(value, (dict, PhysicalHashMap)):
                kinds[symbol] = KIND_HASH
            else:
                kinds[symbol] = KIND_HASH
        return kinds

    def segment_profiles(self) -> dict[str, float]:
        """Average segment length of segmented arrays (``A_idx2`` etc.), if any."""
        return {}

    # -- coordinate export ----------------------------------------------------

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        """``(coords, values)`` of the stored entries, in O(nnz) time and space.

        Coordinates need not be sorted or deduplicated — callers that need
        the canonical form go through :func:`repro.storage.convert.coo_arrays`,
        which normalizes with :func:`sum_duplicates`.  Every sparse format
        overrides this with a direct read-out of its physical arrays; the
        base implementation densifies and is only appropriate for formats
        whose physical layout *is* dense (``DenseFormat`` and the Sec. 4
        special formats), where O(volume) equals the storage size.
        """
        return coo_from_dense(self.to_dense())

    # -- typed-buffer export --------------------------------------------------

    def to_buffers(self) -> dict[str, np.ndarray]:
        """Flat typed columnar buffers describing the stored tensor.

        The default view is the canonical sorted-coordinate triple:
        ``idx1`` … ``idx<rank>`` int64 arrays (row-major sorted, duplicates
        coalesced, explicit zeros dropped) plus a float64 ``val`` array.
        Formats with a richer physical layout override this with their
        native arrays (position/index pairs, trie level arrays).  Every
        buffer is a contiguous NumPy array; together with ``shape`` the view
        fully determines the tensor, and :meth:`from_buffers` inverts it up
        to the normalization of :func:`sum_duplicates`.
        """
        from .convert import coo_arrays

        coords, values = coo_arrays(self)
        coords = coords.reshape(-1, self.rank or 1)
        buffers = {f"idx{axis + 1}": np.ascontiguousarray(coords[:, axis])
                   for axis in range(self.rank)}
        buffers["val"] = np.ascontiguousarray(values)
        return buffers

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "StorageFormat":
        """Rebuild an instance of this format from a :meth:`to_buffers` view."""
        values = np.asarray(buffers["val"], dtype=np.float64)
        rank = len(tuple(shape))
        if rank:
            coords = np.column_stack([
                np.asarray(buffers[f"idx{axis + 1}"], dtype=np.int64)
                for axis in range(rank)])
        else:
            coords = np.empty((values.shape[0], 0), dtype=np.int64)
        return cls.from_coo(name, coords, values, shape)

    # -- shared helpers -------------------------------------------------------

    @cached_property
    def _mapping_ast(self) -> Expr:
        return parse_expr(self.mapping_source())

    def mapping(self) -> Expr:
        """The Tensor Storage Mapping parsed into a named-form AST."""
        return self._mapping_ast

    def declarations(self) -> str:
        """``CREATE`` DDL text documenting the physical symbols (informational)."""
        lines = []
        for symbol, value in self.physical().items():
            if isinstance(value, (int, float)):
                lines.append(f"CREATE int SCALAR {symbol};")
            elif isinstance(value, np.ndarray):
                dtype = "int" if np.issubdtype(value.dtype, np.integer) else "real"
                lines.append(f"CREATE {dtype} ARRAY {symbol}({len(value)});")
            elif isinstance(value, PhysicalTrie):
                dims = "".join(f"({d})" for d in value.dims)
                lines.append(f"CREATE real TRIE {symbol}{dims};")
            else:
                dims = ", ".join(str(d) for d in self.shape)
                lines.append(f"CREATE real HASHMAP {symbol}({dims});")
        lines.append(f"CREATE TENSOR {self.name} AS {self.mapping_source().strip()};")
        return "\n".join(lines)

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def density(self) -> float:
        total = float(np.prod(self.shape)) if self.shape else 1.0
        return self.nnz / total if total else 0.0

    def __repr__(self) -> str:
        dims = "x".join(str(s) for s in self.shape)
        return f"{type(self).__name__}({self.name}, {dims}, nnz={self.nnz})"


# ---------------------------------------------------------------------------
# Dense
# ---------------------------------------------------------------------------


class DenseFormat(StorageFormat):
    """Row-major dense storage: one value array of size ``n1 * ... * nd``."""

    format_name = "dense"

    def __init__(self, name: str, array: np.ndarray):
        array = np.asarray(array, dtype=np.float64)
        super().__init__(name, array.shape)
        if array.ndim not in (1, 2, 3):
            raise StorageError("DenseFormat supports tensors of rank 1, 2 or 3")
        self.array = array

    @classmethod
    def from_dense(cls, name: str, array: np.ndarray, **kwargs) -> "DenseFormat":
        return cls(name, array)

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs) -> "DenseFormat":
        dense = np.zeros(tuple(int(s) for s in shape), dtype=np.float64)
        coords, values = sum_duplicates(coords, values, len(dense.shape))
        for coordinate, value in zip(coords, values):
            dense[tuple(int(c) for c in coordinate)] = value
        return cls(name, dense)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return 1 <= stats.rank <= 3

    @property
    def nnz(self) -> int:
        return int(np.count_nonzero(self.array))

    def physical(self) -> dict[str, Any]:
        symbols: dict[str, Any] = {f"{self.name}_val": self.array.reshape(-1)}
        for axis, size in enumerate(self.shape, start=1):
            symbols[f"{self.name}_dim{axis}"] = int(size)
        return symbols

    def mapping_source(self) -> str:
        n = self.name
        if self.rank == 1:
            return f"sum(<i,_> in 0:{n}_dim1) {{ i -> {n}_val(i) }}"
        if self.rank == 2:
            return (
                f"sum(<i,_> in 0:{n}_dim1, <j,_> in 0:{n}_dim2) "
                f"{{ (i, j) -> {n}_val(i * {n}_dim2 + j) }}"
            )
        return (
            f"sum(<i,_> in 0:{n}_dim1, <j,_> in 0:{n}_dim2, <k,_> in 0:{n}_dim3) "
            f"{{ (i, j, k) -> {n}_val((i * {n}_dim2 + j) * {n}_dim3 + k) }}"
        )

    def to_dense(self) -> np.ndarray:
        return self.array.copy()

    def to_buffers(self) -> dict[str, np.ndarray]:
        return {"val": np.ascontiguousarray(self.array.reshape(-1))}

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "DenseFormat":
        shape = tuple(int(s) for s in shape)
        values = np.asarray(buffers["val"], dtype=np.float64)
        return cls(name, values.reshape(shape))

    def profile(self) -> Profile:
        profile: Profile = ("s",)
        for size in reversed(self.shape):
            profile = (float(size), profile)
        return profile


# ---------------------------------------------------------------------------
# COO
# ---------------------------------------------------------------------------


def splice_coo(columns: Sequence[np.ndarray], values: np.ndarray,
               delta_columns: Sequence[np.ndarray], deltas: np.ndarray):
    """``(columns, values)`` of a COO block plus a delta, by a level splice.

    COO is one level keyed by the whole coordinate tuple.  A column the
    delta leaves unchanged comes back as the object passed in.
    """
    keys, _, values = splice([list(columns)],
                             [np.array([0, values.shape[0]], dtype=np.int64)],
                             values, delta_columns, deltas)
    return keys[0], values


class COOFormat(StorageFormat):
    """Coordinate format: one index array per dimension plus a value array."""

    format_name = "coo"
    _sort_axes = ()

    def __init__(self, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int]):
        self._build(name, *sum_duplicates(coords, values, len(tuple(shape))), shape)

    def _build(self, name, coords, values, shape) -> None:
        StorageFormat.__init__(self, name, shape)
        self.coords, self.values = coords, values

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs) -> "COOFormat":
        return cls(name, coords, values, shape)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return stats.rank >= 1

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    def physical(self) -> dict[str, Any]:
        symbols: dict[str, Any] = {f"{self.name}_nnz": self.nnz,
                                   f"{self.name}_val": self.values}
        for axis in range(self.rank):
            symbols[f"{self.name}_idx{axis + 1}"] = self.coords[:, axis]
        return symbols

    def mapping_source(self) -> str:
        n = self.name
        keys = ", ".join(f"{n}_idx{axis + 1}(p)" for axis in range(self.rank))
        return f"sum(<p,_> in 0:{n}_nnz) {{ ({keys}) -> {n}_val(p) }}"

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for coordinate, value in zip(self.coords, self.values):
            dense[tuple(int(c) for c in coordinate)] += value
        return dense

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        return self.coords.copy(), self.values.copy()

    def _splice(self, coords, values):
        spliced = copy.copy(self)
        columns, spliced.values = splice_coo(list(self.coords.T), self.values,
                                             list(coords.T), values)
        if not np.may_share_memory(columns[0], self.coords):
            spliced.coords = np.column_stack(columns)
        return spliced

    def profile(self) -> Profile:
        # All nnz entries are reached through a single flat iteration.
        return _branching_profile(self.coords, canonical=True)


# ---------------------------------------------------------------------------
# CSR / CSC (rank 2, segmented arrays)
# ---------------------------------------------------------------------------


def splice_csr(pos: np.ndarray, idx: np.ndarray, values: np.ndarray,
               rows: np.ndarray, cols: np.ndarray, deltas: np.ndarray):
    """``(pos, idx, values)`` of a CSR block plus a delta at ``(rows, cols)``.

    CSR is a dense root level — a row's entry id is the row, so it is never
    searched — over one sparse level of columns.  An array the delta leaves
    unchanged comes back as the object passed in.
    """
    keys, seg, values = splice([None, [idx]],
                               [np.array([0, pos.shape[0] - 1], dtype=np.int64), pos],
                               values, [rows, cols], deltas)
    return seg[1], keys[1][0], values


def _compress(sorted_outer: np.ndarray, n_outer: int) -> np.ndarray:
    """Build a positions array (length ``n_outer + 1``) from sorted outer indices."""
    pos = np.zeros(n_outer + 1, dtype=np.int64)
    np.cumsum(np.bincount(sorted_outer, minlength=n_outer), out=pos[1:])
    return pos


class CSRFormat(StorageFormat):
    """Compressed Sparse Row: dense rows, sparse columns (the paper's Fig. 1(b))."""

    format_name = "csr"
    _outer_axis = 0
    _inner_axis = 1
    _sort_axes = ()

    def __init__(self, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int]):
        if len(tuple(shape)) != 2:
            raise StorageError(f"{type(self).__name__} is a matrix format")
        coords, values = sum_duplicates(coords, values, 2)
        if self._outer_axis:
            # CSC: row-major canonical order -> column-major storage order.
            order = np.argsort(coords[:, self._outer_axis], kind="stable")
            coords, values = np.take(coords, order, axis=0), values[order]
        self._build(name, coords, values, shape)

    def _build(self, name, coords, values, shape) -> None:
        StorageFormat.__init__(self, name, shape)
        self.idx = np.ascontiguousarray(coords[:, self._inner_axis])
        self.val = values
        self.pos = _compress(coords[:, self._outer_axis], self.shape[self._outer_axis])

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs):
        return cls(name, coords, values, shape)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return stats.rank == 2

    @property
    def nnz(self) -> int:
        return int(self.val.shape[0])

    def physical(self) -> dict[str, Any]:
        n = self.name
        return {
            f"{n}_len1": int(self.shape[self._outer_axis]),
            f"{n}_pos2": self.pos,
            f"{n}_idx2": self.idx,
            f"{n}_val": self.val,
        }

    def mapping_source(self) -> str:
        n = self.name
        # Dense outer dimension (rows), compressed inner dimension (columns).
        return (
            f"sum(<row,_> in 0:{n}_len1) "
            f"{{ @unique row -> "
            f"sum(<off, col> in {n}_idx2({n}_pos2(row):{n}_pos2(row+1))) "
            f"{{ @unique col -> {n}_val(off) }} }}"
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        coords, values = self.to_coo()
        dense[tuple(coords.T)] = values
        return dense

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        coords = np.empty((self.idx.shape[0], 2), dtype=np.int64)
        coords[:, self._outer_axis] = np.repeat(
            np.arange(self.pos.shape[0] - 1, dtype=np.int64), np.diff(self.pos))
        coords[:, self._inner_axis] = self.idx
        return coords, self.val.copy()

    def _splice(self, coords, values):
        spliced = copy.copy(self)
        spliced.pos, spliced.idx, spliced.val = splice_csr(
            self.pos, self.idx, self.val,
            coords[:, self._outer_axis], coords[:, self._inner_axis], values)
        return spliced

    def to_buffers(self) -> dict[str, np.ndarray]:
        return {"pos": self.pos, "idx": self.idx, "val": self.val}

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "CSRFormat":
        pos = np.asarray(buffers["pos"], dtype=np.int64)
        idx = np.asarray(buffers["idx"], dtype=np.int64)
        val = np.asarray(buffers["val"], dtype=np.float64)
        outer = np.repeat(np.arange(pos.shape[0] - 1, dtype=np.int64),
                          np.diff(pos))
        coords = np.empty((idx.shape[0], 2), dtype=np.int64)
        coords[:, cls._outer_axis] = outer
        coords[:, cls._inner_axis] = idx
        return cls(name, coords, val, shape)

    def profile(self) -> Profile:
        n_outer = self.shape[self._outer_axis]
        avg = self.nnz / max(1, n_outer)
        return (float(n_outer), (float(avg), ("s",)))

    def segment_profiles(self) -> dict[str, float]:
        n_outer = max(1, self.shape[self._outer_axis])
        avg = self.nnz / n_outer
        return {f"{self.name}_idx2": avg, f"{self.name}_val": avg}


class CSCFormat(CSRFormat):
    """Compressed Sparse Column: dense columns, sparse rows.

    The logical tensor is still keyed ``(i, j)``; the mapping simply iterates
    columns in the outer loop, so the outer key of the produced dictionary is
    the row index coming from the segmented array.
    """

    format_name = "csc"
    _outer_axis = 1
    _inner_axis = 0
    _sort_axes = (1, 0)

    def mapping_source(self) -> str:
        n = self.name
        return (
            f"sum(<col,_> in 0:{n}_len1) "
            f"sum(<off, row> in {n}_idx2({n}_pos2(col):{n}_pos2(col+1))) "
            f"{{ (row, col) -> {n}_val(off) }}"
        )


class DCSRFormat(StorageFormat):
    """Doubly compressed sparse row (sparse-sparse): only non-empty rows are stored."""

    format_name = "dcsr"
    _sort_axes = ()

    def __init__(self, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int]):
        if len(tuple(shape)) != 2:
            raise StorageError("DCSRFormat is a matrix format")
        self._build(name, *sum_duplicates(coords, values, 2), shape)

    def _build(self, name, coords, values, shape) -> None:
        StorageFormat.__init__(self, name, shape)
        rows = coords[:, 0]
        self.idx2 = np.ascontiguousarray(coords[:, 1])
        self.val = values
        self.idx1, counts = np.unique(rows, return_counts=True) if rows.size else (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))
        self.pos2 = np.concatenate([[0], np.cumsum(counts)]).astype(np.int64)
        self.pos1 = np.array([0, len(self.idx1)], dtype=np.int64)

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs):
        return cls(name, coords, values, shape)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return stats.rank == 2

    @property
    def nnz(self) -> int:
        return int(self.val.shape[0])

    def physical(self) -> dict[str, Any]:
        n = self.name
        return {
            f"{n}_pos1": self.pos1,
            f"{n}_idx1": self.idx1,
            f"{n}_pos2": self.pos2,
            f"{n}_idx2": self.idx2,
            f"{n}_val": self.val,
        }

    def mapping_source(self) -> str:
        n = self.name
        return (
            f"sum(<i_pos, i> in {n}_idx1) "
            f"{{ @unique i -> "
            f"sum(<j_pos, j> in {n}_idx2({n}_pos2(i_pos):{n}_pos2(i_pos+1))) "
            f"{{ @unique j -> {n}_val(j_pos) }} }}"
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        coords, values = self.to_coo()
        dense[tuple(coords.T)] = values
        return dense

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        rows = np.repeat(self.idx1, np.diff(self.pos2))
        coords = np.column_stack([rows, self.idx2]) if self.idx2.size else \
            np.empty((0, 2), dtype=np.int64)
        return coords, self.val.copy()

    def _splice(self, coords, values):
        spliced = copy.copy(self)
        keys, seg, spliced.val = splice([[self.idx1], [self.idx2]], [self.pos1, self.pos2],
                                        self.val, list(coords.T), values)
        ((spliced.idx1,), (spliced.idx2,)), (spliced.pos1, spliced.pos2) = keys, seg
        return spliced

    def to_buffers(self) -> dict[str, np.ndarray]:
        return {"pos1": self.pos1, "idx1": self.idx1,
                "pos2": self.pos2, "idx2": self.idx2, "val": self.val}

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "DCSRFormat":
        idx1 = np.asarray(buffers["idx1"], dtype=np.int64)
        pos2 = np.asarray(buffers["pos2"], dtype=np.int64)
        idx2 = np.asarray(buffers["idx2"], dtype=np.int64)
        val = np.asarray(buffers["val"], dtype=np.float64)
        rows = np.repeat(idx1, np.diff(pos2))
        coords = np.column_stack([rows, idx2]) if idx2.size else \
            np.empty((0, 2), dtype=np.int64)
        return cls(name, coords, val, shape)

    def profile(self) -> Profile:
        non_empty = max(1, len(self.idx1))
        avg = self.nnz / non_empty
        return (float(len(self.idx1)), (float(avg), ("s",)))

    def segment_profiles(self) -> dict[str, float]:
        non_empty = max(1, len(self.idx1))
        avg = self.nnz / non_empty
        return {f"{self.name}_idx2": avg, f"{self.name}_val": avg}


# ---------------------------------------------------------------------------
# CSF (rank 3)
# ---------------------------------------------------------------------------


class CSFFormat(StorageFormat):
    """Compressed Sparse Fiber for rank-3 tensors (sparse tree of segments)."""

    format_name = "csf"
    _sort_axes = ()

    def __init__(self, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int]):
        if len(tuple(shape)) != 3:
            raise StorageError("CSFFormat stores rank-3 tensors")
        self._build(name, *sum_duplicates(coords, values, 3), shape)

    def _build(self, name, coords, values, shape) -> None:
        StorageFormat.__init__(self, name, shape)
        # Leaf offsets at which a new level-1 entry (i) / level-2 fiber (i, k) starts.
        new1 = _first_of_run(coords[:, 0])
        starts2 = np.flatnonzero(new1 | _first_of_run(coords[:, 1]))
        self.idx1 = coords[new1, 0]
        self.pos2 = np.append(np.searchsorted(starts2, np.flatnonzero(new1)),
                              starts2.shape[0])
        self.idx2 = coords[starts2, 1]
        self.pos3 = np.append(starts2, values.shape[0])
        self.idx3 = np.ascontiguousarray(coords[:, 2])
        self.val = values

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs):
        return cls(name, coords, values, shape)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return stats.rank == 3

    @property
    def nnz(self) -> int:
        return int(self.val.shape[0])

    def physical(self) -> dict[str, Any]:
        n = self.name
        return {
            f"{n}_idx1": self.idx1,
            f"{n}_pos2": self.pos2,
            f"{n}_idx2": self.idx2,
            f"{n}_pos3": self.pos3,
            f"{n}_idx3": self.idx3,
            f"{n}_val": self.val,
        }

    def mapping_source(self) -> str:
        n = self.name
        return (
            f"sum(<p1, i> in {n}_idx1) "
            f"{{ @unique i -> "
            f"sum(<p2, k> in {n}_idx2({n}_pos2(p1):{n}_pos2(p1+1))) "
            f"{{ @unique k -> "
            f"sum(<p3, l> in {n}_idx3({n}_pos3(p2):{n}_pos3(p2+1))) "
            f"{{ @unique l -> {n}_val(p3) }} }} }}"
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        coords, values = self.to_coo()
        dense[tuple(coords.T)] = values
        return dense

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        i_level2 = np.repeat(self.idx1, np.diff(self.pos2))
        i_leaf = np.repeat(i_level2, np.diff(self.pos3))
        k_leaf = np.repeat(self.idx2, np.diff(self.pos3))
        coords = np.column_stack([i_leaf, k_leaf, self.idx3]) if self.idx3.size \
            else np.empty((0, 3), dtype=np.int64)
        return coords, self.val.copy()

    def _splice(self, coords, values):
        spliced = copy.copy(self)
        root = np.array([0, self.idx1.shape[0]], dtype=np.int64)
        keys, seg, spliced.val = splice([[self.idx1], [self.idx2], [self.idx3]],
                                        [root, self.pos2, self.pos3], self.val,
                                        list(coords.T), values)
        (spliced.idx1,), (spliced.idx2,), (spliced.idx3,) = keys
        _, spliced.pos2, spliced.pos3 = seg
        return spliced

    def to_buffers(self) -> dict[str, np.ndarray]:
        return {"idx1": self.idx1, "pos2": self.pos2, "idx2": self.idx2,
                "pos3": self.pos3, "idx3": self.idx3, "val": self.val}

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "CSFFormat":
        idx1 = np.asarray(buffers["idx1"], dtype=np.int64)
        pos2 = np.asarray(buffers["pos2"], dtype=np.int64)
        idx2 = np.asarray(buffers["idx2"], dtype=np.int64)
        pos3 = np.asarray(buffers["pos3"], dtype=np.int64)
        idx3 = np.asarray(buffers["idx3"], dtype=np.int64)
        val = np.asarray(buffers["val"], dtype=np.float64)
        i_level2 = np.repeat(idx1, np.diff(pos2))
        i_leaf = np.repeat(i_level2, np.diff(pos3))
        k_leaf = np.repeat(idx2, np.diff(pos3))
        coords = np.column_stack([i_leaf, k_leaf, idx3]) if idx3.size else \
            np.empty((0, 3), dtype=np.int64)
        return cls(name, coords, val, shape)

    def profile(self) -> Profile:
        n1 = max(1, len(self.idx1))
        n2 = max(1, len(self.idx2))
        return (
            float(len(self.idx1)),
            (float(n2 / n1), (float(self.nnz / max(1, n2)), ("s",))),
        )

    def segment_profiles(self) -> dict[str, float]:
        n1 = max(1, len(self.idx1))
        n2 = max(1, len(self.idx2))
        return {
            f"{self.name}_idx2": n2 / n1,
            f"{self.name}_idx3": self.nnz / n2,
            f"{self.name}_val": self.nnz / n2,
        }


# ---------------------------------------------------------------------------
# Hash-based formats
# ---------------------------------------------------------------------------


class DOKFormat(StorageFormat):
    """Dictionary-of-keys: one flat hash-map keyed by the full coordinate tuple."""

    format_name = "dok"

    def __init__(self, name: str, entries: Mapping[tuple[int, ...], float],
                 shape: Sequence[int]):
        super().__init__(name, tuple(shape))
        self.hashmap = PhysicalHashMap(f"{name}_hash", dict(entries), self.shape)

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs):
        return cls(name, _entries_from_coo(coords, values, len(shape)), shape)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return stats.rank >= 1

    @property
    def nnz(self) -> int:
        return self.hashmap.nnz

    def physical(self) -> dict[str, Any]:
        return {f"{self.name}_hash": self.hashmap}

    def mapping_source(self) -> str:
        n = self.name
        variables = ", ".join(f"i{axis + 1}" for axis in range(self.rank))
        return f"sum(<({variables}), v> in {n}_hash) {{ ({variables}) -> v }}"

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        for key, value in self.hashmap.entries.items():
            dense[key] += value
        return dense

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        return _coo_from_entries(self.hashmap.entries, self.rank)

    def profile(self) -> Profile:
        coords = np.array(list(self.hashmap.entries.keys()), dtype=np.int64).reshape(-1, self.rank)
        return _branching_profile(coords)


class TrieFormat(StorageFormat):
    """A trie (tree of hash-maps): one hash level per dimension."""

    format_name = "trie"

    def __init__(self, name: str, entries: Mapping[tuple[int, ...], float],
                 shape: Sequence[int]):
        super().__init__(name, tuple(shape))
        self.trie = PhysicalTrie.from_entries(f"{name}_trie", dict(entries), self.shape)
        self._nnz = sum(1 for v in entries.values() if v != 0)

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs):
        return cls(name, _entries_from_coo(coords, values, len(shape)), shape)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        # The trie mapping enumerates one hash level per dimension, rank <= 3.
        return 1 <= stats.rank <= 3

    @property
    def nnz(self) -> int:
        return self._nnz

    def physical(self) -> dict[str, Any]:
        return {f"{self.name}_trie": self.trie}

    def mapping_source(self) -> str:
        n = self.name
        if self.rank == 1:
            return f"sum(<i, v> in {n}_trie) {{ i -> v }}"
        if self.rank == 2:
            return f"sum(<i, row> in {n}_trie, <j, v> in row) {{ (i, j) -> v }}"
        return (
            f"sum(<i, fiber> in {n}_trie, <j, row> in fiber, <k, v> in row) "
            f"{{ (i, j, k) -> v }}"
        )

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        _fill_dense_from_nested(dense, self.trie.nested, ())
        return dense

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        entries: dict[tuple[int, ...], float] = {}
        _collect_nested_entries(self.trie.nested, (), entries)
        return _coo_from_entries(entries, self.rank)

    def to_buffers(self) -> dict[str, np.ndarray]:
        from ..execution.buffers import BufferLevels
        from .convert import coo_arrays

        coords, values = coo_arrays(self)
        levels = BufferLevels.from_sorted_coords(
            coords.reshape(-1, max(1, self.rank)), values)
        buffers: dict[str, np.ndarray] = {}
        for depth in range(levels.depth):
            buffers[f"keys{depth + 1}"] = levels.keys[depth]
            buffers[f"seg{depth + 1}"] = levels.seg[depth]
        buffers["val"] = levels.values
        return buffers

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "TrieFormat":
        from ..execution.buffers import BufferLevels

        rank = max(1, len(tuple(shape)))
        levels = BufferLevels(
            [np.asarray(buffers[f"keys{d + 1}"], dtype=np.int64)
             for d in range(rank)],
            [np.asarray(buffers[f"seg{d + 1}"], dtype=np.int64)
             for d in range(rank)],
            np.asarray(buffers["val"], dtype=np.float64))
        coords = levels.leaf_coords()
        return cls(name, _entries_from_coo(coords, levels.values, rank), shape)

    def profile(self) -> Profile:
        levels = []
        level = [self.trie.nested]
        for _ in range(self.rank):
            sizes = [len(node) for node in level if isinstance(node, dict)]
            levels.append(float(np.mean(sizes)) if sizes else 0.0)
            next_level = []
            for node in level:
                if isinstance(node, dict):
                    next_level.extend(node.values())
            level = next_level
        profile: Profile = ("s",)
        # The first level count is the total number of keys; deeper levels are averages.
        counts = [float(len(self.trie.nested))] + levels[1:]
        for factor in reversed(counts):
            profile = (factor, profile)
        return profile


def _entries_from_coo(coords: np.ndarray, values: np.ndarray,
                      rank: int) -> dict[tuple[int, ...], float]:
    """Tuple-keyed entries from coordinate data, duplicates summed."""
    coords, values = sum_duplicates(coords, values, rank)
    return {tuple(int(c) for c in coordinate): float(v)
            for coordinate, v in zip(coords, values)}


def _coo_from_entries(entries: Mapping[tuple[int, ...], float],
                      rank: int) -> tuple[np.ndarray, np.ndarray]:
    """Inverse of :func:`_entries_from_coo` (unsorted; callers canonicalize)."""
    if not entries:
        return np.empty((0, rank), dtype=np.int64), np.empty(0, dtype=np.float64)
    coords = np.array(list(entries.keys()), dtype=np.int64).reshape(-1, rank)
    values = np.array(list(entries.values()), dtype=np.float64)
    return coords, values


def _collect_nested_entries(nested: dict, prefix: tuple[int, ...],
                            out: dict[tuple[int, ...], float]) -> None:
    for key, value in nested.items():
        if isinstance(value, dict):
            _collect_nested_entries(value, prefix + (int(key),), out)
        else:
            out[prefix + (int(key),)] = float(value)


def _fill_dense_from_nested(dense: np.ndarray, nested: dict, prefix: tuple[int, ...]) -> None:
    for key, value in nested.items():
        if isinstance(value, dict):
            _fill_dense_from_nested(dense, value, prefix + (int(key),))
        else:
            dense[prefix + (int(key),)] += value


def _branching_profile(coords: np.ndarray, *, canonical: bool = False) -> Profile:
    """Nested profile of the coordinate tree: the average branching factor
    of every level.

    Sorted lexicographically, a row starts a new length-``level`` prefix
    where it differs from its predecessor in one of the first ``level``
    columns: one comparison per level, after one sort unless the rows are
    already ``canonical`` (sorted and unique, as COO stores them).
    """
    factors: list[float] = []
    if coords.shape[0] == 0:
        factors = [0.0] * coords.shape[1]
    else:
        rows = coords if canonical else coords[np.lexsort(coords.T[::-1])]
        starts = np.zeros(rows.shape[0] - 1, dtype=bool)
        previous = 1
        for level in range(rows.shape[1]):
            starts |= rows[1:, level] != rows[:-1, level]
            distinct = 1 + int(np.count_nonzero(starts))
            factors.append(distinct / previous)
            previous = distinct
    profile: Profile = ("s",)
    for factor in reversed(factors):
        profile = (factor, profile)
    return profile


#: Registry of formats by short name, used by the benchmark harness.
FORMATS: dict[str, type[StorageFormat]] = {
    "dense": DenseFormat,
    "coo": COOFormat,
    "csr": CSRFormat,
    "csc": CSCFormat,
    "dcsr": DCSRFormat,
    "csf": CSFFormat,
    "dok": DOKFormat,
    "trie": TrieFormat,
}


def build_format(kind: str, name: str, array: np.ndarray) -> StorageFormat:
    """Build tensor ``name`` from a dense array using the format named ``kind``."""
    try:
        cls = FORMATS[kind]
    except KeyError as exc:
        raise StorageError(f"unknown storage format {kind!r}") from exc
    return cls.from_dense(name, array)
