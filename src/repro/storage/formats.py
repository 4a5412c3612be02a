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
Z-order curve) live in :mod:`repro.storage.special`.  The sorted-array
formats (COO, CSR, CSC, DCSR, CSF) are declarations over one level-chain
base, :class:`LevelFormat`.

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
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from ..sdqlite.ast import Const, Expr, RangeExpr, Sym
from ..sdqlite.errors import StorageError
from ..sdqlite.parser import parse_expr
from .facts import ArrayFact, Segmentation, magnitude
from .physical import (
    KIND_ARRAY,
    KIND_HASH,
    KIND_SCALAR,
    KIND_TRIE,
    PhysicalHashMap,
    PhysicalTrie,
)
from .splice import build_levels, leaf_columns, splice

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

    def facts(self) -> dict[str, ArrayFact]:
        """What the declaration proves about each physical array, by symbol
        name (:mod:`repro.storage.facts`); none by default."""
        return {}

    def segmentation(self) -> dict[str, Segmentation]:
        """How the declaration's levels segment one another, keyed by the
        segmented array's symbol name (:class:`~repro.storage.facts.Segmentation`);
        none by default."""
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
        buffer is a NumPy array; together with ``shape`` the view fully
        determines the tensor.
        """
        from .convert import coo_arrays

        coords, values = coo_arrays(self)
        coords = coords.reshape(-1, self.rank or 1)
        buffers = {f"idx{axis + 1}": np.ascontiguousarray(coords[:, axis])
                   for axis in range(self.rank)}
        buffers["val"] = np.ascontiguousarray(values)
        return buffers

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
        self.flat = array.reshape(-1)
        self.finite = magnitude(self.flat)

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

    def facts(self) -> dict[str, ArrayFact]:
        """``val`` is finite, with the bound found on construction, when it is."""
        if self.finite is None:
            return {}
        return {f"{self.name}_val": ArrayFact(self.flat, None, None, finite=self.finite)}

    def physical(self) -> dict[str, Any]:
        symbols: dict[str, Any] = {f"{self.name}_val": self.flat}
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

    def profile(self) -> Profile:
        profile: Profile = ("s",)
        for size in reversed(self.shape):
            profile = (float(size), profile)
        return profile


# ---------------------------------------------------------------------------
# Sorted-array formats: one chain of levels
# ---------------------------------------------------------------------------

#: Level kinds of a :class:`LevelFormat`.
DENSE, COMPRESSED, TUPLE = "dense", "compressed", "tuple"


class LevelFormat(StorageFormat):
    """A sorted-array format, declared as one chain of levels.

    The entries are stored as the level chain of :mod:`repro.storage.splice`
    (``keys``, ``seg``, ``values``), after "Format Abstraction for Sparse
    Tensor Algebra Compilers" (Chou, Kjolstad & Amarasinghe, OOPSLA 2018).
    A format declares

    * ``levels`` — the kind of every level, root first: :data:`DENSE` (the
      root of a two-level chain: every row is present and its key is
      implicit), :data:`COMPRESSED` (the keys present, sorted within each
      parent's segment) or, alone, :data:`TUPLE` (COO: one level keyed by
      the whole coordinate);
    * ``_sort_axes`` — the axes in chain order when it is not the natural
      one (CSC: ``(1, 0)``, its leading axis moved to the front);
    * ``symbols`` — its physical symbols, as suffixes of ``{name}_``:
      ``idx<k>`` is the ``k``-th key column (a dense level counts as one),
      ``pos<k>`` the segment array of level ``k``, ``len<k>`` the size of a
      dense level ``k``, ``nnz`` the number of entries and ``val`` the values;
    * ``mapping_text`` — its Tensor Storage Mapping, ``$`` standing for
      ``{name}_``.

    Building, read-out, statistics, the buffer export and the write splice
    follow from the declaration.
    """

    levels: tuple[str, ...] = ()
    _sort_axes: tuple[int, ...] = ()
    symbols: tuple[str, ...] = ()
    mapping_text = ""

    def __init__(self, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int]):
        shape = tuple(shape)
        if self.levels != (TUPLE,) and len(shape) != len(self.levels):
            raise StorageError(f"{type(self).__name__} stores rank-{len(self.levels)} tensors")
        self._build(name, *sum_duplicates(coords, values, len(shape)), shape)

    def _build(self, name, coords, values, shape) -> None:
        """Store canonical (sorted, unique, non-zero) entries.

        COO's columns stay views of ``coords``; a chain's leaf keys get an
        array of their own.
        """
        StorageFormat.__init__(self, name, shape)
        cols = [coords[:, axis] for axis in self._axes]
        for col, axis in zip(cols, self._axes):
            # Viewed unsigned, a negative key is huge: one pass finds both ends.
            if col.shape[0] and int(col.view(np.uint64).max()) >= self.shape[axis]:
                raise StorageError(
                    f"coordinates of {name!r} out of range for shape {self.shape}")
        if self._sort_axes:
            # The entries are in row-major order: a stable sort by the leading
            # axis puts them in chain order.
            order = np.argsort(cols[0], kind="stable")
            cols, values = [col[order] for col in cols], values[order]
        if self.levels == (TUPLE,):
            self.keys, self.seg = build_levels(cols, (self.rank,))
        else:
            cols[-1] = np.ascontiguousarray(cols[-1])
            dense = self.shape[self._axes[0]] if self.levels[0] == DENSE else None
            self.keys, self.seg = build_levels(cols, (1,) * self.rank, dense)
        self.values = values
        self.finite = magnitude(values)

    @property
    def _axes(self) -> Sequence[int]:
        return self._sort_axes or range(self.rank)

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs):
        return cls(name, coords, values, shape)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return stats.rank >= 1 if cls.levels == (TUPLE,) else stats.rank == len(cls.levels)

    @property
    def nnz(self) -> int:
        return int(self.values.shape[0])

    @cached_property
    def _slots(self) -> list[tuple[str, str, int]]:
        """``(suffix, kind, index)`` of every declared symbol, parsed once."""
        return [(symbol, symbol[:3], int(symbol[3:] or 0) - 1) for symbol in self.symbols]

    def _named(self) -> dict[str, Any]:
        """The value of every declared symbol, keyed by its suffix."""
        cols = [col for level in self.keys for col in level or (None,)]
        named: dict[str, Any] = {}
        for symbol, kind, index in self._slots:
            named[symbol] = (self.values if kind == "val" else
                             self.nnz if kind == "nnz" else
                             int(self.seg[index][-1]) if kind == "len" else
                             self.seg[index] if kind == "pos" else cols[index])
        return named

    def physical(self) -> dict[str, Any]:
        prefix = self.name + "_"
        return {prefix + symbol: value for symbol, value in self._named().items()}

    def mapping_source(self) -> str:
        return self.mapping_text.replace("$", f"{self.name}_")

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        coords = np.empty((self.nnz, self.rank), dtype=np.int64)
        for axis, col in zip(self._axes, leaf_columns(self.keys, self.seg)):
            coords[:, axis] = col
        return coords, self.values.copy()

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        coords, values = self.to_coo()
        dense[tuple(coords.T)] = values
        return dense

    def to_buffers(self) -> dict[str, np.ndarray]:
        """The physical arrays, keyed by symbol suffix (``pos2``, ``idx2``, ``val``)."""
        return {symbol: value for symbol, value in self._named().items()
                if isinstance(value, np.ndarray)}

    def _with_arrays(self, fn) -> "LevelFormat":
        """A copy whose physical arrays are ``fn(symbol name, array)``."""
        names = {id(array): f"{self.name}_{symbol}"
                 for symbol, array in self.to_buffers().items()}

        def apply(array):
            return array if id(array) not in names else fn(names[id(array)], array)

        out = copy.copy(self)
        out.keys = [None if level is None else [apply(col) for col in level]
                    for level in self.keys]
        out.seg = [apply(seg) for seg in self.seg]
        out.values = apply(self.values)
        return out

    def _splice(self, coords, values):
        spliced = copy.copy(self)
        spliced.keys, spliced.seg, spliced.values, written = splice(
            self.keys, self.seg, self.values, [coords[:, axis] for axis in self._axes], values)
        # An entry the delta leaves alone keeps its value, and one that is not
        # finite stays so under any addition: the written values decide.
        spliced.finite = magnitude(written, self.finite)
        return spliced

    def _entry_counts(self) -> list[int]:
        """Entries per level, root first.  COO's level counts the distinct
        prefixes of every length, a dense level its size, and an interior
        level at least one entry."""
        if self.levels == (TUPLE,):
            return _prefix_counts(self.keys[0])
        counts = [seg.shape[0] - 1 for seg in self.seg[1:]] + [self.nnz]
        return [count if d in (0, len(counts) - 1) else max(1, count)
                for d, count in enumerate(counts)]

    def profile(self) -> Profile:
        return _profile_of(self._entry_counts())

    def facts(self) -> dict[str, ArrayFact]:
        """The facts the level kinds imply, in O(1): every ``idx<k>`` key lies
        in ``[0, shape[axis])``; every ``pos<k>`` is non-decreasing, from 0
        to the number of entries of level ``k``; and, when the values were
        all finite as written, ``val`` is finite, with the bound found then."""
        prefix, named, axes = self.name + "_", self._named(), self._axes
        facts = {}
        for symbol, kind, index in self._slots:
            array = named[symbol]
            if kind == "idx":
                facts[prefix + symbol] = ArrayFact(array, 0, self.shape[axes[index]] - 1)
            elif kind == "pos":
                facts[prefix + symbol] = ArrayFact(array, 0, int(array[-1]), True)
            elif kind == "val" and self.finite is not None:
                facts[prefix + symbol] = ArrayFact(array, None, None, finite=self.finite)
        return facts

    def segmentation(self) -> dict[str, Segmentation]:
        """Every compressed level ``k >= 2``: ``pos<k>`` splits ``idx<k>`` into
        one segment per entry of level ``k - 1``, enumerated by ``0:len1``
        under a dense root and by the positions of ``idx<k-1>`` otherwise."""
        prefix = self.name + "_"
        declared = {}
        for k in range(2, len(self.levels) + 1):
            if self.levels[k - 1] != COMPRESSED:
                continue
            parents = (RangeExpr(Const(0), Sym(f"{prefix}len{k - 1}"))
                       if self.levels[k - 2] == DENSE else Sym(f"{prefix}idx{k - 1}"))
            declared[f"{prefix}idx{k}"] = Segmentation(f"{prefix}pos{k}", parents)
        return declared

    def segment_profiles(self) -> dict[str, float]:
        """Average segment length of every level below the root, and of ``val``."""
        if len(self.keys) == 1:
            return {}
        counts = self._entry_counts()
        profiles = {f"{self.name}_idx{d + 1}": counts[d] / max(1, counts[d - 1])
                    for d in range(1, len(counts))}
        profiles[f"{self.name}_val"] = counts[-1] / max(1, counts[-2])
        return profiles


class COOFormat(LevelFormat):
    """Coordinate format: one index array per dimension plus a value array."""

    format_name = "coo"
    levels = (TUPLE,)

    @property
    def symbols(self) -> tuple[str, ...]:
        return ("nnz", "val") + tuple(f"idx{axis + 1}" for axis in range(self.rank))

    @property
    def mapping_text(self) -> str:
        keys = ", ".join(f"$idx{axis + 1}(p)" for axis in range(self.rank))
        return f"sum(<p,_> in 0:$nnz) {{ ({keys}) -> $val(p) }}"

    @property
    def coords(self) -> np.ndarray:
        """The stored coordinates, an ``nnz x rank`` matrix in canonical order."""
        return np.column_stack(self.keys[0])


class CSRFormat(LevelFormat):
    """Compressed Sparse Row: dense rows, sparse columns (the paper's Fig. 1(b))."""

    format_name = "csr"
    levels = (DENSE, COMPRESSED)
    symbols = ("len1", "pos2", "idx2", "val")
    mapping_text = ("sum(<row,_> in 0:$len1) { @unique row -> "
                    "sum(<off, col> in $idx2($pos2(row):$pos2(row+1))) "
                    "{ @unique col -> $val(off) } }")


class CSCFormat(CSRFormat):
    """Compressed Sparse Column: dense columns, sparse rows.

    The logical tensor is still keyed ``(i, j)``; the mapping simply iterates
    columns in the outer loop, so the outer key of the produced dictionary is
    the row index coming from the segmented array.
    """

    format_name = "csc"
    _sort_axes = (1, 0)
    mapping_text = ("sum(<col,_> in 0:$len1) "
                    "sum(<off, row> in $idx2($pos2(col):$pos2(col+1))) "
                    "{ (row, col) -> $val(off) }")


class DCSRFormat(LevelFormat):
    """Doubly compressed sparse row (sparse-sparse): only non-empty rows are stored."""

    format_name = "dcsr"
    levels = (COMPRESSED, COMPRESSED)
    symbols = ("pos1", "idx1", "pos2", "idx2", "val")
    mapping_text = ("sum(<i_pos, i> in $idx1) { @unique i -> "
                    "sum(<j_pos, j> in $idx2($pos2(i_pos):$pos2(i_pos+1))) "
                    "{ @unique j -> $val(j_pos) } }")


class CSFFormat(LevelFormat):
    """Compressed Sparse Fiber for rank-3 tensors (sparse tree of segments)."""

    format_name = "csf"
    levels = (COMPRESSED, COMPRESSED, COMPRESSED)
    symbols = ("idx1", "pos2", "idx2", "pos3", "idx3", "val")
    mapping_text = ("sum(<p1, i> in $idx1) { @unique i -> "
                    "sum(<p2, k> in $idx2($pos2(p1):$pos2(p1+1))) { @unique k -> "
                    "sum(<p3, l> in $idx3($pos3(p2):$pos3(p2+1))) "
                    "{ @unique l -> $val(p3) } } }")


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
        return _keys_profile(self.hashmap.entries, self.rank)


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
        """One key and one segment array per trie level, and the values (the
        stored trie's own export)."""
        return self.trie.to_buffers()

    def profile(self) -> Profile:
        entries: dict[tuple[int, ...], float] = {}
        _collect_nested_entries(self.trie.nested, (), entries)
        return _keys_profile(entries, self.rank)


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


def _prefix_counts(cols: Sequence[np.ndarray]) -> list[int]:
    """The number of distinct length-``k`` prefixes, for every ``k``, of
    lexicographically sorted coordinates given as columns.

    A row starts a new length-``k`` prefix where it differs from its
    predecessor in one of the first ``k`` columns: one comparison per column.
    """
    n = cols[0].shape[0]
    if n == 0:
        return [0] * len(cols)
    starts = np.zeros(n - 1, dtype=bool)
    counts = []
    for col in cols:
        starts |= col[1:] != col[:-1]
        counts.append(1 + int(np.count_nonzero(starts)))
    return counts


def _keys_profile(keys: Iterable[tuple[int, ...]], rank: int) -> Profile:
    """The profile of a hash-keyed structure (DOK, trie) holding ``keys``:
    the distinct prefixes of every length, counted over the sorted keys."""
    coords = np.array(list(keys), dtype=np.int64).reshape(-1, rank)
    return _profile_of(_prefix_counts(list(coords[np.lexsort(coords.T[::-1])].T)))


def _profile_of(counts: Sequence[int]) -> Profile:
    """Nested profile from the entry count of every level: the root's count,
    then the average number of children per entry of the level above."""
    profile: Profile = ("s",)
    for d in range(len(counts) - 1, 0, -1):
        profile = (counts[d] / max(1, counts[d - 1]), profile)
    return (float(counts[0]), profile)


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
