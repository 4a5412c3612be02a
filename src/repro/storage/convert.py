"""Conversions between storage formats, NumPy, SciPy — and in-catalog re-formats.

Two layers live here:

* **Interchange** (:func:`from_scipy`, :func:`to_scipy_csr`,
  :func:`to_scipy_csc`, :func:`to_dense_vector`, :func:`coo_arrays`,
  :func:`as_relation`): used by the baseline systems (SciPy / NumPy / the
  relational baseline execute the same data) and by the dataset loaders,
  which generate data once and hand it to every system in the same benchmark
  run.
* **Re-formatting** (:func:`reformat`, :func:`reformat_in_catalog`,
  :func:`candidate_formats`): re-store a tensor in another format while
  keeping its logical name and contents — the mechanics behind the paper's
  central claim (Sec. 4) that storage is a *choice*, and the executor of the
  workload-driven advisor's recommendations (:mod:`repro.advisor`, which
  calls :func:`reformat` through
  :meth:`repro.session.Session.apply_recommendation`).

All conversions go through coordinate form (:func:`coo_arrays`), so the
sum-duplicates semantics documented in :func:`repro.storage.formats.sum_duplicates`
hold uniformly.  Example::

    >>> import numpy as np
    >>> from repro.storage import CSRFormat
    >>> from repro.storage.convert import reformat
    >>> csr = CSRFormat.from_dense("A", np.eye(3))
    >>> reformat(csr, "trie").format_name
    'trie'
"""

from __future__ import annotations

import logging

import numpy as np

from ..sdqlite.errors import StorageError
from .formats import (
    FORMATS,
    TUPLE,
    DenseFormat,
    LevelFormat,
    StorageFormat,
    TensorStats,
    sum_duplicates,
)
from .sharded import SHARDED_FORMATS, ShardedFormat
from .special import SPECIAL_FORMATS

_log = logging.getLogger("repro.storage")

#: Every named storage format: the general-purpose menu of ``formats.py``
#: plus the Sec. 4 special formats and the out-of-core sharded family.
#: This is the advisor's search alphabet.
ALL_FORMATS: dict[str, type[StorageFormat]] = {
    **FORMATS, **SPECIAL_FORMATS, **SHARDED_FORMATS}


def parse_format_spec(kind: str) -> tuple[str, int | None]:
    """Split a format specification into ``(base_name, shard_count)``.

    Format names may carry a shard-count parameter after ``@``
    (``"sharded_csr@4"`` = sharded CSR with four row-range shards); plain
    names return ``(kind, None)``.  This is the advisor's shard-size knob:
    parameterized names flow through :func:`reformat`,
    :func:`candidate_formats` and the session's ``apply_recommendation``
    exactly like plain ones.
    """
    base, sep, param = kind.partition("@")
    if not sep:
        return kind, None
    try:
        shards = int(param)
    except ValueError:
        raise StorageError(f"malformed format specification {kind!r}") from None
    if shards < 1:
        raise StorageError(f"shard count must be >= 1 in {kind!r}")
    return base, shards


def _require_scipy():
    """``scipy.sparse``, imported on first use: SciPy is optional, only the
    interchange helpers need it, and importing it costs a process ~0.2 s."""
    try:
        import scipy.sparse as sp
    except ImportError:  # pragma: no cover - exercised only on scipy-less installs
        raise StorageError("this conversion requires scipy, which is not installed") from None
    return sp


def from_scipy(kind: str, name: str, matrix) -> StorageFormat:
    """Build a storage format from any SciPy sparse matrix.

    ``kind`` names one of the repro formats (``"csr"``, ``"trie"``, ...);
    the SciPy matrix is read out in COO form, so duplicate entries are summed
    exactly as SciPy itself would on ``sum_duplicates()``.
    """
    _require_scipy()
    coo = matrix.tocoo()
    coords = np.stack([coo.row, coo.col], axis=1)
    try:
        cls = ALL_FORMATS[kind]
    except KeyError as exc:
        raise StorageError(f"unknown storage format {kind!r}") from exc
    return cls.from_coo(name, coords, coo.data, coo.shape)


def to_scipy_csr(fmt: StorageFormat):
    """Convert a rank-2 format to a SciPy CSR matrix (zero-copy when already CSR).

    A two-level chain kept in row order hands its arrays over directly
    (:func:`_compressed`); everything else goes through coordinate form —
    never through a dense intermediate.
    """
    sp = _require_scipy()
    if len(fmt.shape) != 2:
        raise StorageError("to_scipy_csr requires a rank-2 tensor")
    arrays = _compressed(fmt, (0, 1))
    if arrays is not None:
        return sp.csr_matrix(arrays, shape=fmt.shape)
    return _scipy_from_coo(sp.csr_matrix, fmt)


def to_scipy_csc(fmt: StorageFormat):
    """Convert a rank-2 format to a SciPy CSC matrix (zero-copy when already CSC).

    A two-level chain kept in column order hands its arrays over directly
    (:func:`_compressed`); other formats build the matrix from their
    coordinate read-out in O(nnz).
    """
    sp = _require_scipy()
    if len(fmt.shape) != 2:
        raise StorageError("to_scipy_csc requires a rank-2 tensor")
    arrays = _compressed(fmt, (1, 0))
    if arrays is not None:
        return sp.csc_matrix(arrays, shape=fmt.shape)
    return _scipy_from_coo(sp.csc_matrix, fmt)


def _compressed(fmt: StorageFormat, axes: tuple[int, int]):
    """SciPy's ``(data, indices, indptr)`` of a two-level chain stored in
    axis order ``axes``, else ``None``.

    A dense outer level's segment array *is* ``indptr`` (CSR, CSC: nothing
    is copied); a compressed one's directory is expanded to every outer key
    in O(outer + nnz) (DCSR).
    """
    if not isinstance(fmt, LevelFormat) or fmt.levels == (TUPLE,) \
            or tuple(fmt._axes) != axes:
        return None
    (outer, (inner,)), (_, indptr) = fmt.keys, fmt.seg
    if outer is not None:
        counts = np.zeros(fmt.shape[axes[0]] + 1, dtype=np.int64)
        counts[outer[0] + 1] = np.diff(indptr)
        indptr = np.cumsum(counts)
    return fmt.values, inner, indptr


def _scipy_from_coo(matrix_cls, fmt: StorageFormat):
    """Build a SciPy matrix from a format's coordinate read-out (O(nnz))."""
    coords, values = coo_arrays(fmt)
    if not len(values):
        return matrix_cls(fmt.shape)
    return matrix_cls((values, (coords[:, 0], coords[:, 1])), shape=fmt.shape)


def to_dense_vector(fmt: StorageFormat) -> np.ndarray:
    """Convert a rank-1 format to a dense NumPy vector."""
    if len(fmt.shape) != 1:
        raise StorageError("to_dense_vector requires a rank-1 tensor")
    return fmt.to_dense()


def coo_arrays(fmt: StorageFormat) -> tuple[np.ndarray, np.ndarray]:
    """Return ``(coords, values)`` for any format (canonical coordinate form).

    The canonical interchange representation: every re-format and baseline
    conversion goes through here, so a tensor's contents survive any chain of
    format changes bit-for-bit (coordinates come out sorted row-major,
    explicit zeros dropped).  The read-out is the format's own
    :meth:`~repro.storage.formats.StorageFormat.to_coo` — O(nnz) for every
    sparse format, never a dense intermediate — normalized here with
    :func:`~repro.storage.formats.sum_duplicates` unless the format already
    keeps its entries in that order.
    """
    coords, values = fmt.to_coo()
    if fmt._sort_axes == ():
        return coords, values
    return sum_duplicates(coords, values, len(fmt.shape))


def as_relation(fmt: StorageFormat) -> np.ndarray:
    """Encode the tensor as a relation: one row per non-zero, columns = coords + value.

    This is the representation used by the DuckDB-like relational baseline
    (tensors as relations, Sec. 2 of the paper).
    """
    coords, values = coo_arrays(fmt)
    if coords.size == 0:
        return np.zeros((0, len(fmt.shape) + 1))
    return np.column_stack([coords.astype(np.float64), values])


def densify(fmt: StorageFormat) -> DenseFormat:
    """Re-store any tensor densely (used by the dense-vs-sparse sweeps of Fig. 8)."""
    return DenseFormat(fmt.name, fmt.to_dense())


def apply_delta(fmt: StorageFormat, coords, values) -> StorageFormat:
    """Add a sparse delta to a tensor, returning a new format of the same class.

    ``coords`` is an ``(n, rank)`` integer array (or nested sequence) and
    ``values`` the ``n`` additive deltas.  Existing entries are incremented,
    absent ones inserted, and entries cancelling to exact zero dropped — the
    same coalescing semantics as
    :func:`repro.storage.formats.sum_duplicates`, so the result equals
    ``from_coo`` of the old entries followed by the delta, bit for bit.

    The sorted-array formats (COO, CSR/CSC, DCSR, CSF, and each touched
    shard of the sharded family) splice the delta into their stored levels
    (:func:`repro.storage.splice.splice`): ``O(k log k)`` to sort a
    ``k``-entry delta, ``O(k log nnz)`` comparisons to place it, the
    position arrays re-derived in ``O(#parents)``, and one copy of each
    array that gains or loses an entry; untouched arrays are shared with
    the old format.  Dense storage scatters into a copy; hash, trie and
    the Sec. 4 special layouts are rebuilt through ``from_coo`` (one
    ``O(nnz log nnz)`` sort).  The format class
    and shape are preserved, which is what lets
    :meth:`repro.storage.Catalog.update` treat this as a value-only
    mutation.  Special formats re-validate their structural preconditions
    and raise :class:`~repro.sdqlite.errors.StorageError` when the delta
    breaks them (e.g. writing above the diagonal of a lower-triangular
    tensor).
    """
    rank = len(fmt.shape)
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, rank)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if len(coords) != len(values):
        raise StorageError(
            f"delta has {len(coords)} coordinates but {len(values)} values")
    if len(coords) and ((coords < 0).any()
                        or (coords >= np.asarray(fmt.shape)).any()):
        raise StorageError(
            f"delta coordinates out of range for shape {tuple(fmt.shape)}")
    if not len(coords):
        return fmt
    if type(fmt) is DenseFormat:
        dense = fmt.array.copy()
        np.add.at(dense, tuple(coords.T), values)
        return DenseFormat(fmt.name, dense)
    if fmt._sort_axes is not None:
        return fmt._splice(coords, values)
    _log.debug("apply_delta: rebuilding %s %r (nnz=%d) for a %d-entry delta: "
               "the layout has no level chain", fmt.format_name, fmt.name,
               fmt.nnz, len(values))
    base_coords, base_values = coo_arrays(fmt)
    return type(fmt).from_coo(fmt.name, np.concatenate([base_coords, coords]),
                              np.concatenate([base_values, values]), fmt.shape,
                              **fmt.from_coo_kwargs())


def reformat(fmt: StorageFormat, kind: str) -> StorageFormat:
    """Re-store a tensor in the format named ``kind``, keeping name and contents.

    Accepts every format name in :data:`ALL_FORMATS` (the general-purpose
    formats *and* the Sec. 4 special formats — the special constructors
    validate their structural preconditions and raise
    :class:`~repro.sdqlite.errors.StorageError` when the data does not fit).
    Returns ``fmt`` itself when it already has that format, so callers can
    use ``reformat(fmt, kind) is fmt`` as a no-op check.

    Sharded formats accept a shard-count parameter after ``@``
    (``"sharded_csr@4"``, see :func:`parse_format_spec`); the plain name
    picks the format's default shard count.

    >>> import numpy as np
    >>> from repro.storage import TrieFormat
    >>> trie = TrieFormat.from_dense("A", np.tril(np.ones((4, 4))))
    >>> reformat(trie, "lower_triangular").format_name
    'lower_triangular'
    """
    base, shards = parse_format_spec(kind)
    try:
        cls = ALL_FORMATS[base]
    except KeyError as exc:
        raise StorageError(f"unknown storage format {kind!r}") from exc
    if fmt.spec_name == kind or (shards is None and fmt.format_name == kind):
        return fmt
    if shards is not None and not issubclass(cls, ShardedFormat):
        raise StorageError(f"format {base!r} does not take a shard count ({kind!r})")
    coords, values = coo_arrays(fmt)
    kwargs = {} if shards is None else {"shards": shards}
    return cls.from_coo(fmt.name, coords, values, fmt.shape, **kwargs)


def reformat_in_catalog(catalog, name: str, kind: str) -> StorageFormat:
    """Re-store tensor ``name`` inside ``catalog`` in the format named ``kind``.

    This is the in-place re-format behind
    :meth:`repro.session.Session.apply_recommendation`: the converted format
    replaces the old one via :meth:`repro.storage.Catalog.replace`, which
    bumps the catalog's schema epoch so sessions rebuild statistics and
    prepared statements transparently re-prepare.  A no-op (tensor already
    stored that way) leaves the catalog epochs untouched.
    """
    try:
        fmt = catalog.tensors[name]
    except KeyError as exc:
        raise StorageError(f"cannot re-format {name!r}: not a registered tensor") from exc
    converted = reformat(fmt, kind)
    if converted is not fmt:
        catalog.replace(converted)
    return converted


def candidate_formats(fmt: StorageFormat, *, include_special: bool = True,
                      stats: TensorStats | None = None,
                      shard_counts: tuple[int, ...] = ()) -> list[str]:
    """Names of every format that can legally store ``fmt``'s tensor.

    Asks each registered format class :meth:`StorageFormat.candidates_for`
    with a :class:`TensorStats` summary of the tensor (computed once here
    unless passed in).  The tensor's *current* format is always included.
    ``include_special=False`` restricts the answer to the general-purpose
    menu of ``formats.py``.  ``shard_counts`` additionally offers
    parameterized variants (``"sharded_coo@4"``) of every legal sharded
    format for each requested count that fits the outer dimension — the
    advisor's shard-size search dimension.
    """
    stats = stats if stats is not None else TensorStats.of(fmt)
    registry = ALL_FORMATS if include_special else FORMATS
    names = [name for name, cls in registry.items() if cls.candidates_for(stats)]
    if fmt.format_name not in names and fmt.format_name in registry:
        names.append(fmt.format_name)
    if shard_counts:
        names.extend(
            f"{name}@{count}"
            for name, cls in SHARDED_FORMATS.items()
            if issubclass(cls, ShardedFormat) and cls.candidates_for(stats)
            for count in shard_counts
            if 1 <= count <= max(1, stats.shape[0]))
    return names


def restore(fmt: StorageFormat, kind: str) -> StorageFormat:
    """Re-store a tensor in another format, keeping its name and contents.

    Historical alias of :func:`reformat` restricted to the general-purpose
    formats; prefer :func:`reformat`, which also accepts the special formats.
    """
    if kind not in FORMATS:
        raise StorageError(f"unknown storage format {kind!r}")
    return reformat(fmt, kind)
