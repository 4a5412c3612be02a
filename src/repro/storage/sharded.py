"""Sharded (out-of-core) storage formats: row-range shards and memory maps.

The semiring structure of SDQLite makes *partitioning* a physical-format
dimension: a tensor stored as row-range shards is logically the semiring sum
of its shards, and because the shards cover disjoint row ranges, the sum is
a disjoint union — ``sum`` over the whole tensor decomposes *exactly* into
the ``v_add`` of per-shard partial sums.  The formats below exploit that by
expressing the Tensor Storage Mapping as an ``Add`` chain of one mapping per
shard, so every execution backend streams shard-by-shard (and the shard
executor of :mod:`repro.execution.sharded` runs shards in parallel
processes) with **no backend changes at all**: the decomposition happens in
the mapping, where the optimizer can also normalize it
(:func:`repro.core.strategies.split_sharded_sum`).

Three formats:

* :class:`ShardedCOOFormat` — one :class:`~repro.storage.formats.COOFormat`
  per row range, coordinates kept *absolute* (no offset arithmetic in the
  mapping).  With ``memmap_dir=`` the per-shard index/value arrays live in
  memory-mapped files, so tensors whose dense volume vastly exceeds RAM
  stream through execution with O(one shard) resident memory.
* :class:`ShardedCSRFormat` — one local
  :class:`~repro.storage.formats.CSRFormat` per row range; the mapping
  re-bases rows through a per-shard offset scalar, so plans survive
  re-balancing deltas (the offset is a symbol, never a literal).
* :class:`MemmapDenseFormat` — dense row-major storage backed by
  ``np.memmap``; construction from coordinates scatters straight into the
  file, so the dense tensor never materializes in RAM.

Shard boundaries are *deterministic* in ``(outer_dim, n_shards)`` — equal
row ranges, not nnz-balanced — so a sparse delta
(:func:`repro.storage.convert.apply_delta`) splices into the shards its rows
fall in and leaves identical physical symbols and identical mapping text:
exactly the value-only mutation contract :meth:`repro.storage.Catalog.update`
relies on.

The two sharded formats are one :class:`ShardedFormat` holding a plain
format per shard, named ``{tensor}__s{i}``, so shard-local symbols are named
``{tensor}__s{i}_{suffix}``; the ``__s{i}_`` infix is the marker the
optimizer's shard-aware rewrites key on (:data:`SHARD_SYMBOL_RE`).
"""

from __future__ import annotations

import copy
import os
import re
import tempfile
import weakref
from functools import cached_property
from typing import Any, Sequence

import numpy as np

from ..sdqlite.errors import StorageError
from .facts import ArrayFact, Segmentation
from .formats import (
    COOFormat,
    CSRFormat,
    DenseFormat,
    LevelFormat,
    Profile,
    StorageFormat,
    TensorStats,
    _prefix_counts,
    _profile_of,
    coo_from_dense,
    sum_duplicates,
)

#: Matches a shard-local physical symbol and captures (tensor, shard index).
SHARD_SYMBOL_RE = re.compile(r"^(.+)__s(\d+)_[A-Za-z0-9]+$")

#: Default target number of stored entries per shard.
DEFAULT_SHARD_NNZ = 1 << 16

#: Dense-volume floor below which ``memmap_dense`` is not offered as a
#: candidate (tiny tensors gain nothing from a file-backed array, and the
#: fuzzer's catalogs stay in-memory).
MEMMAP_MIN_CELLS = 1 << 20


def shard_bounds(outer_dim: int, n_shards: int) -> np.ndarray:
    """Row-range boundaries: ``n_shards + 1`` splits of ``[0, outer_dim)``.

    Deterministic in its arguments (equal row ranges), which keeps physical
    symbols and mapping text stable across value-only rebuilds.
    """
    outer_dim = int(outer_dim)
    n = max(1, min(int(n_shards), max(1, outer_dim)))
    return np.array([round(i * outer_dim / n) for i in range(n + 1)],
                    dtype=np.int64)


def default_shard_count(nnz: int, outer_dim: int) -> int:
    """Shards targeting :data:`DEFAULT_SHARD_NNZ` entries each, at least 2.

    The floor of 2 means even small tensors exercise the multi-shard code
    paths (and the fuzz oracle's sharded columns are never trivially
    single-shard); the ceiling is one shard per row.
    """
    wanted = max(2, -(-int(nnz) // DEFAULT_SHARD_NNZ))
    return max(1, min(wanted, max(1, int(outer_dim))))


def _spill(array: np.ndarray, directory: str | None, prefix: str) -> np.ndarray:
    """Write ``array`` to a fresh memory-mapped file, return a read-only view.

    The file is removed (pid-guarded) once the returned map is garbage: its
    lifetime follows the array, not the format that first stored it, so a
    format that a write derives from this one and that shares the array
    keeps the file alive for workers that map it by name.  Empty arrays are
    returned unchanged with no file (a zero-length mmap is not
    representable).
    """
    if not array.size:
        return array
    fd, path = tempfile.mkstemp(prefix=f"{prefix}_", suffix=".mm", dir=directory)
    os.close(fd)
    writer = np.memmap(path, dtype=array.dtype, mode="w+", shape=array.shape)
    writer[:] = array
    writer.flush()
    del writer
    mapped = np.memmap(path, dtype=array.dtype, mode="r", shape=array.shape)
    weakref.finalize(mapped, _unlink_guarded, path, os.getpid())
    return mapped


def _unlink_guarded(path: str, owner_pid: int) -> None:
    """Remove a spill file, but only from the process that created it.

    Forked worker processes inherit the finalizers; without the pid guard a
    worker exiting would delete files the parent still maps.
    """
    if os.getpid() != owner_pid:
        return
    try:
        os.unlink(path)
    except OSError:
        pass


class ShardedFormat(StorageFormat):
    """Row-range shards, each one plain instance of :attr:`shard_format`.

    Shard ``i`` is named ``{tensor}__s{i}``, so its physical symbols are the
    plain format's under that name, and it covers rows
    ``[bounds[i], bounds[i+1])``.  A subclass declares the shard format, the
    mapping term of a shard and the whole-tensor profile.
    """

    shard_format: type[LevelFormat]
    _sort_axes = ()
    #: Shards store rows counted from their first row, which the mapping
    #: term adds back through the per-shard scalar ``{tensor}__s{i}_lo``.
    _local_rows = False
    #: The mapping of one shard, keyed by absolute coordinates, ``$``
    #: standing for ``{tensor}__s{i}_``; empty: the shard format's own.
    term_text = ""

    def __init__(self, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int], *, shards: int | None = None,
                 memmap_dir: str | None = None):
        shape = tuple(int(s) for s in shape)
        if not self.candidates_for(TensorStats(shape=shape, nnz=0)):
            raise StorageError(f"{type(self).__name__} cannot store a rank-{len(shape)} tensor")
        coords, values = sum_duplicates(coords, values, len(shape))
        super().__init__(name, shape)
        if shards is None:
            shards = default_shard_count(len(values), shape[0])
        self.bounds = shard_bounds(shape[0], shards)
        self.n_shards = int(len(self.bounds) - 1)
        splits = np.searchsorted(coords[:, 0], self.bounds[1:-1])
        self.shards: list[LevelFormat] = []
        for index, (block, block_values) in enumerate(
                zip(np.split(coords, splits), np.split(values, splits))):
            shard_shape = self.shape
            if self._local_rows:
                shard_shape = (int(self.bounds[index + 1] - self.bounds[index]),) + self.shape[1:]
            shard = self.shard_format.__new__(self.shard_format)
            shard._build(f"{name}__s{index}", self._in_shard(index, block), block_values,
                         shard_shape)
            if memmap_dir is not None:
                shard = shard._with_arrays(
                    lambda symbol, array: _spill(array, memmap_dir, symbol))
            self.shards.append(shard)

    def _in_shard(self, index: int, coords: np.ndarray) -> np.ndarray:
        """Coordinates of rows in shard ``index`` as the shard stores them."""
        if not self._local_rows:
            return coords
        local = coords.copy()
        local[:, 0] -= self.bounds[index]
        return local

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs) -> "ShardedFormat":
        return cls(name, coords, values, shape, **kwargs)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return cls.shard_format.candidates_for(stats)

    @property
    def spec_name(self) -> str:
        return f"{self.format_name}@{self.n_shards}"

    def from_coo_kwargs(self) -> dict[str, Any]:
        return {"shards": self.n_shards}

    @property
    def nnz(self) -> int:
        return sum(shard.nnz for shard in self.shards)

    def physical(self) -> dict[str, Any]:
        symbols: dict[str, Any] = {}
        for index, shard in enumerate(self.shards):
            if self._local_rows:
                symbols[f"{shard.name}_lo"] = int(self.bounds[index])
            symbols.update(shard.physical())
        return symbols

    def facts(self) -> dict[str, ArrayFact]:
        facts: dict[str, ArrayFact] = {}
        for shard in self.shards:
            facts.update(shard.facts())
        return facts

    def segmentation(self) -> dict[str, Segmentation]:
        declared: dict[str, Segmentation] = {}
        for shard in self.shards:
            declared.update(shard.segmentation())
        return declared

    def mapping_source(self) -> str:
        return " + ".join(
            f"({(self.term_text or shard.mapping_text).replace('$', shard.name + '_')})"
            for shard in self.shards)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        blocks = [shard.to_coo() for shard in self.shards if shard.nnz]
        if not blocks:
            return (np.empty((0, self.rank), dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        coords = np.concatenate([block[0] for block in blocks])
        if self._local_rows:
            coords[:, 0] += np.repeat(
                self.bounds[:-1], [shard.nnz for shard in self.shards])
        return coords, np.concatenate([block[1] for block in blocks])

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        coords, values = self.to_coo()
        dense[tuple(coords.T)] = values
        return dense

    def to_buffers(self) -> dict[str, np.ndarray]:
        buffers: dict[str, np.ndarray] = {"bounds": self.bounds}
        for index, shard in enumerate(self.shards):
            for key, array in shard.to_buffers().items():
                buffers[f"s{index}__{key}"] = array
        return buffers

    def _splice(self, coords: np.ndarray, values: np.ndarray) -> "ShardedFormat":
        """Route the delta to the shards its rows fall in and splice each one.

        Untouched shards — memory-mapped ones included — are shared with
        ``self``; a touched shard's edited arrays are new in-memory arrays.
        """
        spliced = copy.copy(self)
        spliced.__dict__.pop("_profile", None)      # cached from the old shards
        spliced.shards = list(self.shards)
        shard_of = np.searchsorted(self.bounds, coords[:, 0], "right") - 1
        for index in np.unique(shard_of):
            mine = shard_of == index
            spliced.shards[index] = self.shards[index]._splice(
                self._in_shard(index, coords[mine]), values[mine])
        return spliced

    def segment_profiles(self) -> dict[str, float]:
        profiles: dict[str, float] = {}
        for shard in self.shards:
            profiles.update(shard.segment_profiles())
        return profiles

    def shard_stats(self) -> list[TensorStats]:
        """Per-shard :class:`TensorStats` (nnz of each row range)."""
        rows = np.diff(self.bounds)
        return [TensorStats(shape=(int(rows[index]),) + self.shape[1:], nnz=shard.nnz)
                for index, shard in enumerate(self.shards)]


class ShardedCOOFormat(ShardedFormat):
    """Row-range shards of COO with absolute coordinates.

    Physical symbols per shard ``i``: those of a :class:`COOFormat` named
    ``{n}__s{i}`` (``_nnz``, ``_val``, ``_idx1`` … ``_idx<rank>``, arrays
    optionally memory-mapped).  The mapping is the parenthesized ``+`` chain
    of the shards' COO mappings.
    """

    format_name = "sharded_coo"
    shard_format = COOFormat

    @cached_property
    def _profile(self) -> Profile:
        coords = self.to_coo()[0]
        return _profile_of(_prefix_counts(list(coords.T)))

    def profile(self) -> Profile:
        return self._profile


class ShardedCSRFormat(ShardedFormat):
    """Row-range shards stored as local CSR blocks.

    Shard ``i`` covers rows ``[bounds[i], bounds[i+1])`` and stores them as a
    :class:`CSRFormat` named ``{n}__s{i}`` over *local* row numbers; the
    mapping re-bases rows through the per-shard scalar ``{n}__s{i}_lo``, so
    the emitted dictionary is keyed by absolute rows.  The ``@unique``
    annotation on the re-based key is sound because local rows are unique
    within a shard.
    """

    format_name = "sharded_csr"
    shard_format = CSRFormat
    _local_rows = True

    term_text = ("sum(<r,_> in 0:$len1) { @unique (r + $lo) -> "
                 "sum(<off, col> in $idx2($pos2(r):$pos2(r+1))) "
                 "{ @unique col -> $val(off) } }")

    def profile(self) -> Profile:
        return _profile_of([self.shape[0], self.nnz])


class MemmapDenseFormat(DenseFormat):
    """Dense row-major storage backed by a memory-mapped file.

    Same physical symbols and mapping as :class:`DenseFormat` — the value
    array just lives on disk, so construction from coordinates and streamed
    execution never hold the dense volume in RAM.  ``nnz`` is cached at
    construction (the inherited ``count_nonzero`` would re-scan the file).
    """

    format_name = "memmap_dense"

    def __init__(self, name: str, array: np.ndarray, *,
                 memmap_dir: str | None = None, _nnz: int | None = None):
        # asanyarray, not asarray: the latter would silently downcast the
        # np.memmap subclass to a plain (still file-backed) view, hiding the
        # map from the zero-copy wire export of repro.execution.sharded.
        array = np.asanyarray(array, dtype=np.float64)
        if not isinstance(array, np.memmap):
            array = _spill(array, memmap_dir, f"{name}_val")
        StorageFormat.__init__(self, name, array.shape)
        if array.ndim not in (1, 2, 3):
            raise StorageError("MemmapDenseFormat supports tensors of rank 1, 2 or 3")
        self.array = array
        self.flat = array.reshape(-1)
        self.finite = None      # declared by no fact: proving it would read the file
        self._nnz = (int(np.count_nonzero(self.array)) if _nnz is None
                     else int(_nnz))

    @classmethod
    def from_dense(cls, name: str, array: np.ndarray, **kwargs) -> "MemmapDenseFormat":
        return cls(name, np.asarray(array, dtype=np.float64), **kwargs)

    @classmethod
    def from_coo(cls, name, coords, values, shape, *,
                 memmap_dir: str | None = None, **kwargs) -> "MemmapDenseFormat":
        shape = tuple(int(s) for s in shape)
        if not 1 <= len(shape) <= 3:
            raise StorageError("MemmapDenseFormat supports tensors of rank 1, 2 or 3")
        coords, values = sum_duplicates(coords, values, len(shape))
        fd, path = tempfile.mkstemp(prefix=f"{name}_val_", suffix=".mm",
                                    dir=memmap_dir)
        os.close(fd)
        cells = int(np.prod(shape))
        writer = np.memmap(path, dtype=np.float64, mode="w+",
                           shape=shape if cells else (1,))
        if coords.size:
            writer[tuple(coords.T)] = values
        writer.flush()
        del writer
        mapped = np.memmap(path, dtype=np.float64, mode="r",
                           shape=shape if cells else (1,))
        if not cells:
            mapped = mapped[:0].reshape(shape)
        instance = cls(name, mapped, _nnz=len(values))
        weakref.finalize(instance, _unlink_guarded, path, os.getpid())
        return instance

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return 1 <= stats.rank <= 3 and stats.dense_cells >= MEMMAP_MIN_CELLS

    @property
    def nnz(self) -> int:
        return self._nnz

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        # Chunked scan over the leading axis: peak memory is one block's
        # non-zero mask rather than the whole (possibly huge) volume.
        if self.array.ndim == 0 or not self.array.size:
            return (np.empty((0, self.rank), dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        row_cells = max(1, int(np.prod(self.shape[1:])))
        block_rows = max(1, (1 << 22) // row_cells)
        blocks_c, blocks_v = [], []
        for start in range(0, self.shape[0], block_rows):
            block = np.asarray(self.array[start:start + block_rows])
            coords, values = coo_from_dense(block)
            if coords.shape[0]:
                coords[:, 0] += start
                blocks_c.append(coords)
                blocks_v.append(values)
        if not blocks_c:
            return (np.empty((0, self.rank), dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        return np.concatenate(blocks_c), np.concatenate(blocks_v)


#: The sharded / out-of-core format family, merged into ``ALL_FORMATS`` by
#: :mod:`repro.storage.convert` (which is what puts them in the advisor's
#: search alphabet and the fuzz oracle's format pool).
SHARDED_FORMATS: dict[str, type[StorageFormat]] = {
    "sharded_coo": ShardedCOOFormat,
    "sharded_csr": ShardedCSRFormat,
    "memmap_dense": MemmapDenseFormat,
}
