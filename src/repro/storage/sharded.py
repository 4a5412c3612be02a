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

* :class:`ShardedCOOFormat` — one COO block per row range, coordinates kept
  *absolute* (no offset arithmetic in the mapping).  With ``memmap_dir=``
  the per-shard index/value arrays live in memory-mapped files, so tensors
  whose dense volume vastly exceeds RAM stream through execution with O(one
  shard) resident memory.
* :class:`ShardedCSRFormat` — one local CSR block per row range; the mapping
  re-bases rows through a per-shard offset scalar, so plans survive
  re-balancing deltas (the offset is a symbol, never a literal).
* :class:`MemmapDenseFormat` — dense row-major storage backed by
  ``np.memmap``; construction from coordinates scatters straight into the
  file, so the dense tensor never materializes in RAM.

Shard boundaries are *deterministic* in ``(outer_dim, n_shards)`` — equal
row ranges, not nnz-balanced — so a sparse delta
(:func:`repro.storage.convert.apply_delta`) rebuilds a tensor with identical
physical symbols and identical mapping text: exactly the value-only mutation
contract :meth:`repro.storage.Catalog.update` relies on.

Shard-local symbols are named ``{tensor}__s{i}_{suffix}``; the ``__s{i}_``
infix is the marker the optimizer's shard-aware rewrites key on
(:data:`SHARD_SYMBOL_RE`).
"""

from __future__ import annotations

import os
import re
import tempfile
import weakref
from typing import Any, Mapping, Sequence

import numpy as np

from ..sdqlite.errors import StorageError
from .formats import (
    DenseFormat,
    Profile,
    StorageFormat,
    TensorStats,
    _compress,
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


def _spill(array: np.ndarray,
           directory: str | None,
           prefix: str) -> tuple[np.ndarray, str | None]:
    """Write ``array`` to a fresh memory-mapped file, return a read-only view.

    Empty arrays are returned unchanged with no file (a zero-length mmap is
    not representable); callers only register cleanup when a path comes back.
    """
    if not array.size:
        return array, None
    fd, path = tempfile.mkstemp(prefix=f"{prefix}_", suffix=".mm", dir=directory)
    os.close(fd)
    writer = np.memmap(path, dtype=array.dtype, mode="w+", shape=array.shape)
    writer[:] = array
    writer.flush()
    del writer
    return np.memmap(path, dtype=array.dtype, mode="r", shape=array.shape), path


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
    """Base of the row-range sharded formats (shared shard bookkeeping)."""

    def __init__(self, name: str, shape: Sequence[int], bounds: np.ndarray):
        super().__init__(name, tuple(shape))
        self.bounds = np.asarray(bounds, dtype=np.int64)
        self.n_shards = int(len(self.bounds) - 1)

    @property
    def spec_name(self) -> str:
        return f"{self.format_name}@{self.n_shards}"

    def from_coo_kwargs(self) -> dict[str, Any]:
        return {"shards": self.n_shards}

    def _sym(self, shard: int, suffix: str) -> str:
        return f"{self.name}__s{shard}_{suffix}"

    def _own(self, path: str) -> None:
        """Tie a spill file's lifetime to this format object (pid-guarded)."""
        weakref.finalize(self, _unlink_guarded, path, os.getpid())

    def shard_stats(self) -> list[TensorStats]:
        """Per-shard :class:`TensorStats` (nnz of each row range)."""
        raise NotImplementedError


class ShardedCOOFormat(ShardedFormat):
    """Row-range shards of COO with absolute coordinates.

    Physical symbols per shard ``i``: ``{n}__s{i}_nnz`` (scalar),
    ``{n}__s{i}_idx1`` … ``idx<rank>`` and ``{n}__s{i}_val`` (arrays,
    optionally memory-mapped).  The mapping is the parenthesized ``+`` chain
    of per-shard COO mappings.
    """

    format_name = "sharded_coo"
    _sort_axes = ()

    def __init__(self, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int], *, shards: int | None = None,
                 memmap_dir: str | None = None):
        shape = tuple(int(s) for s in shape)
        if not shape:
            raise StorageError("ShardedCOOFormat requires rank >= 1")
        self._build(name, *sum_duplicates(coords, values, len(shape)), shape,
                    shards=shards, memmap_dir=memmap_dir)

    def _build(self, name, coords, values, shape, *, shards=None,
               memmap_dir=None) -> None:
        if shards is None:
            shards = default_shard_count(len(values), shape[0])
        ShardedFormat.__init__(self, name, shape, shard_bounds(shape[0], shards))
        splits = np.searchsorted(coords[:, 0], self.bounds[1:-1])
        self.shard_arrays: list[dict[str, np.ndarray]] = []
        for shard, (coord_block, value_block) in enumerate(
                zip(np.split(coords, splits), np.split(values, splits))):
            block = {f"idx{axis + 1}": np.ascontiguousarray(coord_block[:, axis])
                     for axis in range(self.rank)}
            block["val"] = np.ascontiguousarray(value_block)
            if memmap_dir is not None:
                for key, array in block.items():
                    mapped, path = _spill(array, memmap_dir, f"{name}_s{shard}_{key}")
                    block[key] = mapped
                    if path is not None:
                        self._own(path)
            self.shard_arrays.append(block)
        self._profile = _coords_profile(coords, self.rank)

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs) -> "ShardedCOOFormat":
        return cls(name, coords, values, shape, **kwargs)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return stats.rank >= 1

    @property
    def nnz(self) -> int:
        return sum(int(block["val"].shape[0]) for block in self.shard_arrays)

    def physical(self) -> dict[str, Any]:
        symbols: dict[str, Any] = {}
        for shard, block in enumerate(self.shard_arrays):
            symbols[self._sym(shard, "nnz")] = int(block["val"].shape[0])
            for key, array in block.items():
                symbols[self._sym(shard, key)] = array
        return symbols

    def mapping_source(self) -> str:
        terms = []
        for shard in range(self.n_shards):
            keys = ", ".join(f"{self._sym(shard, f'idx{axis + 1}')}(p)"
                             for axis in range(self.rank))
            terms.append(
                f"(sum(<p,_> in 0:{self._sym(shard, 'nnz')}) "
                f"{{ ({keys}) -> {self._sym(shard, 'val')}(p) }})")
        return " + ".join(terms)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        if not self.nnz:
            return (np.empty((0, self.rank), dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        coords = np.concatenate([
            np.column_stack([np.asarray(block[f"idx{axis + 1}"])
                             for axis in range(self.rank)])
            for block in self.shard_arrays if block["val"].shape[0]])
        values = np.concatenate([np.asarray(block["val"])
                                 for block in self.shard_arrays
                                 if block["val"].shape[0]])
        return coords, values

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        coords, values = self.to_coo()
        if coords.size:
            np.add.at(dense, tuple(coords.T), values)
        return dense

    def to_buffers(self) -> dict[str, np.ndarray]:
        buffers: dict[str, np.ndarray] = {"bounds": self.bounds}
        for shard, block in enumerate(self.shard_arrays):
            for key, array in block.items():
                buffers[f"s{shard}__{key}"] = array
        return buffers

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "ShardedCOOFormat":
        bounds = np.asarray(buffers["bounds"], dtype=np.int64)
        rank = max(1, len(tuple(shape)))
        blocks_c, blocks_v = [], []
        for shard in range(len(bounds) - 1):
            val = np.asarray(buffers[f"s{shard}__val"], dtype=np.float64)
            if not val.shape[0]:
                continue
            blocks_c.append(np.column_stack([
                np.asarray(buffers[f"s{shard}__idx{axis + 1}"], dtype=np.int64)
                for axis in range(rank)]))
            blocks_v.append(val)
        coords = (np.concatenate(blocks_c) if blocks_c
                  else np.empty((0, rank), dtype=np.int64))
        values = (np.concatenate(blocks_v) if blocks_v
                  else np.empty(0, dtype=np.float64))
        return cls(name, coords, values, shape, shards=len(bounds) - 1)

    def profile(self) -> Profile:
        return self._profile

    def shard_stats(self) -> list[TensorStats]:
        stats = []
        for shard, block in enumerate(self.shard_arrays):
            rows = int(self.bounds[shard + 1] - self.bounds[shard])
            shard_shape = (rows,) + self.shape[1:]
            stats.append(TensorStats(shape=shard_shape,
                                     nnz=int(block["val"].shape[0])))
        return stats


class ShardedCSRFormat(ShardedFormat):
    """Row-range shards stored as local CSR blocks.

    Shard ``i`` covers rows ``[bounds[i], bounds[i+1])`` and stores them as a
    CSR block over *local* row numbers; the mapping re-bases through the
    per-shard scalar ``{n}__s{i}_lo``, so the emitted dictionary is keyed by
    absolute rows.  The ``@unique`` annotation on the re-based key is sound
    because local rows are unique within a shard.
    """

    format_name = "sharded_csr"
    _sort_axes = ()

    def __init__(self, name: str, coords: np.ndarray, values: np.ndarray,
                 shape: Sequence[int], *, shards: int | None = None,
                 memmap_dir: str | None = None):
        shape = tuple(int(s) for s in shape)
        if len(shape) != 2:
            raise StorageError("ShardedCSRFormat is a matrix format")
        self._build(name, *sum_duplicates(coords, values, 2), shape,
                    shards=shards, memmap_dir=memmap_dir)

    def _build(self, name, coords, values, shape, *, shards=None,
               memmap_dir=None) -> None:
        if shards is None:
            shards = default_shard_count(len(values), shape[0])
        ShardedFormat.__init__(self, name, shape, shard_bounds(shape[0], shards))
        splits = np.searchsorted(coords[:, 0], self.bounds[1:-1])
        self.shard_arrays: list[dict[str, np.ndarray]] = []
        for shard, (coord_block, value_block) in enumerate(
                zip(np.split(coords, splits), np.split(values, splits))):
            lo = int(self.bounds[shard])
            rows_local = coord_block[:, 0] - lo
            n_rows = int(self.bounds[shard + 1] - self.bounds[shard])
            block = {
                "pos2": _compress(rows_local, n_rows),
                "idx2": np.ascontiguousarray(coord_block[:, 1]),
                "val": np.ascontiguousarray(value_block),
            }
            if memmap_dir is not None:
                for key, array in block.items():
                    mapped, path = _spill(array, memmap_dir, f"{name}_s{shard}_{key}")
                    block[key] = mapped
                    if path is not None:
                        self._own(path)
            self.shard_arrays.append(block)

    @classmethod
    def from_coo(cls, name, coords, values, shape, **kwargs) -> "ShardedCSRFormat":
        return cls(name, coords, values, shape, **kwargs)

    @classmethod
    def candidates_for(cls, stats: TensorStats) -> bool:
        return stats.rank == 2

    @property
    def nnz(self) -> int:
        return sum(int(block["val"].shape[0]) for block in self.shard_arrays)

    def physical(self) -> dict[str, Any]:
        symbols: dict[str, Any] = {}
        for shard, block in enumerate(self.shard_arrays):
            symbols[self._sym(shard, "lo")] = int(self.bounds[shard])
            symbols[self._sym(shard, "len1")] = int(
                self.bounds[shard + 1] - self.bounds[shard])
            for key, array in block.items():
                symbols[self._sym(shard, key)] = array
        return symbols

    def mapping_source(self) -> str:
        terms = []
        for shard in range(self.n_shards):
            lo, len1 = self._sym(shard, "lo"), self._sym(shard, "len1")
            pos2, idx2 = self._sym(shard, "pos2"), self._sym(shard, "idx2")
            val = self._sym(shard, "val")
            terms.append(
                f"(sum(<r,_> in 0:{len1}) "
                f"{{ @unique (r + {lo}) -> "
                f"sum(<off, col> in {idx2}({pos2}(r):{pos2}(r+1))) "
                f"{{ @unique col -> {val}(off) }} }})")
        return " + ".join(terms)

    def to_coo(self) -> tuple[np.ndarray, np.ndarray]:
        blocks_c, blocks_v = [], []
        for shard, block in enumerate(self.shard_arrays):
            idx2 = np.asarray(block["idx2"])
            if not idx2.shape[0]:
                continue
            pos2 = np.asarray(block["pos2"])
            rows = np.repeat(
                np.arange(pos2.shape[0] - 1, dtype=np.int64) + int(self.bounds[shard]),
                np.diff(pos2))
            blocks_c.append(np.column_stack([rows, idx2]))
            blocks_v.append(np.asarray(block["val"]))
        if not blocks_c:
            return (np.empty((0, 2), dtype=np.int64),
                    np.empty(0, dtype=np.float64))
        return np.concatenate(blocks_c), np.concatenate(blocks_v)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros(self.shape, dtype=np.float64)
        coords, values = self.to_coo()
        if coords.size:
            np.add.at(dense, tuple(coords.T), values)
        return dense

    def to_buffers(self) -> dict[str, np.ndarray]:
        buffers: dict[str, np.ndarray] = {"bounds": self.bounds}
        for shard, block in enumerate(self.shard_arrays):
            for key, array in block.items():
                buffers[f"s{shard}__{key}"] = array
        return buffers

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "ShardedCSRFormat":
        bounds = np.asarray(buffers["bounds"], dtype=np.int64)
        blocks_c, blocks_v = [], []
        for shard in range(len(bounds) - 1):
            idx2 = np.asarray(buffers[f"s{shard}__idx2"], dtype=np.int64)
            if not idx2.shape[0]:
                continue
            pos2 = np.asarray(buffers[f"s{shard}__pos2"], dtype=np.int64)
            rows = np.repeat(
                np.arange(pos2.shape[0] - 1, dtype=np.int64) + int(bounds[shard]),
                np.diff(pos2))
            blocks_c.append(np.column_stack([rows, idx2]))
            blocks_v.append(np.asarray(buffers[f"s{shard}__val"], dtype=np.float64))
        coords = (np.concatenate(blocks_c) if blocks_c
                  else np.empty((0, 2), dtype=np.int64))
        values = (np.concatenate(blocks_v) if blocks_v
                  else np.empty(0, dtype=np.float64))
        return cls(name, coords, values, shape, shards=len(bounds) - 1)

    def profile(self) -> Profile:
        n_outer = self.shape[0]
        avg = self.nnz / max(1, n_outer)
        return (float(n_outer), (float(avg), ("s",)))

    def segment_profiles(self) -> dict[str, float]:
        profiles: dict[str, float] = {}
        for shard, block in enumerate(self.shard_arrays):
            rows = max(1, int(self.bounds[shard + 1] - self.bounds[shard]))
            avg = int(block["val"].shape[0]) / rows
            profiles[self._sym(shard, "idx2")] = avg
            profiles[self._sym(shard, "val")] = avg
        return profiles

    def shard_stats(self) -> list[TensorStats]:
        stats = []
        for shard, block in enumerate(self.shard_arrays):
            rows = int(self.bounds[shard + 1] - self.bounds[shard])
            stats.append(TensorStats(shape=(rows, self.shape[1]),
                                     nnz=int(block["val"].shape[0])))
        return stats


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
        path: str | None = None
        if not isinstance(array, np.memmap):
            array, path = _spill(array, memmap_dir, f"{name}_val")
        StorageFormat.__init__(self, name, array.shape)
        if array.ndim not in (1, 2, 3):
            raise StorageError("MemmapDenseFormat supports tensors of rank 1, 2 or 3")
        self.array = array
        if path is not None:
            weakref.finalize(self, _unlink_guarded, path, os.getpid())
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

    def to_buffers(self) -> dict[str, np.ndarray]:
        return {"val": self.array.reshape(-1)}

    @classmethod
    def from_buffers(cls, name: str, buffers: Mapping[str, np.ndarray],
                     shape: Sequence[int]) -> "MemmapDenseFormat":
        shape = tuple(int(s) for s in shape)
        values = buffers["val"]
        if isinstance(values, np.memmap):
            # Adopt the existing file (the cross-process wire path): the
            # reshape preserves the memory map, nothing is copied.
            return cls(name, values.reshape(shape))
        return cls(name, np.asarray(values, dtype=np.float64).reshape(shape))


def _coords_profile(coords: np.ndarray, rank: int) -> Profile:
    """Branching-factor profile from **sorted** coordinates, vectorized.

    Same shape as ``COOFormat.profile``; on sorted rows the number of
    distinct length-``d`` prefixes is one plus the number of rows whose
    prefix differs from the row before — sharded tensors are exactly the
    ones big enough for avoiding Python sets to matter.
    """
    factors: list[float]
    if coords.shape[0] == 0:
        factors = [0.0] * max(1, rank)
    else:
        differs = np.logical_or.accumulate(coords[1:] != coords[:-1], axis=1)
        factors = []
        previous = 1
        for distinct in 1 + differs.sum(axis=0):
            factors.append(int(distinct) / previous)
            previous = int(distinct)
    profile: Profile = ("s",)
    for factor in reversed(factors):
        profile = (float(factor), profile)
    return profile


#: The sharded / out-of-core format family, merged into ``ALL_FORMATS`` by
#: :mod:`repro.storage.convert` (which is what puts them in the advisor's
#: search alphabet and the fuzz oracle's format pool).
SHARDED_FORMATS: dict[str, type[StorageFormat]] = {
    "sharded_coo": ShardedCOOFormat,
    "sharded_csr": ShardedCSRFormat,
    "memmap_dense": MemmapDenseFormat,
}
