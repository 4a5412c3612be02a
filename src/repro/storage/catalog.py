"""The catalog: registered tensors, their formats, statistics and globals.

The catalog plays the role of the "Data Admin" side of Fig. 2 in the paper:
it holds, for every logical tensor, the chosen storage format (and therefore
its physical symbols and Tensor Storage Mapping) plus the data statistics the
cost-based optimizer consumes.

The catalog is mutable — tensors can be registered (:meth:`Catalog.add`),
dropped (:meth:`Catalog.drop`) and re-stored in a different format
(:meth:`Catalog.replace`), and scalars can be rebound
(:meth:`Catalog.set_scalar`).  Every mutation bumps :attr:`Catalog.version`;
mutations that change the *schema* (the set of symbols or the storage
formats behind them, as opposed to merely the value of an existing scalar)
also bump :attr:`Catalog.schema_version`.  Sessions and prepared statements
(:mod:`repro.session`) key their memoized statistics, environments and
lowered plans on these epochs: a ``version`` bump invalidates bound values,
a ``schema_version`` bump additionally invalidates optimized plans.

The catalog is also safe to share between threads — one catalog, many
concurrent clients is exactly the serving regime (:mod:`repro.serving`).
Every mutation applies its data change *and* its epoch bump as one atomic
step under an internal lock, so no reader can ever pair new data with an
old epoch (or vice versa), and :meth:`Catalog.snapshot` hands out an
immutable point-in-time view for snapshot-isolated reads: an in-flight
execution bound to a snapshot never observes a half-applied
:meth:`replace`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Iterator

from ..sdqlite.ast import Expr
from ..sdqlite.errors import StorageError
from .facts import Environment
from .formats import StorageFormat
from .physical import KIND_SCALAR


def catalog_fingerprint(catalog) -> tuple:
    """The schema-level identity of a catalog (or snapshot) as a hashable value.

    Covers exactly what a prepared plan depends on besides the program:
    which tensors exist, the storage format and shape each is stored in, and
    which scalar *names* are bound (values are execution-time).  Insensitive
    to registration order.  The plan cache keys on it
    (:func:`repro.serving.plan_key`).
    """
    tensors = tuple(sorted(
        (name, fmt.format_name, tuple(int(s) for s in fmt.shape))
        for name, fmt in catalog.tensors.items()))
    scalars = tuple(sorted(catalog.scalars))
    return (tensors, scalars)


@dataclass(eq=False)
class Catalog:
    """A collection of named tensors stored in explicit formats."""

    tensors: dict[str, StorageFormat] = field(default_factory=dict)
    scalars: dict[str, float] = field(default_factory=dict)
    #: Bumped on every mutation (including scalar re-binds).
    version: int = 0
    #: Bumped only when the symbol set / storage formats change.
    schema_version: int = 0
    _lock: threading.RLock = field(default_factory=threading.RLock, repr=False)
    #: ``(schema_version, catalog_fingerprint)`` as last computed.
    _fingerprint: tuple = field(default=(-1, None), repr=False)

    def _bump(self, *, schema: bool) -> None:
        """Advance the epochs.  Callers hold :attr:`_lock`; the data change
        they describe happened in the same locked region, so readers always
        see mutation + bump as one step (see the pausing-catalog test in
        ``tests/test_serving.py``)."""
        self.version += 1
        if schema:
            self.schema_version += 1

    def _writable(self) -> None:
        """Hook for read-only views; :class:`CatalogSnapshot` overrides it."""

    def fingerprint(self) -> tuple:
        """:func:`catalog_fingerprint` of this catalog, computed under the lock
        once per schema epoch: a value-only mutation keeps the very object."""
        epoch, fingerprint = self._fingerprint
        if epoch != self.schema_version:
            with self._lock:
                epoch, fingerprint = self._fingerprint
                if epoch != self.schema_version:
                    fingerprint = catalog_fingerprint(self)
                    self._fingerprint = (self.schema_version, fingerprint)
        return fingerprint

    # -- registration ---------------------------------------------------------

    def add(self, fmt: StorageFormat) -> "Catalog":
        """Register a tensor; its logical name must be unique in the catalog."""
        self._writable()
        with self._lock:
            if fmt.name in self.tensors:
                raise StorageError(f"tensor {fmt.name!r} is already registered")
            if fmt.name in self.scalars:
                raise StorageError(f"{fmt.name!r} is already registered as a scalar")
            self.tensors[fmt.name] = fmt
            self._bump(schema=True)
        return self

    def add_scalar(self, name: str, value: float) -> "Catalog":
        """Register a global scalar (e.g. the β of the BATAX kernel)."""
        self._writable()
        with self._lock:
            if name in self.tensors:
                raise StorageError(f"{name!r} is already registered as a tensor")
            schema = name not in self.scalars
            self.scalars[name] = value
            self._bump(schema=schema)
        return self

    #: Re-binding an existing scalar is a value-only mutation (no schema bump),
    #: so prepared statements only need to refresh their environment.
    set_scalar = add_scalar

    def drop(self, name: str) -> "Catalog":
        """Unregister a tensor or scalar; its physical symbols become free again."""
        self._writable()
        with self._lock:
            if name in self.tensors:
                del self.tensors[name]
            elif name in self.scalars:
                del self.scalars[name]
            else:
                raise StorageError(f"cannot drop {name!r}: not registered")
            self._bump(schema=True)
        return self

    def replace(self, fmt: StorageFormat) -> "Catalog":
        """Swap an already-registered tensor's storage format for ``fmt``.

        The logical name must already be registered (use :meth:`add` for new
        tensors); the old format's physical symbols are dropped with it, so
        re-storing a tensor never leaves stale symbol collisions behind.

        A swap that keeps the *schema* — same format class, same shape, same
        physical symbol layout and storage mapping — is a value-only
        mutation: only :attr:`version` bumps, so prepared statements refresh
        their environment without re-optimizing and shared plans survive.
        Changing the format class or shape bumps :attr:`schema_version` as
        before.
        """
        self._writable()
        with self._lock:
            old = self.tensors.get(fmt.name)
            if old is None:
                raise StorageError(
                    f"cannot replace {fmt.name!r}: not registered (use add() first)")
            schema = not (type(old) is type(fmt)
                          and tuple(old.shape) == tuple(fmt.shape)
                          and old.physical_kinds() == fmt.physical_kinds()
                          and old.mapping_source() == fmt.mapping_source())
            self.tensors[fmt.name] = fmt
            self._bump(schema=schema)
        return self

    def update(self, name: str, coords, values) -> "Catalog":
        """Apply a sparse point-update: add ``values`` at ``coords`` to a tensor.

        ``coords`` is an ``(n, rank)`` integer array (or nested sequence) and
        ``values`` the matching ``n`` additive deltas — existing entries are
        incremented, absent ones inserted, entries cancelling to zero
        dropped, all in the tensor's current storage format (see
        :func:`repro.storage.convert.apply_delta`).  This is a *value-only*
        mutation: the format class, shape and physical symbol layout are
        unchanged, so only :attr:`version` bumps and prepared plans —
        including the serving layer's shared plans — survive.  This is the
        fine-grained write API incremental view maintenance builds on
        (:mod:`repro.ivm`).
        """
        from .convert import apply_delta

        self._writable()
        with self._lock:
            fmt = self.tensors.get(name)
            if fmt is None:
                raise StorageError(f"cannot update {name!r}: not a registered tensor")
            self.tensors[name] = apply_delta(fmt, coords, values)
            self._bump(schema=False)
        return self

    # -- snapshot isolation ----------------------------------------------------

    def snapshot(self) -> "CatalogSnapshot":
        """An immutable point-in-time view of this catalog.

        The snapshot pairs shallow copies of the tensor / scalar tables with
        the epochs they were taken under, as one atomic read — so a request
        executing against a snapshot can never observe a half-applied
        :meth:`replace` / :meth:`drop`, and comparing
        ``snapshot.schema_version`` against the live catalog detects
        staleness exactly.  Stored formats are never mutated in place (every
        re-store swaps the whole :class:`~repro.storage.formats.StorageFormat`
        object), so sharing them between the snapshot and the live catalog is
        sound.  Mutating a snapshot raises :class:`StorageError`.
        """
        with self._lock:
            return CatalogSnapshot(tensors=dict(self.tensors),
                                   scalars=dict(self.scalars),
                                   version=self.version,
                                   schema_version=self.schema_version,
                                   _fingerprint=(self.schema_version, self.fingerprint()))

    def epochs(self) -> tuple[int, int]:
        """``(version, schema_version)`` read atomically."""
        with self._lock:
            return self.version, self.schema_version

    def __contains__(self, name: str) -> bool:
        return name in self.tensors or name in self.scalars

    def __getitem__(self, name: str) -> StorageFormat:
        return self.tensors[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self.tensors)

    # -- views consumed by the optimizer / execution engine --------------------

    def globals(self) -> Environment:
        """All physical symbols (arrays, hash-maps, tries, sizes) plus scalars,
        with the facts their formats declare (:mod:`repro.storage.facts`)."""
        with self._lock:
            env = Environment(self.scalars)
            for fmt in self.tensors.values():
                for symbol, value in fmt.physical().items():
                    if symbol in env:
                        raise StorageError(f"physical symbol {symbol!r} declared twice")
                    env[symbol] = value
                env.declare(fmt.facts().values())
            return env

    def mappings(self) -> dict[str, Expr]:
        """Tensor Storage Mappings (named-form ASTs) keyed by tensor name."""
        with self._lock:
            return {name: fmt.mapping() for name, fmt in self.tensors.items()}

    def mapping_sources(self) -> dict[str, str]:
        """Tensor Storage Mappings as SDQLite source text."""
        with self._lock:
            return {name: fmt.mapping_source() for name, fmt in self.tensors.items()}

    def physical_kinds(self) -> dict[str, str]:
        """Collection kind per physical symbol (array / hash / trie / scalar)."""
        with self._lock:
            kinds: dict[str, str] = {name: KIND_SCALAR for name in self.scalars}
            for fmt in self.tensors.values():
                kinds.update(fmt.physical_kinds())
            return kinds

    def tensor_profiles(self) -> dict[str, tuple]:
        """Nested cardinality profile per logical tensor."""
        with self._lock:
            return {name: fmt.profile() for name, fmt in self.tensors.items()}

    def segment_profiles(self) -> dict[str, float]:
        """Average segment length per segmented physical array."""
        with self._lock:
            profiles: dict[str, float] = {}
            for fmt in self.tensors.values():
                profiles.update(fmt.segment_profiles())
            return profiles

    def scalar_values(self) -> dict[str, float]:
        """Integer/real valued globals (dimension sizes, nnz counters, scalars)."""
        with self._lock:
            values: dict[str, float] = dict(self.scalars)
            for fmt in self.tensors.values():
                for symbol, value in fmt.physical().items():
                    if isinstance(value, (int, float)):
                        values[symbol] = value
            return values

    def declarations(self) -> str:
        """The full DDL (CREATE statements) for everything in the catalog."""
        with self._lock:
            blocks = [fmt.declarations() for fmt in self.tensors.values()]
            for name in self.scalars:
                blocks.append(f"CREATE real SCALAR {name};")
            return "\n\n".join(blocks)

    def describe(self) -> str:
        """One line per tensor: name, format, shape, nnz, density."""
        with self._lock:
            lines = []
            for name, fmt in sorted(self.tensors.items()):
                dims = "x".join(str(s) for s in fmt.shape)
                lines.append(
                    f"{name}: {fmt.format_name} {dims} nnz={fmt.nnz} density={fmt.density:.2e}"
                )
            return "\n".join(lines)


class CatalogSnapshot(Catalog):
    """An immutable point-in-time view of a :class:`Catalog`.

    Produced by :meth:`Catalog.snapshot`.  Behaves like a catalog for every
    read (``globals()`` / ``mappings()`` / statistics derivation / epoch
    comparison) but rejects all mutation, so code holding a snapshot can be
    audited to be read-only.  Requests in the serving layer
    (:mod:`repro.serving`) execute against snapshots exclusively.
    """

    def _writable(self) -> None:
        raise StorageError(
            "catalog snapshots are read-only; mutate the live catalog instead")

    def snapshot(self) -> "CatalogSnapshot":
        """A snapshot of a snapshot is itself (it can never change)."""
        return self
