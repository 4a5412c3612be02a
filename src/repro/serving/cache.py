"""The shared plan cache: identical queries prepare once per session or server.

Every :class:`~repro.session.Session` — and so every
:class:`~repro.serving.Server`, a session shared by many clients — resolves
plans through one :class:`SharedPlanCache`: entries are full prepared plans
(optimizer output + lowered artifact) keyed by

``(canonical program, method, backend, optimizer options,
   format-config fingerprint, catalog schema epoch)``

where the canonical program is the query's de Bruijn AST with its liftable
literals replaced by parameter slots (:mod:`repro.sdqlite.literals`) —
keying on the nameless, literal-free form (not source text) is what makes
whitespace variants, binder renamings and ``2 * x`` / ``3 * x`` one query —
so that

* the same query from any client under the same catalog schema maps to the
  same key (one global preparation, whatever literal it scales by);
* *any* schema change — a tensor re-stored in a different format, a tensor
  or scalar added or dropped — changes the key (the epoch bumps, and the
  fingerprint usually changes too), so a stale-epoch plan can never be
  returned for a fresh snapshot: staleness is structural, not checked;
* a value-only scalar re-bind (no schema bump) keeps the key — plans are
  environment-independent, values bind at execution time.

The session appends its feedback epoch to :func:`plan_key`'s tuple, so
adopting runtime observations invalidates plans the same structural way.

Concurrent misses on one key are *single-flighted*: the first thread
prepares while later arrivals wait on its result instead of duplicating the
optimizer run; waiters count as hits (plus a ``coalesced`` counter).  These
key properties are pinned by Hypothesis tests in
``tests/test_serving_properties.py``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Mapping

from ..core.optimizer import OptimizationResult
from ..execution.engine import PreparedPlan
from ..storage.catalog import catalog_fingerprint


def plan_key(query, *, method: str, backend: str,
             optimizer_options: Mapping[str, Any], snapshot) -> tuple:
    """The :class:`SharedPlanCache` key for one query under one snapshot.

    ``query`` is any hashable canonical identity of the program — the
    session passes the front end's :class:`~repro.sdqlite.frontend.Query`
    (nameless, literal-free, hashed once), which is parse-stable where
    pretty-printed source text is not.  A catalog snapshot carries its
    fingerprint, computed once per schema epoch
    (:meth:`~repro.storage.Catalog.fingerprint`)."""
    fingerprint = getattr(snapshot, "fingerprint", None)
    return (query, method, backend,
            tuple(sorted(optimizer_options.items())),
            catalog_fingerprint(snapshot) if fingerprint is None else fingerprint(),
            snapshot.schema_version)


def base_key(key: tuple) -> tuple:
    """``key`` without its fingerprint/epoch tail: the query's stable identity.

    Two keys with equal base but different tails are the *same query*
    prepared under different schema epochs — the re-prepare signal."""
    return key[:4]


@dataclass(frozen=True)
class SharedPlan:
    """One globally shared prepared plan: optimizer output + lowered artifact."""

    key: tuple
    optimization: OptimizationResult
    prepared: PreparedPlan
    schema_version: int
    #: The adaptive-feedback epoch the plan was optimized under.
    feedback_epoch: int = 0
    #: The literal vector of the request that built the plan; every other
    #: vector binds into the same slots (``repro.sdqlite.literals``).
    literals: tuple = ()

    def run(self, env: Mapping[str, Any],
            dense_shape: tuple[int, ...] | None = None) -> Any:
        """Execute against ``env`` (artifacts are environment-independent),
        densified to ``dense_shape`` when given."""
        return self.prepared.run(env, dense_shape=dense_shape)


class _InFlight:
    """A preparation in progress; waiters block on :attr:`done`."""

    def __init__(self):
        self.done = threading.Event()
        self.entry: SharedPlan | None = None
        self.error: BaseException | None = None


class SharedPlanCache:
    """A thread-safe LRU of :class:`SharedPlan` entries with single-flight fill.

    ``hits`` / ``misses`` / ``coalesced`` / ``evictions`` counters are exact
    (updated under the lock).  ``maxsize`` bounds retained entries; stale
    epochs age out via LRU or can be dropped eagerly with
    :meth:`purge_stale`.

    The cache also remembers, per :func:`base_key`, the newest key inserted
    for it (:meth:`latest`) — how the session tells a first preparation from
    a re-preparation under a newer epoch.  That index only ever points at
    live entries, so it is bounded by ``maxsize`` like the entries are.
    """

    def __init__(self, maxsize: int = 256):
        if maxsize < 1:
            raise ValueError("SharedPlanCache maxsize must be at least 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0
        self._entries: OrderedDict[tuple, SharedPlan] = OrderedDict()
        self._latest: dict[tuple, tuple] = {}   # base_key -> newest live key
        self._inflight: dict[tuple, _InFlight] = {}
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: tuple) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: tuple) -> SharedPlan | None:
        """The cached entry or ``None``; counts a hit or a miss."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return entry

    def put(self, key: tuple, entry: SharedPlan) -> None:
        """Insert an entry, evicting least-recently-used beyond ``maxsize``."""
        with self._lock:
            self._put_locked(key, entry)

    def _put_locked(self, key: tuple, entry: SharedPlan) -> None:
        self._entries[key] = entry
        self._entries.move_to_end(key)
        self._latest[base_key(key)] = key
        while len(self._entries) > self.maxsize:
            evicted, _ = self._entries.popitem(last=False)
            self._forget_locked(evicted)
            self.evictions += 1

    def _forget_locked(self, key: tuple) -> None:
        """``key`` left the cache: it can no longer be anyone's newest plan."""
        base = base_key(key)
        if self._latest.get(base) == key:
            del self._latest[base]

    def peek(self, key: tuple) -> SharedPlan | None:
        """The entry for ``key`` or ``None``, with no counter or recency impact."""
        with self._lock:
            return self._entries.get(key)

    def latest(self, base: tuple) -> SharedPlan | None:
        """The newest still-cached plan whose key has this :func:`base_key`.

        No counter impact and no recency bump: this is bookkeeping, not a
        lookup on behalf of a request."""
        with self._lock:
            key = self._latest.get(base)
            return self._entries.get(key) if key is not None else None

    def get_or_prepare(self, key: tuple,
                       build: Callable[[], SharedPlan]) -> tuple[SharedPlan, bool]:
        """The entry for ``key``, building it at most once across threads.

        Returns ``(entry, was_hit)``.  On a miss, exactly one caller (the
        leader) runs ``build()`` — outside the cache lock, so cached queries
        keep flowing while the optimizer works — and every concurrent caller
        for the same key waits for the leader's result (``was_hit=True``
        for them, plus ``coalesced``).  A failing build propagates its
        exception to the leader *and* all waiters, and leaves no residue, so
        the next request retries cleanly.
        """
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry, True
                flight = self._inflight.get(key)
                if flight is None:
                    flight = _InFlight()
                    self._inflight[key] = flight
                    leader = True
                else:
                    leader = False
            if leader:
                try:
                    entry = build()
                except BaseException as exc:
                    with self._lock:
                        self._inflight.pop(key, None)
                        self.misses += 1
                    flight.error = exc
                    flight.done.set()
                    raise
                with self._lock:
                    self.misses += 1
                    self._put_locked(key, entry)
                    self._inflight.pop(key, None)
                flight.entry = entry
                flight.done.set()
                return entry, False
            flight.done.wait()
            if flight.error is not None:
                raise flight.error
            if flight.entry is not None:
                with self._lock:
                    self.hits += 1
                    self.coalesced += 1
                return flight.entry, True
            # Defensive: flight resolved with neither entry nor error
            # (cannot happen today) — loop and look the key up again.

    def discard(self, key: tuple) -> None:
        """Drop one entry if present (no counter impact)."""
        with self._lock:
            if self._entries.pop(key, None) is not None:
                self._forget_locked(key)

    def purge_stale(self, current_schema_version: int) -> int:
        """Eagerly drop every entry prepared under a different schema epoch.

        Purely an occupancy optimization: stale entries are unreachable
        anyway (their epoch is baked into the key), this just frees their
        memory before LRU aging would.  Returns the number dropped.
        """
        with self._lock:
            stale = [key for key, entry in self._entries.items()
                     if entry.schema_version != current_schema_version]
            for key in stale:
                del self._entries[key]
                self._forget_locked(key)
            self.evictions += len(stale)
            return len(stale)

    def keys(self) -> list[tuple]:
        with self._lock:
            return list(self._entries)

    def clear(self) -> None:
        """Drop every entry and reset all counters."""
        with self._lock:
            self._entries.clear()
            self._latest.clear()
            self.hits = self.misses = self.coalesced = self.evictions = 0
