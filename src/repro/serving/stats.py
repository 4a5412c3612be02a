"""Observability for the serving layer: counters and latency percentiles.

Every number a load test or an operator would ask of the server lives here:
request counts, shared-plan-cache hit/miss/re-prepare counts, admission
rejections, and a bounded-window latency distribution with p50/p99 queries.
All updates are lock-protected — the recorder is written from every worker
thread — and :meth:`ServerStats.snapshot` returns a plain dict so reporting
code (``benchmarks/bench_serving.py``) can serialize it directly.
"""

from __future__ import annotations

import threading
from typing import Any


def percentile(sorted_values: list[float], q: float) -> float:
    """The ``q``-quantile (0..1) of an ascending list, linearly interpolated."""
    if not sorted_values:
        return 0.0
    if len(sorted_values) == 1:
        return sorted_values[0]
    position = q * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    fraction = position - low
    return sorted_values[low] * (1.0 - fraction) + sorted_values[high] * fraction


class LatencyRecorder:
    """A bounded ring buffer of recent latencies with percentile queries.

    Keeps the last ``window`` observations (default 8192) plus running
    count / total, so long-running servers answer p50/p99 over *recent*
    traffic in O(window log window) without unbounded memory.
    """

    def __init__(self, window: int = 8192):
        if window < 1:
            raise ValueError("LatencyRecorder window must be at least 1")
        self.window = window
        self.count = 0
        self.total_ms = 0.0
        self._ring: list[float] = []
        self._cursor = 0
        self._lock = threading.Lock()

    def record(self, latency_ms: float) -> None:
        with self._lock:
            self.count += 1
            self.total_ms += latency_ms
            if len(self._ring) < self.window:
                self._ring.append(latency_ms)
            else:
                self._ring[self._cursor] = latency_ms
                self._cursor = (self._cursor + 1) % self.window

    def percentiles(self, *qs: float) -> tuple[float, ...]:
        """Percentiles over the retained window (one sort for all of them)."""
        with self._lock:
            ordered = sorted(self._ring)
        return tuple(percentile(ordered, q) for q in qs)

    @property
    def mean_ms(self) -> float:
        with self._lock:
            return self.total_ms / self.count if self.count else 0.0


class ServerStats:
    """Counters + latency distribution for one :class:`~repro.serving.Server`.

    ==================  =====================================================
    ``requests``        requests admitted for execution
    ``plan_hits``       served from the shared plan cache (incl. coalesced
                        waiters of an in-flight preparation)
    ``plan_misses``     required a full prepare (optimize + lower)
    ``re_prepares``     misses for a query whose plan from an older schema
                        epoch is still cached (invalidation cost)
    ``text_hits``       requests whose text the front-end memo already held
                        (no parse, no De Bruijn conversion, no lifting)
    ``text_misses``     requests whose text had to go through the front end
    ``literal_shared``  requests served by a plan first built for another
                        literal vector (``2 * x`` reusing ``3 * x``'s plan)
    ``profiled_runs``   executions sampled by the adaptive feedback loop
    ``misestimations``  profiled observations whose estimated vs actual
                        cardinality q-error exceeded the re-optimize
                        threshold (each one refines the statistics)
    ``re_optimizations`` misses for a query already prepared under the same
                        schema but an older *adaptive* epoch: the feedback
                        loop re-optimizing with observed cardinalities
    ``advisor_applies`` format changes auto-applied by the online advisor
    ``advisor_rollbacks`` of those, rolled back by the regression guard
    ``rejected_full``   rejected immediately: admission queue at capacity
    ``rejected_timeout`` gave up waiting for an execution slot
    ``errors``          admitted requests that raised during execution
    ``shard_fallbacks`` requests whose parallel shard dispatch failed and
                        that were served in-process instead
    ``peak_in_flight``  high-water mark of concurrently executing requests
    ``sessions``        client sessions opened over the server's lifetime
    ``views``           materialized views registered over the lifetime
    ``views_maintained`` view refreshes performed by :meth:`Server.update`
    ``delta_executions`` of those, served by a prepared delta statement
    ``full_refreshes``  of those, served by full re-execution (fallback)
    ==================  =====================================================

    When a plan cache is attached (:meth:`attach_plan_cache` — the server
    does this at construction), :meth:`snapshot` additionally reports its
    live occupancy as ``plan_cache_entries`` and its cumulative
    ``plan_cache_evictions``.

    Maintenance latency (one observation per :meth:`Server.update`, covering
    every view it refreshed) is recorded in its own window, surfaced as
    ``maintenance_*`` fields of :meth:`snapshot`.  So is the time each
    request spent in :meth:`AdmissionGate.acquire` (``queue_wait_ms_p50`` /
    ``queue_wait_ms_p99``): with one request executing at a time it is the
    main part of a request's latency that is not its own kernel.
    """

    #: Every counter above (plus ``in_flight``), in :meth:`snapshot` order.
    COUNTERS = ("requests", "plan_hits", "plan_misses", "re_prepares", "text_hits",
                "text_misses", "literal_shared", "profiled_runs", "misestimations",
                "re_optimizations", "advisor_applies", "advisor_rollbacks",
                "rejected_full", "rejected_timeout", "errors", "shard_fallbacks",
                "in_flight", "peak_in_flight", "sessions", "views", "views_maintained",
                "delta_executions", "full_refreshes")

    def __init__(self, *, latency_window: int = 8192):
        self.latency = LatencyRecorder(window=latency_window)
        self.maintenance = LatencyRecorder(window=latency_window)
        self.queue_wait = LatencyRecorder(window=latency_window)
        self._plan_cache = None
        for name in self.COUNTERS:
            setattr(self, name, 0)
        self._lock = threading.Lock()

    def record_maintenance(self, delta_count: int, full_count: int,
                           seconds: float) -> None:
        """Record one view-maintenance pass (an IVM :meth:`Server.update`)."""
        with self._lock:
            self.views_maintained += delta_count + full_count
            self.delta_executions += delta_count
            self.full_refreshes += full_count
        self.maintenance.record(seconds * 1_000.0)

    def attach_plan_cache(self, cache) -> None:
        """Surface live plan-cache occupancy/eviction counters in snapshots.

        ``cache`` is anything with ``__len__`` and an ``evictions`` counter
        (the server's :class:`~repro.serving.cache.SharedPlanCache`); the
        reference is read at :meth:`snapshot` time, never mutated.
        """
        self._plan_cache = cache

    def count(self, field: str, delta: int = 1) -> None:
        """Atomically add ``delta`` to one of the counters above."""
        with self._lock:
            setattr(self, field, getattr(self, field) + delta)

    def enter(self) -> None:
        with self._lock:
            self.requests += 1
            self.in_flight += 1
            if self.in_flight > self.peak_in_flight:
                self.peak_in_flight = self.in_flight

    def leave(self) -> None:
        with self._lock:
            self.in_flight -= 1

    @property
    def hit_rate(self) -> float:
        """Shared-plan-cache hit rate over every admitted lookup."""
        with self._lock:
            looked_up = self.plan_hits + self.plan_misses
            return self.plan_hits / looked_up if looked_up else 0.0

    def snapshot(self) -> dict[str, Any]:
        """Every counter plus p50/p99/mean latency, as one plain dict."""
        p50, p99 = self.latency.percentiles(0.50, 0.99)
        m50, m99 = self.maintenance.percentiles(0.50, 0.99)
        q50, q99 = self.queue_wait.percentiles(0.50, 0.99)
        with self._lock:
            counters = {name: getattr(self, name) for name in self.COUNTERS}
            looked_up = counters["plan_hits"] + counters["plan_misses"]
            return {
                **counters,
                "hit_rate": round(counters["plan_hits"] / looked_up, 4) if looked_up else 0.0,
                "latency_count": self.latency.count,
                "latency_mean_ms": round(self.latency.mean_ms, 4),
                "latency_p50_ms": round(p50, 4),
                "latency_p99_ms": round(p99, 4),
                "queue_wait_ms_p50": round(q50, 4),
                "queue_wait_ms_p99": round(q99, 4),
                "maintenance_count": self.maintenance.count,
                "maintenance_mean_ms": round(self.maintenance.mean_ms, 4),
                "maintenance_p50_ms": round(m50, 4),
                "maintenance_p99_ms": round(m99, 4),
                "plan_cache_entries": len(self._plan_cache)
                                      if self._plan_cache is not None else 0,
                "plan_cache_evictions": self._plan_cache.evictions
                                        if self._plan_cache is not None else 0,
            }
