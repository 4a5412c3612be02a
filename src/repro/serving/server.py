"""A thread-safe serving layer: one catalog, many concurrent clients.

The paper's flexible-storage design assumes a long-lived system in which many
queries share one catalog and its statistics; :class:`Server` is that system
boundary.  It is a :class:`~repro.session.Session` — the same mutators, the
same plan resolution, the same execute step and the same
:class:`~repro.session.Statement` from :meth:`Server.prepare` — shared by
any number of client threads, with four guarantees on top:

* **Prepare once, globally.**  A request's text goes through the front end
  (parse, De Bruijn conversion, literal lifting) once per distinct text
  (:data:`repro.sdqlite.frontend.FRONT_END`), and its plan is resolved
  through the session's single-flight
  :class:`~repro.serving.cache.SharedPlanCache`: the first request for a
  query pays the optimizer, every other client — concurrent ones included,
  and ones asking for ``3 * x`` after ``2 * x`` — reuses the entry and binds
  its own literals into it at execution time.
* **Snapshot isolation.**  Every request resolves and executes against an
  immutable :meth:`~repro.storage.Catalog.snapshot` taken at admission: a
  concurrent :meth:`replace_format` / :meth:`set_scalar` can never expose a
  half-applied catalog state to an in-flight execution, and every result is
  exactly the program evaluated at *some* point of the update sequence
  (serial equivalence; fuzz-checked by ``repro.fuzz``'s concurrent mode).
* **Admission control.**  At most ``max_concurrency`` executions run at
  once — one by default, so a waiting request sleeps on the gate instead of
  fighting the executing one for the interpreter lock; up to ``max_queue``
  more wait (bounded, FIFO-fair via condition wakeups) for at most
  ``queue_timeout`` seconds.  Beyond that the server sheds load:
  :class:`ServerBusy` on a full queue, :class:`RequestTimeout` on a slot
  wait that expires — back-pressure the caller can see.  Every execution
  passes the gate, ``Session.run`` / ``Statement.execute`` on the server
  and view maintenance included.
* **Observability.**  :attr:`Server.stats` counts hits / misses /
  re-prepares / rejections and records per-request latency with p50/p99
  queries (:mod:`repro.serving.stats`).

See ``docs/serving.md`` for the lifecycle walk-through and tuning guide,
``benchmarks/bench_serving.py`` for the closed-loop load benchmark, and
``tests/test_serving.py`` for the concurrency stress suite.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping

from ..core.feedback import FeedbackConfig
from ..execution.engine import GLOBAL_PLAN_CACHE, PlanCache, check_backend
from ..sdqlite.ast import Expr
from ..sdqlite.frontend import FrontEnd
from ..session import Session, Statement
from ..storage.catalog import Catalog
from .cache import SharedPlanCache
from .stats import ServerStats


class ServingError(RuntimeError):
    """Base class for serving-layer failures."""


class ServerBusy(ServingError):
    """The admission queue is at capacity; the request was shed immediately."""


class RequestTimeout(ServingError):
    """No execution slot freed up within ``queue_timeout`` seconds."""


class ServerClosed(ServingError):
    """The server was shut down; no further requests are admitted."""


@dataclass(frozen=True)
class ServerConfig:
    """What a :class:`Server` has beyond a :class:`~repro.session.Session`:
    its gate and its stats (see ``docs/serving.md``).

    ``max_concurrency``
        Executing requests at once; **1 by default**.  Requests are
        interpreter-bound, and two of them executing at once do not share
        the interpreter lock fairly: a thread that releases it inside a
        NumPy call waits up to the 5 ms switch interval to get it back from
        a peer that is parsing or optimizing.  Measured on the e2e
        ``serve_mixed`` workload (2 closed-loop clients, 2 cores), two
        admitted requests completed *less* than one (``serving.scaling_2c``
        0.57) and a 0.8 ms hit took 6–8 ms beside a second client; with one
        executing request the waiter sleeps on the gate's condition variable
        and both finish sooner.  Raising it can pay only when kernels spend
        long stretches in code that releases the lock *and* spare cores
        exist — unproven on this hardware.
    ``max_queue``
        Requests allowed to wait for a slot before new arrivals are shed
        with :class:`ServerBusy`.
    ``queue_timeout``
        Seconds a queued request waits before :class:`RequestTimeout`
        (``None`` = wait forever).
    ``plan_cache_size``
        Entries in the shared plan cache (optimized + lowered plans).
    ``latency_window``
        Latency observations retained for p50/p99 queries.
    """

    max_concurrency: int = 1
    max_queue: int = 64
    queue_timeout: float | None = 10.0
    plan_cache_size: int = 256
    latency_window: int = 8192


class AdmissionGate:
    """A bounded, timeout-aware concurrency gate (condition-variable based)."""

    def __init__(self, max_concurrency: int, max_queue: int,
                 timeout: float | None):
        if max_concurrency < 1:
            raise ValueError("max_concurrency must be at least 1")
        if max_queue < 0:
            raise ValueError("max_queue must be >= 0")
        self.max_concurrency = max_concurrency
        self.max_queue = max_queue
        self.timeout = timeout
        self.active = 0
        self.waiting = 0
        self._condition = threading.Condition()

    def acquire(self) -> None:
        """Take an execution slot, queueing if needed.

        Raises :class:`ServerBusy` when the queue is full and
        :class:`RequestTimeout` when no slot frees within the timeout.
        """
        with self._condition:
            if self.active < self.max_concurrency:
                self.active += 1
                return
            if self.waiting >= self.max_queue:
                raise ServerBusy(
                    f"admission queue full ({self.waiting} waiting, "
                    f"{self.active} executing)")
            self.waiting += 1
            try:
                deadline = (None if self.timeout is None
                            else time.monotonic() + self.timeout)
                while self.active >= self.max_concurrency:
                    remaining = (None if deadline is None
                                 else deadline - time.monotonic())
                    if remaining is not None and remaining <= 0:
                        raise RequestTimeout(
                            f"no execution slot within {self.timeout}s "
                            f"({self.active} executing)")
                    self._condition.wait(remaining)
                self.active += 1
            finally:
                self.waiting -= 1

    def release(self) -> None:
        with self._condition:
            self.active -= 1
            self._condition.notify()


class Server(Session):
    """A :class:`~repro.session.Session` shared by many client threads.

    Parameters
    ----------
    catalog, method, backend, optimizer_options, feedback, shard_workers:
        As for :class:`~repro.session.Session`.  Requests only ever read
        point-in-time snapshots of the catalog; the inherited admin methods
        (:meth:`register` / :meth:`set_scalar` / :meth:`replace_format` /
        :meth:`update` / …) mutate it atomically.  ``feedback`` profiles
        sampled served executions (``docs/adaptive.md``); ``shard_workers``
        runs per-shard ``+`` chains on a process pool keyed on the
        snapshot's epochs, whose failures fall back to in-process streaming
        and are counted as ``shard_fallbacks`` (``docs/sharding.md``).
    cache:
        As for :class:`~repro.session.Session`, but a private
        ``PlanCache(maxsize=256)`` by default (:attr:`lowered`).
    config:
        A :class:`ServerConfig`; individual fields can also be overridden
        via keyword arguments (``Server(max_concurrency=2)``).
    """

    _log = logging.getLogger("repro.serving")

    def __init__(self, catalog: Catalog | None = None, *, method: str = "greedy",
                 backend: str = "typed", cache: PlanCache | None = None,
                 optimizer_options: Mapping[str, Any] | None = None,
                 feedback: FeedbackConfig | None = None, shard_workers: int = 0,
                 config: ServerConfig | None = None, **overrides):
        if config is not None and overrides:
            raise ValueError("pass either config= or individual overrides, not both")
        if overrides:
            config = ServerConfig(**overrides)
        self.config = config = config or ServerConfig()
        self.stats = ServerStats(latency_window=config.latency_window)
        super().__init__(catalog, method=method, backend=backend,
                         cache=cache if cache is not None else PlanCache(maxsize=256),
                         optimizer_options=optimizer_options, feedback=feedback,
                         shard_workers=shard_workers)
        self.plans = SharedPlanCache(maxsize=config.plan_cache_size)
        self.stats.attach_plan_cache(self.plans)
        #: The lowered-artifact cache (:attr:`cache`).
        self.lowered = self.cache
        self._gate = AdmissionGate(config.max_concurrency, config.max_queue,
                                   config.queue_timeout)
        self._closed = False

    def close(self) -> None:
        """Stop admitting requests and drop cached plans, artifacts and views."""
        self._closed = True
        super().close()
        if self.cache is not GLOBAL_PLAN_CACHE:
            self.cache.clear()
        self._views = None

    def purge_stale_plans(self) -> int:
        """Eagerly drop shared plans from superseded schema epochs."""
        return self.plans.purge_stale(self.catalog.schema_version)

    def _admit(self, work: Callable[..., Any], *args) -> Any:
        """Admission → ``work(*args)`` → record: one request through the gate."""
        if self._closed:
            raise ServerClosed("server is closed")
        start = time.perf_counter()
        try:
            self._gate.acquire()
        except ServerBusy:
            self.stats.count("rejected_full")
            raise
        except RequestTimeout:
            self.stats.count("rejected_timeout")
            raise
        self.stats.queue_wait.record((time.perf_counter() - start) * 1_000.0)
        self.stats.enter()
        try:
            return work(*args)
        except BaseException:
            self.stats.count("errors")
            raise
        finally:
            self.stats.leave()
            self._gate.release()
            self.stats.latency.record((time.perf_counter() - start) * 1_000.0)

    # -- client entry points ---------------------------------------------------

    def prepare(self, program: "str | Expr", **options) -> Statement:
        """:meth:`Session.prepare <repro.session.Session.prepare>`; a closed
        server refuses with :class:`ServerClosed`.  The statement may be
        shared by any number of threads: each execution is one admitted
        request."""
        if self._closed:
            raise ServerClosed("server is closed")
        return super().prepare(program, **options)

    def execute(self, program: "str | Expr", *, method: str | None = None,
                backend: str | None = None,
                dense_shape: tuple[int, ...] | None = None,
                **scalar_params: float) -> Any:
        """One request: the front end (a memo lookup for a text seen before),
        then, admitted, a snapshot, plan resolution (usually a shared-cache
        hit) and the execute step."""
        backend = check_backend(backend or self.backend)
        return self._admit(self._serve, self._front_end(program),
                           method or self.method, backend, dense_shape, scalar_params)

    def _serve(self, front: FrontEnd, method: str, backend: str,
               dense_shape: tuple[int, ...] | None,
               scalar_params: Mapping[str, float]) -> Any:
        snapshot = self.catalog.snapshot()
        entry, env = self._resolve(front, method, backend, self.optimizer_options,
                                   snapshot)
        return self._execute(entry, env, snapshot, dense_shape, None, scalar_params,
                             front.bindings)
