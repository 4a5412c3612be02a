"""A thread-safe serving layer: one catalog, many concurrent client sessions.

The paper's flexible-storage design assumes a long-lived system in which many
queries share one catalog and its statistics; :class:`Server` is that system
boundary.  It is a :class:`~repro.session.Session` — the same mutators, the
same plan resolution and the same execute step — shared by any number of
client threads, with four guarantees on top:

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
from ..execution.engine import PlanCache, check_backend
from ..sdqlite.ast import Expr
from ..sdqlite.pretty import to_source
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
    """Tuning knobs for a :class:`Server` (see ``docs/serving.md``).

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
    ``lowered_cache_size``
        Entries in the underlying per-artifact LRU shared by re-preparations.
    ``latency_window``
        Latency observations retained for p50/p99 queries.
    ``profile_every``
        Profile one in every ``profile_every`` served executions and feed
        observed cardinalities back into the optimizer statistics
        (``docs/adaptive.md``).  ``0`` (the default) disables the adaptive
        loop entirely — served executions are byte-identical to a server
        without this feature.
    ``reoptimize_threshold``
        Minimum q-error (symmetric estimated/actual factor) before an
        observation is adopted; adopting one bumps the adaptive epoch, so
        affected queries transparently re-prepare through the shared cache.
    ``shard_workers``
        When ``>= 2``, requests whose shared plan is a per-shard ``+`` chain
        (sharded storage, ``docs/sharding.md``) execute the shard parts on a
        pool of that many worker processes; the pool is keyed on the
        snapshot's epochs, so every catalog mutation retires it and requests
        behave identically under snapshot isolation.  ``0`` (the default)
        never spawns processes; a pool failure falls back to in-process
        streaming, is logged once per cause on
        ``logging.getLogger("repro.serving")`` and counted as
        ``shard_fallbacks``.
    """

    max_concurrency: int = 1
    max_queue: int = 64
    queue_timeout: float | None = 10.0
    plan_cache_size: int = 256
    lowered_cache_size: int = 256
    latency_window: int = 8192
    profile_every: int = 0
    reoptimize_threshold: float = 2.0
    shard_workers: int = 0


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
    """Serves many concurrent client sessions over one shared catalog.

    Parameters
    ----------
    catalog:
        The shared catalog (a fresh empty one by default).  The inherited
        admin methods (:meth:`register` / :meth:`set_scalar` /
        :meth:`replace_format` / :meth:`update` / …) mutate it atomically;
        requests only ever read point-in-time snapshots of it.
    method / backend:
        Server-wide defaults, overridable per session and per statement;
        ``backend`` is ``"typed"`` (default) or ``"interpret"``, and an
        unknown name raises :class:`~repro.sdqlite.errors.ExecutionError`
        wherever it is given — here, ``session()``, ``prepare()``,
        ``execute()`` — never later inside a request.
    optimizer_options:
        Default keyword arguments for every optimizer run; part of the
        shared-plan-cache key.
    config:
        A :class:`ServerConfig`; individual fields can also be overridden
        via keyword arguments (``Server(max_concurrency=2)``).
    """

    _log = logging.getLogger("repro.serving")

    def __init__(self, catalog: Catalog | None = None, *, method: str = "greedy",
                 backend: str = "typed",
                 optimizer_options: Mapping[str, Any] | None = None,
                 config: ServerConfig | None = None, **overrides):
        if config is not None and overrides:
            raise ValueError("pass either config= or individual overrides, not both")
        if overrides:
            config = ServerConfig(**overrides)
        self.config = config = config or ServerConfig()
        self.stats = ServerStats(latency_window=config.latency_window)
        feedback = (FeedbackConfig(sample_every=config.profile_every,
                                   threshold=config.reoptimize_threshold)
                    if config.profile_every > 0 else None)
        super().__init__(catalog, method=method, backend=backend,
                         cache=PlanCache(maxsize=config.lowered_cache_size),
                         optimizer_options=optimizer_options, feedback=feedback,
                         shard_workers=config.shard_workers)
        self.plans = SharedPlanCache(maxsize=config.plan_cache_size)
        self.stats.attach_plan_cache(self.plans)
        #: The lowered-artifact cache (:attr:`cache`, ``lowered_cache_size`` entries).
        self.lowered = self.cache
        self._gate = AdmissionGate(config.max_concurrency, config.max_queue,
                                   config.queue_timeout)
        self._closed = False

    #: The server's :class:`repro.ivm.views.ViewRegistry` (same as :meth:`views`).
    _view_registry = Session.views

    def close(self) -> None:
        """Stop admitting requests and drop cached plans, artifacts and views."""
        self._closed = True
        super().close()
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

    def session(self, *, method: str | None = None, backend: str | None = None,
                optimizer_options: Mapping[str, Any] | None = None
                ) -> "ClientSession":
        """Open a lightweight client session (cheap; one per request is fine)."""
        if self._closed:
            raise ServerClosed("cannot open a session on a closed server")
        self.stats.count("sessions")
        return ClientSession(self, method=method or self.method,
                             backend=check_backend(backend or self.backend),
                             optimizer_options={**self.optimizer_options,
                                                **(optimizer_options or {})})

    #: Database-API-flavoured alias.
    connect = session

    def execute(self, program: "str | Expr", *, method: str | None = None,
                backend: str | None = None,
                dense_shape: tuple[int, ...] | None = None,
                **scalar_params: float) -> Any:
        """One-shot convenience: open a session, prepare (via the shared
        cache — usually a hit), execute once."""
        return (self.session(method=method, backend=backend)
                .prepare(program, dense_shape=dense_shape)
                .execute(**scalar_params))


class ClientSession:
    """One client's handle on a :class:`Server`.

    Deliberately tiny: it carries per-client defaults (method / backend /
    optimizer options) and constructs :class:`ServedStatement` handles — all
    state that matters (catalog, plans, statistics) lives in the server, so
    sessions are free to create per request and safe to share or discard.
    """

    def __init__(self, server: Server, *, method: str, backend: str,
                 optimizer_options: dict[str, Any]):
        self.server = server
        self.method = method
        self.backend = backend
        self.optimizer_options = optimizer_options
        self._closed = False

    def __enter__(self) -> "ClientSession":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        self._closed = True

    def prepare(self, program: "str | Expr", *, method: str | None = None,
                backend: str | None = None,
                dense_shape: tuple[int, ...] | None = None,
                optimizer_options: Mapping[str, Any] | None = None
                ) -> "ServedStatement":
        """A reusable statement handle.

        Unlike :meth:`repro.session.Session.prepare`, nothing is optimized
        here: every execution resolves (through the shared cache) against
        the catalog snapshot current *at that moment*, so handles are free
        and never go stale.
        """
        if self._closed:
            raise ServerClosed("session is closed")
        return ServedStatement(self.server, program,
                               method=method or self.method,
                               backend=check_backend(backend or self.backend),
                               dense_shape=dense_shape,
                               optimizer_options={**self.optimizer_options,
                                                  **(optimizer_options or {})})

    def execute(self, program: "str | Expr", *,
                dense_shape: tuple[int, ...] | None = None,
                **scalar_params: float) -> Any:
        """Prepare (via the shared cache) and execute once."""
        return self.prepare(program, dense_shape=dense_shape).execute(**scalar_params)

    #: ``Session.run``-flavoured alias.
    run = execute


class ServedStatement:
    """A query handle bound to a server, executable from any thread.

    Every :meth:`execute` is one admitted request: snapshot → plan resolution
    → execute step, the same code a :class:`~repro.session.Statement` runs,
    so repeated executions (from this or any other statement for the same
    query) are plan-cache hits.
    """

    def __init__(self, server: Server, program: "str | Expr", *, method: str,
                 backend: str, dense_shape: tuple[int, ...] | None,
                 optimizer_options: dict[str, Any]):
        # One front-end run per distinct text, process-wide: a request for a
        # text seen before costs a dictionary lookup here.
        self._front = server._front_end(program)
        self.server = server
        self.method = method
        self.backend = backend
        self.dense_shape = dense_shape
        self.optimizer_options = optimizer_options

    @property
    def program(self) -> Expr:
        """The named AST of the statement, literals in place."""
        return self._front.program

    @property
    def query(self) -> Expr:
        """The cache identity: the De Bruijn form with literals lifted to slots."""
        return self._front.query.expr

    @property
    def source(self) -> str:
        """The statement as re-parseable SDQLite text (rendered on demand)."""
        return to_source(self.program)

    def execute(self, **scalar_params: float) -> Any:
        """Execute once against a fresh snapshot of the server's catalog."""
        return self.server._admit(self._serve, scalar_params)

    def _serve(self, scalar_params: Mapping[str, float]) -> Any:
        server, front = self.server, self._front
        snapshot = server.catalog.snapshot()
        entry, env = server._resolve(front, self.method, self.backend,
                                     self.optimizer_options, snapshot)
        return server._execute(entry, env, snapshot, self.dense_shape, None,
                               scalar_params, front.bindings)

    def explain(self) -> str:
        """The plan this statement resolves to under the current catalog,
        instantiated with its literals (see :meth:`Statement.explain`)."""
        return Statement(self.server, self._front, method=self.method,
                         backend=self.backend, dense_shape=self.dense_shape,
                         optimizer_options=self.optimizer_options).explain()
