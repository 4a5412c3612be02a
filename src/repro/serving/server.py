"""A thread-safe serving layer: one catalog, many concurrent client sessions.

The paper's flexible-storage design assumes a long-lived system in which many
queries share one catalog and its statistics; :class:`Server` is that system
boundary.  It multiplexes any number of concurrent client threads over one
shared :class:`~repro.storage.Catalog` with four guarantees:

* **Prepare once, globally.**  A request's text goes through the front end
  (parse, De Bruijn conversion, literal lifting) once per distinct text
  (:data:`repro.sdqlite.frontend.FRONT_END`), and plans live in a
  cross-session :class:`~repro.serving.cache.SharedPlanCache` keyed on
  (literal-free query, format-config fingerprint, catalog schema epoch): the
  first request for a query pays the optimizer, every other client —
  concurrent ones included, via single-flight coalescing, and ones asking
  for ``3 * x`` after ``2 * x`` — reuses the entry and binds its own
  literals into it at execution time.
* **Snapshot isolation.**  Every request executes against an immutable
  :meth:`~repro.storage.Catalog.snapshot` taken at admission: a concurrent
  :meth:`replace_format` / :meth:`set_scalar` can never expose a
  half-applied catalog state to an in-flight execution, and every result is
  exactly the program evaluated at *some* point of the update sequence
  (serial equivalence; fuzz-checked by ``repro.fuzz``'s concurrent mode).
* **Admission control.**  At most ``max_concurrency`` requests execute at
  once — one by default, so a waiting request sleeps on the gate instead of
  fighting the executing one for the interpreter lock; up to ``max_queue``
  more wait (bounded, FIFO-fair via condition wakeups) for at most
  ``queue_timeout`` seconds.  Beyond that the server sheds load:
  :class:`ServerBusy` on a full queue, :class:`RequestTimeout` on a slot
  wait that expires — back-pressure the caller can see.
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
from collections import OrderedDict
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Mapping

from ..core.feedback import FeedbackConfig, FeedbackStore
from ..core.optimizer import Optimizer
from ..core.statistics import Statistics
from ..execution.engine import (
    ExecutionEngine,
    PlanCache,
    check_backend,
    result_to_dense,
)
from ..execution.profile import ExecutionProfile
from ..execution.sharded import NOT_DISPATCHED, ShardExecutor
from ..sdqlite.ast import Expr
from ..sdqlite.errors import StorageError
from ..sdqlite.frontend import FRONT_END, FrontEnd, front_end
from ..sdqlite.literals import substitute_literals
from ..sdqlite.pretty import to_source
from ..storage.catalog import Catalog, CatalogSnapshot
from .cache import SharedPlan, SharedPlanCache, base_key, plan_key
from .stats import ServerStats

_LOG = logging.getLogger("repro.serving")


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
    ``env_cache_size``
        Materialized snapshot environments kept per catalog version.
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
    env_cache_size: int = 4
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


class Server:
    """Serves many concurrent client sessions over one shared catalog.

    Parameters
    ----------
    catalog:
        The shared catalog (a fresh empty one by default).  The server's
        admin methods (:meth:`register` / :meth:`set_scalar` /
        :meth:`replace_format` / …) mutate it atomically; clients only ever
        read point-in-time snapshots of it.
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

    def __init__(self, catalog: Catalog | None = None, *, method: str = "greedy",
                 backend: str = "typed",
                 optimizer_options: Mapping[str, Any] | None = None,
                 config: ServerConfig | None = None, **overrides):
        if config is not None and overrides:
            raise ValueError("pass either config= or individual overrides, not both")
        if overrides:
            config = ServerConfig(**overrides)
        self.config = config or ServerConfig()
        self.catalog = catalog if catalog is not None else Catalog()
        self.method = method
        self.backend = check_backend(backend)
        self.optimizer_options = dict(optimizer_options or {})
        self.plans = SharedPlanCache(maxsize=self.config.plan_cache_size)
        self.stats = ServerStats(latency_window=self.config.latency_window)
        self.stats.attach_plan_cache(self.plans)
        self.lowered = PlanCache(maxsize=self.config.lowered_cache_size)
        self._gate = AdmissionGate(self.config.max_concurrency,
                                   self.config.max_queue,
                                   self.config.queue_timeout)
        self.feedback = (FeedbackStore(FeedbackConfig(
            sample_every=self.config.profile_every,
            threshold=self.config.reoptimize_threshold))
            if self.config.profile_every > 0 else None)
        self._shard_executor = ShardExecutor(
            self.config.shard_workers, log=_LOG,
            on_fallback=partial(self.stats.count, "shard_fallbacks"))
        self._envs: OrderedDict[int, dict[str, Any]] = OrderedDict()
        self._statistics: OrderedDict[int, Statistics] = OrderedDict()
        self._memo_lock = threading.Lock()
        self._views = None  # lazy repro.ivm.views.ViewRegistry
        self._views_lock = threading.Lock()
        self._closed = False

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Server":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Stop admitting requests and drop cached plans/environments/views."""
        self._closed = True
        self._shard_executor.close()
        self.plans.clear()
        self.lowered.clear()
        with self._views_lock:
            registry = self._views
            self._views = None
        if registry is not None:
            registry.session.close()
        with self._memo_lock:
            self._envs.clear()
            self._statistics.clear()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Server(tensors={sorted(self.catalog.tensors)}, "
                f"backend={self.backend!r}, method={self.method!r}, "
                f"plans={len(self.plans)}, closed={self._closed})")

    # -- the data-admin API (atomic mutations of the shared catalog) ----------

    def register(self, fmt) -> "Server":
        """Register a new tensor in the shared catalog."""
        self.catalog.add(fmt)
        return self

    def set_scalar(self, name: str, value: float) -> "Server":
        """Register or re-bind a global scalar (value-only if it exists)."""
        self.catalog.set_scalar(name, value)
        return self

    def drop(self, name: str) -> "Server":
        """Unregister a tensor or scalar."""
        self.catalog.drop(name)
        return self

    def replace_format(self, fmt) -> "Server":
        """Re-store an already-registered tensor in a different format."""
        self.catalog.replace(fmt)
        return self

    def apply_recommendation(self, recommendation) -> "Server":
        """Apply a :class:`repro.advisor.Recommendation` to the shared catalog.

        Each re-store is one atomic replace; in-flight requests keep their
        snapshots, later requests see the new formats and re-prepare through
        the shared cache.
        """
        from ..storage.convert import reformat

        for name, kind in recommendation.formats.items():
            current = self.catalog.tensors.get(name)
            if current is None:
                raise StorageError(
                    f"recommendation names {name!r}, which is not a registered tensor")
            if current.format_name != kind:
                self.replace_format(reformat(current, kind))
        return self

    def update(self, name: str, coords, values) -> "Server":
        """Apply a sparse point-update to tensor ``name``, maintaining views.

        The update is a value-only mutation (:meth:`repro.storage.Catalog
        .update`): the schema epoch is untouched, so shared plans survive
        and in-flight snapshot readers are unaffected.  Every registered
        materialized view (:meth:`create_view`) is refreshed *before* the
        new epoch becomes observable to view readers — by its prepared
        delta statement when the cost model says that pays, by full
        re-execution otherwise (``docs/ivm.md``).  Maintenance counters and
        latency land in :attr:`stats`.
        """
        if self._closed:
            raise ServerClosed("cannot update a closed server")
        with self._views_lock:
            registry = self._views
        if registry is not None and len(registry):
            registry.update(name, coords, values)
        else:
            self.catalog.update(name, coords, values)
        return self

    # -- materialized views (incremental view maintenance) ---------------------

    def _view_registry(self):
        from ..ivm.views import ViewRegistry
        from ..session import Session

        with self._views_lock:
            if self._views is None:
                # A private maintenance session over the *live* catalog; its
                # lowered artifacts share the server's cache.
                maintenance = Session(self.catalog, method=self.method,
                                      backend=self.backend, cache=self.lowered,
                                      optimizer_options=self.optimizer_options)
                self._views = ViewRegistry(
                    maintenance,
                    on_maintenance=self.stats.record_maintenance)
            return self._views

    def create_view(self, name: str, program: "str | Expr", *,
                    method: str | None = None, backend: str | None = None,
                    dense_shape: tuple[int, ...] | None = None,
                    optimizer_options: Mapping[str, Any] | None = None):
        """Register ``program`` as a materialized view, maintained by :meth:`update`.

        Returns the :class:`repro.ivm.views.MaterializedView`; read its
        current result with ``server.view(name).value()``.
        """
        if self._closed:
            raise ServerClosed("cannot create a view on a closed server")
        if isinstance(program, str):
            program = FRONT_END.get(program).program
        view = self._view_registry().create(
            name, program, method=method, backend=backend,
            dense_shape=dense_shape, optimizer_options=optimizer_options)
        self.stats.count("views")
        return view

    def view(self, name: str):
        """The registered :class:`repro.ivm.views.MaterializedView` named ``name``."""
        return self._view_registry().get(name)

    def drop_view(self, name: str) -> "Server":
        """Unregister a materialized view."""
        self._view_registry().drop(name)
        return self

    def purge_stale_plans(self) -> int:
        """Eagerly drop shared plans from superseded schema epochs."""
        return self.plans.purge_stale(self.catalog.schema_version)

    def feedback_report(self) -> dict[str, Any]:
        """Lifetime counters of the adaptive feedback loop (empty when off)."""
        return self.feedback.snapshot() if self.feedback is not None else {}

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
                             optimizer_options=dict(optimizer_options
                                                    or self.optimizer_options))

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

    # -- per-snapshot derived state (memoized per catalog version) -------------

    def _env_for(self, snapshot: CatalogSnapshot) -> dict[str, Any]:
        """``snapshot.globals()`` memoized on the snapshot's version epoch."""
        with self._memo_lock:
            env = self._envs.get(snapshot.version)
            if env is not None:
                self._envs.move_to_end(snapshot.version)
                return env
        env = snapshot.globals()
        with self._memo_lock:
            self._envs[snapshot.version] = env
            self._envs.move_to_end(snapshot.version)
            while len(self._envs) > self.config.env_cache_size:
                self._envs.popitem(last=False)
        return env

    def _statistics_for(self, snapshot: CatalogSnapshot) -> Statistics:
        """Statistics over the snapshot, memoized on its version epoch."""
        with self._memo_lock:
            stats = self._statistics.get(snapshot.version)
            if stats is not None:
                self._statistics.move_to_end(snapshot.version)
                return stats
        stats = Statistics.from_catalog(snapshot)
        with self._memo_lock:
            self._statistics[snapshot.version] = stats
            self._statistics.move_to_end(snapshot.version)
            while len(self._statistics) > self.config.env_cache_size:
                self._statistics.popitem(last=False)
        return stats

    # -- the request path ------------------------------------------------------

    def _shared_plan(self, front: FrontEnd, *, method: str, backend: str,
                     optimizer_options: dict,
                     snapshot: CatalogSnapshot) -> SharedPlan:
        """Look up / build the shared plan for one query under one snapshot.

        ``front.query`` — nameless and literal-free — is both the cache-key
        identity and what the optimizer consumes, so the plan (and its
        lowered artifact) reads its literals from ``$k`` slots and serves
        every literal vector."""
        key = plan_key(front.query, method=method, backend=backend,
                       optimizer_options=optimizer_options, snapshot=snapshot)
        feedback_epoch = self.feedback.epoch if self.feedback is not None else 0
        if self.feedback is not None:
            # The adaptive epoch rides at the TAIL of the key: ``base_key``
            # (the first four components) stays the query's stable identity,
            # and adopting new observations structurally invalidates every
            # plan optimized under the old statistics.
            key = key + (feedback_epoch,)
        previous: SharedPlan | None = None

        def build() -> SharedPlan:
            nonlocal previous
            previous = self.plans.latest(base_key(key))
            options = dict(self.optimizer_options)
            options.update(optimizer_options)
            optimizer = Optimizer(self._statistics_for(snapshot), **options)
            optimization = optimizer.optimize(front.query.expr,
                                              snapshot.mappings(), method=method)
            engine = ExecutionEngine(env=self._env_for(snapshot),
                                     backend=backend, cache=self.lowered)
            prepared = engine.prepare(optimization.plan)
            return SharedPlan(key=key, optimization=optimization,
                              prepared=prepared,
                              schema_version=snapshot.schema_version,
                              feedback_epoch=feedback_epoch,
                              literals=front.literals)

        entry, was_hit = self.plans.get_or_prepare(key, build)
        if was_hit:
            self.stats.count("plan_hits")
        else:
            self.stats.count("plan_misses")
            if previous is not None:
                if previous.schema_version != snapshot.schema_version:
                    self.stats.count("re_prepares")
                elif previous.feedback_epoch != feedback_epoch:
                    # Same schema, new adaptive epoch: this miss is the
                    # feedback loop re-optimizing the query.
                    self.stats.count("re_optimizations")
        return entry

    def _serve(self, front: FrontEnd, *, method: str, backend: str,
               optimizer_options: dict, dense_shape: tuple[int, ...] | None,
               scalar_params: Mapping[str, float]) -> Any:
        """Admission → snapshot → shared plan → bind → execute → record."""
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
            snapshot = self.catalog.snapshot()
            entry = self._shared_plan(front, method=method, backend=backend,
                                      optimizer_options=optimizer_options,
                                      snapshot=snapshot)
            if entry.literals != front.literals:
                self.stats.count("literal_shared")
            env = self._env_for(snapshot)
            if scalar_params:
                unknown = [name for name in scalar_params
                           if name not in snapshot.scalars]
                if unknown:
                    raise StorageError(
                        f"unknown scalar parameter(s) {sorted(unknown)}; "
                        f"registered scalars: {sorted(snapshot.scalars)}")
            # Everything bound per request: the caller's scalar parameters
            # and the text's literal vector, into the plan's ``$k`` slots.
            overrides = {**scalar_params, **front.bindings}
            if overrides:
                env = {**env, **overrides}
            store = self.feedback
            if store is not None and store.should_sample():
                # Sampled execution: profile loop iteration counts and the
                # output cardinality, then fold them into the snapshot's
                # statistics.  Misestimations beyond the threshold bump the
                # adaptive epoch, so the next request for an affected query
                # misses the shared cache and re-optimizes with the
                # observed numbers.
                profile = ExecutionProfile()
                result = entry.prepared.run(env, None, profile)
                profile.record_output(result)
                counters = store.ingest(self._statistics_for(snapshot),
                                        entry.prepared, profile,
                                        snapshot.version)
                self.stats.count("profiled_runs")
                if counters["feedback_misestimations"]:
                    self.stats.count("misestimations",
                                     counters["feedback_misestimations"])
            else:
                # Parallel shard dispatch when configured and the plan is a
                # per-shard chain; the pool is keyed on the snapshot's
                # epochs, so it serves exactly the state the plan was
                # prepared against, and the per-request bindings travel with
                # the call instead of riding in the shipped environment.
                result = self._shard_executor.run_plan(
                    entry.prepared.plan, snapshot, backend, overrides)
                if result is NOT_DISPATCHED:
                    return entry.run(env, dense_shape)
            if dense_shape is not None:
                result = result_to_dense(result, dense_shape)
            return result
        except BaseException:
            self.stats.count("errors")
            raise
        finally:
            self.stats.leave()
            self._gate.release()
            self.stats.latency.record((time.perf_counter() - start) * 1_000.0)


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
        here: preparation happens (once, globally) on first execution, so
        handles are free and never go stale — each execution resolves
        against the catalog epoch current *at that moment*.
        """
        if self._closed:
            raise ServerClosed("session is closed")
        options = dict(self.optimizer_options)
        options.update(optimizer_options or {})
        return ServedStatement(self.server, program,
                               method=method or self.method,
                               backend=check_backend(backend or self.backend),
                               dense_shape=dense_shape,
                               optimizer_options=options)

    def execute(self, program: "str | Expr", *,
                dense_shape: tuple[int, ...] | None = None,
                **scalar_params: float) -> Any:
        """Prepare (via the shared cache) and execute once."""
        return self.prepare(program, dense_shape=dense_shape).execute(**scalar_params)

    #: ``Session.run``-flavoured alias.
    run = execute


class ServedStatement:
    """A query handle bound to a server, executable from any thread.

    Every :meth:`execute` is one admission-controlled request served from a
    fresh catalog snapshot; the optimized + lowered plan comes from the
    server's shared cache, so repeated executions (from this or any other
    statement for the same query) are pure cache hits.
    """

    def __init__(self, server: Server, program: "str | Expr", *, method: str,
                 backend: str, dense_shape: tuple[int, ...] | None,
                 optimizer_options: dict[str, Any]):
        if isinstance(program, str):
            # One front-end run per distinct text, process-wide: a request
            # for a text seen before costs a dictionary lookup here.
            self._front, seen = FRONT_END.lookup(program)
            server.stats.count("text_hits" if seen else "text_misses")
        else:
            self._front = front_end(program)
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
        return self.server._serve(self._front,
                                  method=self.method, backend=self.backend,
                                  optimizer_options=self.optimizer_options,
                                  dense_shape=self.dense_shape,
                                  scalar_params=scalar_params)

    def explain(self) -> str:
        """The plan this statement resolves to under the current catalog.

        The shared plan is literal-free; it is shown instantiated with this
        statement's literals, followed by the parameter slots they were
        bound through."""
        from ..session import format_explanation

        snapshot = self.server.catalog.snapshot()
        entry = self.server._shared_plan(
            self._front, method=self.method,
            backend=self.backend, optimizer_options=self.optimizer_options,
            snapshot=snapshot)
        bindings = self._front.bindings
        lines = [format_explanation(replace(
            entry.optimization,
            plan=substitute_literals(entry.optimization.plan, bindings)))]
        if bindings:
            lines.append("literal parameters (one shared plan serves every binding):")
            lines.extend(f"  {slot} = {value!r}" for slot, value in bindings.items())
        return "\n".join(lines)
