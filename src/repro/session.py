"""Sessions and prepared statements: the one request pipeline.

The paper's workflow (Fig. 2) separates the *Data Admin* — who registers
tensors, storage formats and statistics once — from the queries that run many
times over that configuration.  A :class:`Session` is the database-style
embodiment of that split, and the only place a request is planned and run:
:class:`repro.serving.Server` is a session with an admission gate, counters
and a catalog snapshot per request.  Every request takes the same steps, each
written once here::

    resolve:  text ─► front end ─► key ─► SharedPlanCache ─► optimize ─► lower
    execute:  gate ─► bind params + literal slots
                   ─► feedback sample | shard dispatch ─► PreparedPlan.run(dense_shape=)

* **Catalog mutators** bump the catalog epochs and patch the memoized
  statistics incrementally.  A *schema* change (tensors added / dropped /
  re-stored, new symbols) changes plan keys, so statements re-resolve on
  their next execution; a *value-only* change only refreshes environments.
* **Resolution** runs the front end once per distinct text
  (:data:`~repro.sdqlite.frontend.FRONT_END`), keys the literal-free query
  with :func:`~repro.serving.cache.plan_key` plus the feedback epoch, and
  fills a single-flight :class:`~repro.serving.cache.SharedPlanCache`.
  ``2 * x`` and ``3 * x`` share one plan; statements show it with their own
  literals substituted back.
* **Execution** binds scalar parameters and literal slots, then profiles a
  sampled run for the feedback loop, offers the plan to the shard pool, or
  runs it in-process.

A typical lifecycle::

    from repro.session import Session

    session = (Session()                      # connect
               .register(CSRFormat.from_dense("A", a))
               .register(DenseFormat.from_dense("X", x))
               .set_scalar("beta", 2.0))      # register data once
    statement = session.prepare(program, dense_shape=(n,))   # optimize once
    for beta in (0.5, 1.0, 2.0):
        result = statement.execute(beta=beta)                # execute many

The one-shot helpers in :mod:`repro.storel` (``run`` / ``run_detailed`` /
``explain``) are thin wrappers over a throwaway session.
"""

from __future__ import annotations

import logging
import threading
from dataclasses import dataclass, replace
from functools import partial
from typing import Any, Callable, Iterable, Mapping

from .core.feedback import FeedbackConfig, FeedbackStore
from .core.optimizer import OptimizationResult, Optimizer
from .core.statistics import Statistics
from .execution.engine import (
    BACKENDS,
    GLOBAL_PLAN_CACHE,
    ExecutionEngine,
    PlanCache,
    check_backend,
    result_to_dense,
)
from .execution.profile import ExecutionProfile
from .execution.sharded import NOT_DISPATCHED, ShardExecutor
from .sdqlite.ast import Expr, Sym, postorder
from .sdqlite.errors import StorageError
from .sdqlite.frontend import FRONT_END, FrontEnd, front_end
from .sdqlite.literals import substitute_literals
from .serving.cache import SharedPlan, SharedPlanCache, base_key, plan_key
from .storage.catalog import Catalog, CatalogSnapshot


def _shown(optimization: OptimizationResult,
           bindings: Mapping[str, Any]) -> OptimizationResult:
    """``optimization`` with its literal slots substituted back, for display."""
    if not bindings:
        return optimization
    return replace(optimization,
                   plan=substitute_literals(optimization.plan, bindings))


@dataclass
class RunOutcome:
    """Result of a detailed run: the value plus the optimizer's output."""

    result: Any
    optimization: OptimizationResult
    plan_source: str
    #: ``typed``'s execution counters (``sum_loops``, ``fallback_sums``,
    #: ``fallback_reasons``, ...); ``None`` for the interpreter, which has none.
    execution_stats: dict[str, Any] | None = None

    def explain(self) -> str:
        """The plan explanation, extended with this run's execution counters."""
        return format_explanation(self.optimization,
                                  execution_stats=self.execution_stats)


def format_explanation(optimization: OptimizationResult, *,
                       execution_stats: "Mapping[str, Any] | None" = None) -> str:
    """Render an :class:`OptimizationResult` the way ``storel.explain`` prints it."""
    from .sdqlite.pretty import pretty

    lines = [
        "== chosen plan ==",
        pretty(optimization.plan, indent=True),
        "",
        f"estimated cost: {optimization.cost:.1f}",
    ]
    if optimization.candidate_costs:
        lines.append("candidate costs:")
        for name, cost in sorted(optimization.candidate_costs.items(), key=lambda kv: kv[1]):
            lines.append(f"  {name:<26}: {cost:.1f}")
    if optimization.stage1 is not None:
        lines.append(f"stage 1 (storage-independent): {optimization.stage1.as_row()}")
    if optimization.stage2 is not None:
        lines.append(f"stage 2 (storage-aware):       {optimization.stage2.as_row()}")
    for stage in (optimization.stage1, optimization.stage2):
        if stage is not None and stage.runner.stop_reason != "saturated":
            lines.append(
                f"!! {stage.name} stage did NOT saturate: stopped on "
                f"{stage.runner.stop_reason} after {stage.runner.iterations} iterations "
                f"({stage.runner.nodes} e-nodes); the plan is the best found so far")
    rule_stats = [stats for stage in (optimization.stage1, optimization.stage2)
                  if stage is not None for stats in stage.runner.rule_stats.values()]
    if rule_stats:
        # Timings belong to the saturation report; a greedy explanation stays
        # free of them (and therefore reproducible text).
        lines.append("optimization time by phase (ms): " + ", ".join(
            f"{phase} {ms:.1f}" for phase, ms in optimization.phase_ms.items()))
        lines.append("rules with the most apply time:")
        for stats in sorted(rule_stats, key=lambda s: s.apply_ms, reverse=True)[:3]:
            lines.append(
                f"  {stats.name:<26}: {stats.apply_ms:.1f} ms, {stats.matches} matches, "
                f"{stats.applied} applied, {stats.declined} declined, "
                f"{stats.memo_hits} memo hits, {stats.new_nodes} new e-nodes")
    if execution_stats:
        lines.append("execution counters:")
        for name in sorted(execution_stats):
            if name != "fallback_reasons":
                lines.append(f"  {name:<26}: {execution_stats[name]}")
        reasons = execution_stats.get("fallback_reasons")
        if reasons:
            lines.append("loops that fell back to Python, by reason:")
            for reason, loops in sorted(reasons.items()):
                lines.append(f"  {loops} x {reason}")
    return "\n".join(lines)


class Session:
    """A persistent connection to one catalog: registered data + derived state.

    Parameters
    ----------
    catalog:
        The catalog to serve; a fresh empty one by default.  The session
        mutates it in place through :meth:`register` / :meth:`set_scalar` /
        :meth:`drop` / :meth:`replace_format` / :meth:`update`.
    method:
        Default optimization method for :meth:`prepare` / :meth:`run`
        (``"greedy"`` or ``"egraph"``).
    backend:
        Default execution backend: ``"typed"`` (the default) or
        ``"interpret"`` (the reference interpreter).  Checked here and on
        every per-call ``backend=`` override: an unknown name raises
        :class:`~repro.sdqlite.errors.ExecutionError` before anything is
        optimized.
    cache:
        The :class:`~repro.execution.engine.PlanCache` lowered plans are
        kept in; the process-wide
        :data:`~repro.execution.engine.GLOBAL_PLAN_CACHE` by default, so
        throwaway sessions still share lowering work.  Optimized plans live
        in the session's own :attr:`plans`.
    optimizer_options:
        Default keyword arguments for every
        :class:`~repro.core.optimizer.Optimizer` this session builds
        (e.g. ``iter_limit``); per-statement options override them.
    feedback:
        A :class:`~repro.core.feedback.FeedbackConfig` to enable the
        adaptive feedback loop (``docs/adaptive.md``): sampled executions
        are profiled, observed cardinalities refine the statistics, and
        statements whose estimates were off by more than the configured
        q-error threshold transparently re-prepare.  ``None`` (the default)
        disables the loop entirely; :meth:`enable_feedback` turns it on
        after construction.
    shard_workers:
        When ``>= 2``, executions whose plan is a per-shard ``+`` chain
        (sharded storage, see ``docs/sharding.md``) run their shard parts
        on a pool of that many worker processes and ``v_add``-merge the
        partials; anything else — including every failure of the pool —
        runs the plan in-process, where the same chain streams one shard at
        a time; a pool failure is logged once per cause.  ``0`` (the
        default) never spawns processes.  Executions the feedback loop
        samples, and :meth:`Statement.execute_with_stats`, always run
        in-process so their counters observe the whole plan.
    """

    #: The serving layer's :class:`~repro.serving.stats.ServerStats`; a
    #: plain session counts nothing.
    stats = None
    _log = logging.getLogger("repro.execution")

    def __init__(self, catalog: Catalog | None = None, *, method: str = "greedy",
                 backend: str = "typed", cache: PlanCache | None = None,
                 optimizer_options: Mapping[str, Any] | None = None,
                 feedback: FeedbackConfig | None = None,
                 shard_workers: int = 0):
        self.catalog = catalog if catalog is not None else Catalog()
        self.method = method
        self.backend = check_backend(backend)
        self.cache = cache if cache is not None else GLOBAL_PLAN_CACHE
        self.optimizer_options = dict(optimizer_options or {})
        #: Optimized + lowered plans, shared by every statement of the session.
        self.plans = SharedPlanCache()
        self.shard_workers = shard_workers
        self._shard_executor = ShardExecutor(
            shard_workers, log=self._log,
            on_fallback=partial(self._count, "shard_fallbacks"))
        # One-entry memos per catalog version: the statistics are patched in
        # place by this session's mutators; the environment is rebuilt, and
        # swapped as one ``(version, env)`` tuple so readers need no lock.
        self._stats: Statistics | None = None
        self._stats_version = -1
        self._env: tuple[int, dict[str, Any]] = (-1, {})
        self._views = None  # lazy repro.ivm.views.ViewRegistry
        self._feedback = FeedbackStore(feedback) if feedback is not None else None
        # One re-entrant lock pairs each catalog mutation with its statistics
        # patch and keeps optimizations and feedback ingestion from reading
        # statistics mid-patch.  Whoever holds it never waits for the
        # admission gate or for another request's plan, so executions can
        # take it while holding a gate slot.  Lock order: view registry ->
        # session -> catalog.
        self._lock = threading.RLock()

    # -- lifecycle ------------------------------------------------------------

    def __enter__(self) -> "Session":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def close(self) -> None:
        """Drop derived state and cached plans (the catalog itself is left untouched).

        Lowered artifacts are left in :attr:`cache`: they are pure functions
        of the plan, the default cache is shared process-wide, and the cache
        is LRU-bounded anyway.
        """
        with self._lock:
            self._stats = None
            self._stats_version = -1
            self._env = (-1, {})
            self.plans.clear()
            self._shard_executor.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{type(self).__name__}(tensors={sorted(self.catalog.tensors)}, "
                f"scalars={sorted(self.catalog.scalars)}, "
                f"backend={self.backend!r}, method={self.method!r}, "
                f"version={self.catalog.version})")

    # -- catalog mutation (the Data Admin API) --------------------------------

    def _stats_in_sync(self) -> bool:
        return self._stats is not None and self._stats_version == self.catalog.version

    def _mutate(self, mutation: Callable[[], Any],
                patch: Callable[[Statistics], None]) -> "Session":
        """Apply one catalog mutation and patch the memoized statistics to match.

        The catalog bumps the epochs; no other invalidation is needed: the
        environment memo and statements compare epochs lazily, and plan keys
        carry the schema epoch.  Runtime cardinality observations describe
        the *pre-mutation* data, so every patch also drops them — the
        feedback loop re-learns them from the next sampled executions.
        """
        with self._lock:
            in_sync = self._stats_in_sync()
            mutation()
            if in_sync:
                patch(self._stats)
                self._stats.clear_observations()
                self._stats_version = self.catalog.version
        return self

    def _restored(self, name: str) -> Callable[[Statistics], None]:
        """The statistics patch for tensor ``name`` changing its stored format."""
        old = self.catalog.tensors.get(name)

        def patch(stats: Statistics) -> None:
            stats.remove_format(old)
            stats.apply_format(self.catalog.tensors[name])
        return patch

    def register(self, fmt) -> "Session":
        """Register a new tensor (see :meth:`repro.storage.Catalog.add`)."""
        return self._mutate(lambda: self.catalog.add(fmt),
                            lambda stats: stats.apply_format(fmt))

    def set_scalar(self, name: str, value: float) -> "Session":
        """Register a global scalar, or re-bind an existing one to a new value.

        Re-binding is a value-only mutation: prepared statements stay valid
        and only refresh their environment — no re-optimization, no
        re-lowering.
        """
        return self._mutate(lambda: self.catalog.set_scalar(name, value),
                            lambda stats: stats.set_scalar(name, value))

    def drop(self, name: str) -> "Session":
        """Unregister a tensor or scalar (see :meth:`repro.storage.Catalog.drop`)."""
        with self._lock:
            fmt = self.catalog.tensors.get(name)
            return self._mutate(lambda: self.catalog.drop(name),
                                lambda stats: stats.remove_format(fmt) if fmt is not None
                                else stats.remove_scalar(name))

    def replace_format(self, fmt) -> "Session":
        """Re-store an already-registered tensor in a different format."""
        with self._lock:
            return self._mutate(lambda: self.catalog.replace(fmt),
                                self._restored(fmt.name))

    def _apply_update(self, name: str, coords, values) -> None:
        """Catalog point-update + incremental statistics patch (no views)."""
        with self._lock:
            self._mutate(lambda: self.catalog.update(name, coords, values),
                         self._restored(name))

    def update(self, name: str, coords, values) -> "Session":
        """Apply a sparse point-update to tensor ``name`` (value-only mutation).

        ``coords`` is an ``(n, rank)`` integer array and ``values`` the
        matching additive deltas — see :meth:`repro.storage.Catalog.update`.
        Prepared statements and cached plans survive (only environments
        refresh), and every registered materialized view is maintained
        before its readers see the new epoch — by its prepared delta
        statement when that pays, by full re-execution otherwise
        (``docs/ivm.md``).
        """
        # Lock order is registry -> session (view reads take the registry
        # lock first), so the registry is read without the session lock here.
        registry = self._views
        if registry is not None and len(registry):
            registry.update(name, coords, values)
        else:
            self._apply_update(name, coords, values)
        return self

    def apply_recommendation(self, recommendation) -> "Session":
        """Re-store tensors as a :class:`repro.advisor.Recommendation` advises.

        Every tensor whose recommended format differs from its current one
        is converted in place via :func:`repro.storage.convert.reformat` and
        swapped with :meth:`replace_format` — so the catalog epochs bump,
        statistics are patched incrementally, and live prepared statements
        transparently re-prepare on their next execution.  Tensors already
        stored as recommended are left untouched (no epoch bump).

        Example (see ``docs/advisor.md``)::

            recommendation = storel.advise(programs, session.catalog)
            session.apply_recommendation(recommendation)
        """
        from .storage.convert import reformat

        for name, kind in recommendation.formats.items():
            current = self.catalog.tensors.get(name)
            if current is None:
                raise StorageError(
                    f"recommendation names {name!r}, which is not a registered tensor")
            # spec_name carries the shard count (e.g. "sharded_csr@4"), so a
            # tensor already stored exactly as recommended is a no-op even
            # when the recommendation names a sharded spec.
            if kind not in (current.format_name, current.spec_name):
                self.replace_format(reformat(current, kind))
        return self

    def advise(self, programs, **kwargs):
        """Run the workload-driven format advisor over this session's catalog.

        Thin wrapper over :class:`repro.advisor.Advisor`; keyword arguments
        are split between the advisor's constructor knobs (``method``,
        ``backend``, ``beam_width``, ``per_tensor_top``,
        ``optimizer_options``) and :meth:`repro.advisor.Advisor.advise`
        (``weights``, ``tensors``, ``include_special``, ``measure``,
        ``top_k``, ``measure_repeats``).  Returns a
        :class:`repro.advisor.Recommendation`; apply it with
        :meth:`apply_recommendation`.
        """
        from .advisor import Advisor

        constructor_keys = ("method", "backend", "beam_width", "per_tensor_top",
                            "optimizer_options", "shard_counts")
        constructor = {key: kwargs.pop(key) for key in constructor_keys if key in kwargs}
        constructor.setdefault("method", self.method)
        # The advisor must cost plans under the same optimizer configuration
        # this session executes with; explicit options override per key.
        options = dict(self.optimizer_options)
        options.update(constructor.get("optimizer_options") or {})
        constructor["optimizer_options"] = options
        return Advisor(self, **constructor).advise(programs, **kwargs)

    # -- materialized views (incremental view maintenance) ---------------------

    def views(self):
        """This session's :class:`repro.ivm.views.ViewRegistry` (created lazily)."""
        from .ivm.views import ViewRegistry

        with self._lock:
            if self._views is None:
                self._views = ViewRegistry(
                    self, on_maintenance=(self.stats.record_maintenance
                                          if self.stats is not None else None))
            return self._views

    def create_view(self, name: str, program: "str | Expr", *,
                    method: str | None = None, backend: str | None = None,
                    dense_shape: tuple[int, ...] | None = None,
                    optimizer_options: Mapping[str, Any] | None = None):
        """Register ``program`` as a materialized view named ``name``.

        The view is materialized immediately and maintained incrementally
        across :meth:`update` calls; read it with ``session.view(name)
        .value()``.  Returns the :class:`repro.ivm.views.MaterializedView`.
        """
        view = self.views().create(name, program, method=method, backend=backend,
                                   dense_shape=dense_shape,
                                   optimizer_options=optimizer_options)
        self._count("views")
        return view

    def view(self, name: str):
        """The registered :class:`repro.ivm.views.MaterializedView` named ``name``."""
        return self.views().get(name)

    def drop_view(self, name: str) -> "Session":
        """Unregister a materialized view (its tensor data is untouched)."""
        self.views().drop(name)
        return self

    # -- adaptive feedback loop ------------------------------------------------

    @property
    def feedback(self) -> FeedbackStore | None:
        """The session's :class:`FeedbackStore`, or ``None`` when disabled."""
        return self._feedback

    def enable_feedback(self, *, sample_every: int = 8,
                        threshold: float = 2.0) -> "Session":
        """Turn on the adaptive feedback loop (see ``docs/adaptive.md``).

        One in every ``sample_every`` executions is profiled; observed
        cardinalities that disagree with the estimates by more than a
        ``threshold`` q-error refine the statistics and make dependent
        statements re-prepare on their next execution.  Idempotent when
        already enabled with the same configuration; re-configuring replaces
        the store (and resets its counters).
        """
        config = FeedbackConfig(sample_every=sample_every, threshold=threshold)
        with self._lock:
            if self._feedback is None or self._feedback.config != config:
                self._feedback = FeedbackStore(config)
        return self

    def disable_feedback(self) -> "Session":
        """Turn the adaptive feedback loop off.

        Already-adopted observations stay in the statistics (they still
        describe the current data); only profiling and ingestion stop.
        Re-enabling later starts a fresh store with reset counters.
        """
        with self._lock:
            self._feedback = None
        return self

    def feedback_report(self) -> dict[str, Any]:
        """Lifetime counters of the feedback loop (empty dict when disabled)."""
        store = self._feedback
        return store.snapshot() if store is not None else {}

    def _feedback_epoch(self) -> int:
        store = self._feedback
        return store.epoch if store is not None else 0

    # -- derived state, memoized per catalog version ---------------------------

    def statistics(self, snapshot: CatalogSnapshot | None = None) -> Statistics:
        """Statistics over ``snapshot`` (default: the catalog now).

        Memoized on the catalog version: this session's mutations patch the
        memoized instance incrementally, so a full
        :meth:`Statistics.from_catalog` rebuild only happens when the catalog
        was mutated behind the session's back — or for a request whose
        snapshot a later write has already superseded, which gets
        statistics of its own.
        """
        with self._lock:
            if snapshot is None:
                snapshot = self.catalog.snapshot()
            if self._stats is None or self._stats_version != snapshot.version:
                stats = Statistics.from_catalog(snapshot)
                if snapshot.version < self._stats_version:
                    return stats
                self._stats, self._stats_version = stats, snapshot.version
            return self._stats

    def environment(self, snapshot: CatalogSnapshot | None = None) -> dict[str, Any]:
        """The physical environment ``globals()`` of ``snapshot`` (default: now).

        Memoized on the catalog version like :meth:`statistics`; a request
        whose snapshot a later write superseded gets its own.
        """
        if snapshot is None:
            snapshot = self.catalog.snapshot()
        version, env = self._env
        if version != snapshot.version:
            env = snapshot.globals()
            with self._lock:
                if snapshot.version > self._env[0]:
                    self._env = (snapshot.version, env)
        return env

    def _bind(self, snapshot: CatalogSnapshot,
              bindings: Mapping[str, Any]) -> Mapping[str, Any]:
        """The environment of ``snapshot`` with a text's literal slots bound."""
        env = self.environment(snapshot)
        return {**env, **bindings} if bindings else env

    # -- the request pipeline ----------------------------------------------------

    def _count(self, field: str, delta: int = 1) -> None:
        """Count an event of the pipeline into :attr:`stats` (if any)."""
        if self.stats is not None:
            self.stats.count(field, delta)

    def _admit(self, work: Callable[..., Any], *args) -> Any:
        """Run one execution; a plain session admits everything at once."""
        return work(*args)

    def _front_end(self, program: "str | Expr") -> FrontEnd:
        """The front-end product of ``program``; text goes through the memo."""
        if isinstance(program, str):
            front, seen = FRONT_END.lookup(program)
            self._count("text_hits" if seen else "text_misses")
            return front
        return front_end(program)

    def _resolve(self, front: FrontEnd, method: str, backend: str,
                 options: Mapping[str, Any], snapshot: CatalogSnapshot
                 ) -> tuple[SharedPlan, Mapping[str, Any]]:
        """The shared plan for ``front`` under ``snapshot``, and its environment.

        The key is :func:`plan_key` with the feedback epoch as its tail: a
        schema change or adopted observations miss, a value-only change or
        another literal vector hits.  A miss optimizes the literal-free query
        (once per key across threads) and lowers it through :attr:`cache`; a
        plan that needs a symbol the snapshot does not bind is refused before
        it is cached.  The environment has the text's literal slots bound.
        """
        epoch = self._feedback_epoch()
        key = plan_key(front.query, method=method, backend=backend,
                       optimizer_options=options, snapshot=snapshot) + (epoch,)
        previous: SharedPlan | None = None

        def build() -> SharedPlan:
            nonlocal previous
            previous = self.plans.latest(base_key(key))
            # Optimization does not depend on the backend: another backend's
            # plan for the same query and catalog state is reused as is.
            twins = (self.plans.peek(key[:2] + (other,) + key[3:])
                     for other in BACKENDS if other != backend)
            twin = next(filter(None, twins), None)
            if twin is not None:
                optimization = twin.optimization
            else:
                with self._lock:
                    optimization = Optimizer(self.statistics(snapshot), **options).optimize(
                        front.query.expr, snapshot.mappings(), method=method)
            env = self.environment(snapshot)
            unbound = {node.name for node in postorder(optimization.plan)
                       if isinstance(node, Sym)}.difference(env, front.bindings)
            if unbound:
                raise StorageError(
                    f"plan references unbound symbol(s) {sorted(unbound)}; "
                    "a tensor or scalar the program needs is not registered "
                    "in the catalog (was it dropped?)")
            prepared = ExecutionEngine(env=env, backend=backend,
                                       cache=self.cache).prepare(optimization.plan)
            return SharedPlan(key=key, optimization=optimization, prepared=prepared,
                              schema_version=snapshot.schema_version,
                              feedback_epoch=epoch, literals=front.literals)

        entry, was_hit = self.plans.get_or_prepare(key, build)
        if was_hit:
            self._count("plan_hits")
        else:
            self._count("plan_misses")
            if previous is not None:
                if previous.schema_version != snapshot.schema_version:
                    self._count("re_prepares")
                elif previous.feedback_epoch != epoch:
                    # Same schema, new adaptive epoch: this miss is the
                    # feedback loop re-optimizing the query.
                    self._count("re_optimizations")
        if entry.literals != front.literals:
            self._count("literal_shared")
        return entry, self._bind(snapshot, front.bindings)

    def _execute(self, entry: SharedPlan, env: Mapping[str, Any],
                 snapshot: CatalogSnapshot, dense_shape: tuple[int, ...] | None,
                 stats: dict | None, scalar_params: Mapping[str, Any],
                 bindings: Mapping[str, Any]) -> Any:
        """Bind scalar parameters, then a sampled profile, a shard dispatch or a run."""
        if scalar_params:
            unknown = [name for name in scalar_params if name not in snapshot.scalars]
            if unknown:
                raise StorageError(
                    f"unknown scalar parameter(s) {sorted(unknown)}; "
                    f"registered scalars: {sorted(snapshot.scalars)}")
            env = {**env, **scalar_params}
        prepared = entry.prepared
        store = self._feedback
        if store is not None and store.should_sample():
            # Sampled execution: per-loop iteration counts plus the output
            # cardinality (read from the raw result, before any dense
            # conversion) refine the statistics; misestimations beyond the
            # threshold bump the feedback epoch, so the next resolution of an
            # affected query misses and re-optimizes.
            profile = ExecutionProfile()
            result = prepared.run(env, stats, profile)
            profile.record_output(result)
            with self._lock:
                counters = store.ingest(self.statistics(snapshot), prepared, profile,
                                        snapshot.version)
            self._count("profiled_runs")
            self._count("misestimations", counters["feedback_misestimations"])
            if stats is not None:
                stats.update(counters)
        else:
            result = NOT_DISPATCHED
            if stats is None and self._shard_executor.available():
                # A per-shard + chain runs its addends on the worker pool, keyed
                # on the snapshot's epochs; per-request bindings travel with the
                # call.  A failed dispatch answers NOT_DISPATCHED and the run
                # below streams the same chain in-process.
                result = self._shard_executor.run_plan(
                    prepared.plan, snapshot, prepared.backend,
                    {**scalar_params, **bindings})
            if result is NOT_DISPATCHED:
                return prepared.run(env, stats, dense_shape=dense_shape)
        return result if dense_shape is None else result_to_dense(result, dense_shape)

    # -- the query API --------------------------------------------------------

    def prepare(self, program: "str | Expr", *, method: str | None = None,
                backend: str | None = None, dense_shape: tuple[int, ...] | None = None,
                optimizer_options: Mapping[str, Any] | None = None) -> "Statement":
        """Optimize and lower ``program`` once; return a reusable :class:`Statement`."""
        backend = check_backend(backend or self.backend)
        return Statement(self, self._front_end(program),
                         method=method or self.method, backend=backend,
                         dense_shape=dense_shape,
                         optimizer_options={**self.optimizer_options,
                                            **(optimizer_options or {})})

    def run_detailed(self, program: "str | Expr", *, method: str | None = None,
                     backend: str | None = None,
                     dense_shape: tuple[int, ...] | None = None,
                     optimizer_options: Mapping[str, Any] | None = None) -> RunOutcome:
        """Prepare and execute once; return the value plus the plan details."""
        statement = self.prepare(program, method=method, backend=backend,
                                 dense_shape=dense_shape,
                                 optimizer_options=optimizer_options)
        stats: dict[str, Any] = {}
        result = statement.execute_with_stats(stats)
        return RunOutcome(result=result,
                          optimization=statement.optimization,
                          plan_source=statement.plan_source,
                          execution_stats=stats or None)

    def run(self, program: "str | Expr", *, method: str | None = None,
            backend: str | None = None, dense_shape: tuple[int, ...] | None = None,
            optimizer_options: Mapping[str, Any] | None = None) -> Any:
        """Prepare and execute once; return just the value."""
        return self.run_detailed(program, method=method, backend=backend,
                                 dense_shape=dense_shape,
                                 optimizer_options=optimizer_options).result

    def explain(self, program: "str | Expr", *, method: str | None = None,
                optimizer_options: Mapping[str, Any] | None = None) -> str:
        """Human-readable description of the plan STOREL chooses for ``program``."""
        return self.prepare(program, method=method,
                            optimizer_options=optimizer_options).explain()


class Statement:
    """A prepared statement: a resolved plan ready to execute many times.

    Created by :meth:`Session.prepare`.  A statement is the program's
    front-end product plus the resolved shared plan, its bound environment
    and the catalog snapshot and feedback epoch it was resolved at.
    Execution re-binds named scalar parameters and runs — no re-parsing,
    re-optimization or re-lowering on the hot path, and no locks while
    nothing moved.  After a schema change or an adopted feedback
    observation the statement transparently re-resolves on its next
    execution (evicting its superseded artifact from a session-private
    lowering cache); after a value-only change it only refreshes its
    environment.
    """

    def __init__(self, session: Session, front: FrontEnd, *, method: str,
                 backend: str, dense_shape: tuple[int, ...] | None,
                 optimizer_options: dict[str, Any]):
        self._session = session
        self._front = front
        self.method = method
        self.backend = backend
        self.dense_shape = dense_shape
        self.optimizer_options = optimizer_options
        # (shared plan, bound environment, snapshot, feedback epoch, plan as
        # shown), swapped wholesale: a concurrent re-resolution can never be
        # observed as a new plan paired with an old environment.
        self._bound = self._resolve(session.catalog.snapshot())

    # -- resolution / invalidation ---------------------------------------------

    def _resolve(self, snapshot: CatalogSnapshot) -> tuple:
        entry, env = self._session._resolve(self._front, self.method, self.backend,
                                            self.optimizer_options, snapshot)
        return (entry, env, snapshot, entry.feedback_epoch,
                _shown(entry.optimization, self._front.bindings))

    def _current(self) -> tuple:
        """The resolution to execute: the bound one while nothing moved."""
        bound = self._bound
        session = self._session
        epoch = session._feedback_epoch()
        if session.catalog.version == bound[2].version and epoch == bound[3]:
            return bound
        snapshot = session.catalog.snapshot()
        entry = bound[0]
        if snapshot.schema_version == bound[2].schema_version and epoch == bound[3]:
            # Value-only change: the plan stands, the values moved.
            bound = (entry, session._bind(snapshot, self._front.bindings),
                     snapshot) + bound[3:]
        else:
            bound = self._resolve(snapshot)
            old_key, new_key = entry.prepared.cache_key, bound[0].prepared.cache_key
            if (old_key is not None and old_key != new_key
                    and session.cache is not GLOBAL_PLAN_CACHE):
                # Artifacts are plan-pure: one in the shared process-wide cache
                # may still serve other sessions, one in a private cache is
                # dead weight for this statement.
                session.cache.discard(old_key)
        self._bound = bound
        return bound

    @property
    def _prepared(self):
        return self._bound[0].prepared

    @property
    def _feedback_seen(self) -> int:
        return self._bound[3]

    @property
    def is_stale(self) -> bool:
        """True when a schema change invalidated the prepared plan."""
        return self._bound[2].schema_version != self._session.catalog.schema_version

    # -- execution -------------------------------------------------------------

    def _run(self, stats: dict | None, scalar_params: Mapping[str, Any]) -> Any:
        entry, env, snapshot, _, _ = self._current()
        return self._session._execute(entry, env, snapshot, self.dense_shape, stats,
                                      scalar_params, self._front.bindings)

    def execute(self, **scalar_params: float) -> Any:
        """Execute the prepared plan, re-binding the given scalar parameters.

        Parameters must name scalars registered in the catalog (e.g.
        ``statement.execute(beta=0.5)``); unknown names raise
        :class:`~repro.sdqlite.errors.StorageError`.  Parameters given here
        override the catalog value for this execution only.
        """
        return self._session._admit(self._run, None, scalar_params)

    def execute_with_stats(self, stats: dict, **scalar_params: float) -> Any:
        """Like :meth:`execute`, but populate ``stats`` with backend counters.

        The ``typed`` backend records loop/fallback counts (``sum_loops``,
        ``merge_loops``, ``fallback_sums``, ``fallback_merges``,
        ``fallback_reasons``, ``probe_sums``) into the given dictionary; the interpreter
        leaves it untouched.  When the session's adaptive feedback loop is
        enabled and this execution was sampled, the dictionary additionally
        receives the estimated-vs-actual counters (``feedback_checked``,
        ``feedback_misestimations``, ``feedback_max_q_error``,
        ``feedback_refined``) — :meth:`RunOutcome.explain` renders them in
        its ``execution counters`` block.
        """
        return self._session._admit(self._run, stats, scalar_params)

    def execute_many(self, param_batches: Iterable[Mapping[str, float]]) -> list:
        """Execute once per parameter binding, as one admitted request.

        ``param_batches`` is an iterable of ``{scalar: value}`` mappings;
        each batch sees exactly the catalog values plus its own bindings.
        """
        return self._session._admit(
            lambda: [self._run(None, params) for params in param_batches])

    # -- introspection ---------------------------------------------------------

    @property
    def program(self) -> Expr:
        """The named AST of the statement, literals in place."""
        return self._front.program

    @property
    def optimization(self) -> OptimizationResult:
        """The optimizer's output, its plan shown with this text's literals."""
        return self._bound[4]

    @property
    def plan(self) -> Expr:
        """The chosen physical plan (with this text's literals substituted back)."""
        return self.optimization.plan

    @property
    def cost(self) -> float:
        """The optimizer's estimated cost of the chosen plan."""
        return self.optimization.cost

    @property
    def plan_source(self) -> str:
        """A one-line marker naming the backend and its kernel mode."""
        return self._prepared.source

    def explain(self) -> str:
        """The plan this statement runs, followed by the literal slots it binds.

        The shared plan is literal-free; it is shown instantiated with this
        statement's literals."""
        bindings = self._front.bindings
        lines = [format_explanation(self.optimization)]
        if bindings:
            lines.append("literal parameters (one shared plan serves every binding):")
            lines.extend(f"  {slot} = {value!r}" for slot, value in bindings.items())
        return "\n".join(lines)
