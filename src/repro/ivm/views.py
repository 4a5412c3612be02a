"""Materialized views maintained by delta processing, with cost-based fallback.

A :class:`MaterializedView` pairs a prepared statement for the full program
with its last result and, per updatable tensor, a lazily derived + prepared
*delta statement* (:mod:`repro.ivm.delta`).  The :class:`ViewRegistry` owns
a set of views over one :class:`~repro.session.Session` and keeps them
consistent through :meth:`ViewRegistry.update`:

1. for every view whose delta program exists and *pays* (see below), the
   delta statement is executed against the **pre-update** state plus the
   sparse delta, and the new result is ``old ⊕ delta``;
2. the catalog update is applied (:meth:`repro.storage.Catalog.update`,
   a value-only epoch bump — shared plans survive);
3. every remaining view is refreshed by full re-execution against the
   post-update state;
4. all results are installed together with the new epochs.

Steps 1–4 run under one registry lock, and view reads take the same lock,
so a reader can never observe the new epoch paired with a stale result —
the "maintain before readers see the new epoch" contract of
:meth:`repro.serving.Server.update`.

A delta *pays* when (a) derivation succeeded (the program is additively
decomposable in the updated tensor — otherwise the fallback is structural
and permanent until the schema changes), (b) the delta is small relative to
the tensor (``max_delta_fraction``), and (c) the cost model prices the
delta plan — with the *actual* delta's statistics bound in — at no more
than ``fallback_ratio`` times the full plan's cost.  A price depends only
on the statistics of the symbols the plan names, so each delta plan keeps
its prices by their fingerprint (:meth:`DeltaPlan.price`): a run of
same-shaped deltas is priced once.  Deletions are handled
naturally: the calculus is a ring (subtraction is first-class), so a
cancellation is just a negative delta value.
"""

from __future__ import annotations

import logging
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, Optional

import numpy as np

from ..core.cost import CostModel
from ..core.optimizer import OptimizationResult, Optimizer
from ..execution.buffers import BufferDict
from ..execution.engine import ExecutionEngine, PreparedPlan, result_to_dense
from ..sdqlite.ast import Expr, ZERO, symbols
from ..sdqlite.errors import StorageError
from ..sdqlite.values import is_dictlike, v_add
from ..storage.formats import COOFormat
from .delta import DeltaNotSupported, delta_symbol, derive_delta

_MISSING = object()
_log = logging.getLogger("repro.ivm")


@dataclass
class DeltaPlan:
    """A prepared delta statement for one (view, updatable tensor) pair."""

    tensor: str
    delta_name: str
    program: Expr                     # the derived ΔQ (De Bruijn form)
    optimization: Optional[OptimizationResult]
    prepared: Optional[PreparedPlan]
    schema_version: int
    #: ΔQ is literally 0 — the view does not depend on the tensor.
    trivial: bool = False
    #: The plan's symbols, and its priced cost per their statistics'
    #: fingerprint: a delta of the same shape is priced once, not per update.
    symbols: tuple[str, ...] = ()
    costs: dict = field(default_factory=dict)

    #: Distinct fingerprints kept before the price memo starts over.
    MAX_PRICES = 64

    def price(self, stats) -> float:
        """The cost model's estimate of the delta plan under ``stats``."""
        key = stats.fingerprint(self.symbols)
        cost = self.costs.get(key) if key is not None else None
        if cost is None:
            cost = CostModel(stats).plan_cost(self.optimization.plan)
            if key is not None:
                if len(self.costs) >= self.MAX_PRICES:
                    self.costs.clear()
                self.costs[key] = cost
        return cost


class MaterializedView:
    """A named program kept materialized across catalog updates.

    Created through :meth:`repro.session.Session.create_view` or
    :meth:`repro.serving.Server.create_view`; read through :meth:`value`.
    ``delta_refreshes`` / ``full_refreshes`` count how each refresh was
    performed (the initial materialization counts as a full refresh);
    ``merge_fallbacks`` counts the delta refreshes whose result could not be
    merged in buffer form and was added entry by entry instead.
    """

    def __init__(self, registry: "ViewRegistry", name: str, statement,
                 dense_shape: tuple[int, ...] | None):
        self._registry = registry
        self.name = name
        self.statement = statement
        self.dense_shape = dense_shape
        self._result: Any = None
        self._version = -1
        self._schema_version = -1
        # tensor name -> DeltaPlan, or None = derivation failed (structural
        # fallback).  Entries revalidate against the schema epoch.
        self._delta_plans: dict[str, Optional[DeltaPlan]] = {}
        self.delta_refreshes = 0
        self.full_refreshes = 0
        self.merge_fallbacks = 0

    @property
    def program(self) -> Expr:
        return self.statement.program

    def value(self) -> Any:
        """The view's result at the catalog's current state.

        Served from the stored materialization; if the catalog moved outside
        :meth:`ViewRegistry.update` (a schema change, a scalar re-bind, a
        direct catalog write), the view transparently falls back to full
        re-execution first.
        """
        return self._registry.value(self)

    def refresh(self) -> "MaterializedView":
        """Force a full re-execution (counts as a full refresh)."""
        return self._registry.refresh(self)

    def delta_program(self, tensor: str) -> Optional[Expr]:
        """The derived ΔQ for ``tensor``, or ``None`` when unsupported."""
        plan = self._registry.delta_plan(self, tensor)
        return None if plan is None else plan.program

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"MaterializedView({self.name!r}, delta={self.delta_refreshes}, "
                f"full={self.full_refreshes}, merge_fallbacks={self.merge_fallbacks})")


class ViewRegistry:
    """All materialized views over one session, maintained atomically.

    ``on_maintenance(delta_count, full_count, seconds)`` is invoked after
    each :meth:`update` (the serving layer wires it to
    :meth:`repro.serving.ServerStats.record_maintenance`).
    """

    def __init__(self, session, *, fallback_ratio: float = 1.0,
                 max_delta_fraction: float = 0.5,
                 on_maintenance: Callable[[int, int, float], None] | None = None):
        self.session = session
        self.fallback_ratio = fallback_ratio
        self.max_delta_fraction = max_delta_fraction
        self.on_maintenance = on_maintenance
        self._views: dict[str, MaterializedView] = {}
        # One lock serializes view reads and maintenance: a reader can never
        # pair a post-update epoch with a pre-update result.
        self._lock = threading.RLock()

    # -- registration ---------------------------------------------------------

    def create(self, name: str, program, *, method: str | None = None,
               backend: str | None = None,
               dense_shape: tuple[int, ...] | None = None,
               optimizer_options: Mapping[str, Any] | None = None) -> MaterializedView:
        """Prepare ``program``, materialize it, and register it as ``name``."""
        with self._lock:
            if name in self._views:
                raise StorageError(f"view {name!r} is already registered")
            statement = self.session.prepare(program, method=method,
                                             backend=backend,
                                             optimizer_options=optimizer_options)
            view = MaterializedView(self, name, statement, dense_shape)
            self._refresh_full(view)
            self._views[name] = view
            return view

    def get(self, name: str) -> MaterializedView:
        with self._lock:
            try:
                return self._views[name]
            except KeyError as exc:
                raise StorageError(f"no view named {name!r}") from exc

    def drop(self, name: str) -> None:
        with self._lock:
            if self._views.pop(name, None) is None:
                raise StorageError(f"no view named {name!r}")

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._views)

    def __len__(self) -> int:
        with self._lock:
            return len(self._views)

    def __contains__(self, name: str) -> bool:
        with self._lock:
            return name in self._views

    # -- reads ----------------------------------------------------------------

    def value(self, view: MaterializedView) -> Any:
        with self._lock:
            if (view._version, view._schema_version) != self.session.catalog.epochs():
                self._refresh_full(view)
            result = view._result
        if view.dense_shape is not None:
            return result_to_dense(result, view.dense_shape)
        return result

    def refresh(self, view: MaterializedView) -> MaterializedView:
        with self._lock:
            self._refresh_full(view)
        return view

    def _refresh_full(self, view: MaterializedView) -> None:
        # Epochs are read before executing: if a writer slips in between
        # (catalog writes do not take the registry lock), the recorded
        # epochs are older than the result, so the next read refreshes
        # again rather than serving stale state forever.
        epochs = self.session.catalog.epochs()
        view._result = view.statement.execute()
        view._version, view._schema_version = epochs
        view.full_refreshes += 1

    # -- delta plans -----------------------------------------------------------

    def delta_plan(self, view: MaterializedView, tensor: str) -> Optional[DeltaPlan]:
        """The (cached) prepared delta statement, or ``None`` when unsupported."""
        with self._lock:
            session = self.session
            schema = session.catalog.schema_version
            cached = view._delta_plans.get(tensor, _MISSING)
            if cached is None:
                return None
            if cached is not _MISSING and cached.schema_version == schema:
                return cached
            plan = self._build_delta_plan(view, tensor, schema)
            view._delta_plans[tensor] = plan
            return plan

    def _build_delta_plan(self, view: MaterializedView, tensor: str,
                          schema: int) -> Optional[DeltaPlan]:
        session = self.session
        fmt = session.catalog.tensors.get(tensor)
        if fmt is None:
            return None
        dname = delta_symbol(tensor)
        if dname in session.catalog:
            return None  # a real symbol shadows the reserved delta name
        try:
            program = derive_delta(view.statement.program, tensor, dname)
        except DeltaNotSupported:
            return None
        if program == ZERO:
            return DeltaPlan(tensor, dname, program, None, None, schema,
                             trivial=True)
        # Optimize and lower ΔQ once, against a nominal single-entry delta:
        # plans and lowered artifacts are environment-independent, so the
        # actual delta binds per update.
        nominal = COOFormat(dname, np.zeros((1, len(fmt.shape)), dtype=np.int64),
                            np.ones(1), fmt.shape)
        stats = session.statistics().with_formats([])
        stats.apply_format(nominal)
        mappings = dict(session.catalog.mappings())
        mappings[dname] = nominal.mapping()
        options = dict(session.optimizer_options)
        options.update(view.statement.optimizer_options)
        optimization = Optimizer(stats, **options).optimize(
            program, mappings, method=view.statement.method)
        env = dict(session.environment())
        env.update(nominal.physical())
        engine = ExecutionEngine(env=env, backend=view.statement.backend,
                                 cache=session.cache)
        prepared = engine.prepare(optimization.plan)
        return DeltaPlan(tensor, dname, program, optimization, prepared, schema,
                         symbols=tuple(sorted(symbols(optimization.plan))))

    def _delta_pays(self, view: MaterializedView, plan: DeltaPlan,
                    delta_fmt: COOFormat, old_fmt, delta_stats) -> bool:
        if plan.trivial:
            return True
        if delta_fmt.nnz > self.max_delta_fraction * max(old_fmt.nnz, 1):
            return False
        return plan.price(delta_stats) <= self.fallback_ratio * view.statement.optimization.cost

    @staticmethod
    def _add_delta(view: MaterializedView, delta: Any) -> Any:
        """``view._result ⊕ delta``, staying in buffer form when both sides are."""
        old = view._result
        if (isinstance(old, BufferDict) and isinstance(delta, BufferDict)
                and old.is_root and delta.is_root):
            merged = old.levels.merge(delta.levels)
            if merged is not None:
                return BufferDict(merged)
        if is_dictlike(old) and is_dictlike(delta):
            view.merge_fallbacks += 1
            _log.debug("view %r: %s + %s is not a buffer merge, adding entry by "
                       "entry", view.name, type(old).__name__, type(delta).__name__)
        return v_add(old, delta)

    # -- maintenance -----------------------------------------------------------

    def update(self, name: str, coords, values) -> None:
        """Apply a sparse point-update and maintain every registered view.

        Delta-maintained results are computed against the pre-update state
        and the catalog update is applied (value-only epoch bump), both
        under the session lock; fallback views are then re-executed in full
        as ordinary statement executions (on a server, through its gate),
        and everything is installed atomically w.r.t. view reads.
        """
        session = self.session
        start = time.perf_counter()
        with self._lock:
            with session._lock:
                catalog = session.catalog
                old_fmt = catalog.tensors.get(name)
                if old_fmt is None:
                    raise StorageError(
                        f"cannot update {name!r}: not a registered tensor")
                delta_fmt = COOFormat(delta_symbol(name), coords, values,
                                      old_fmt.shape)
                epochs_before = catalog.epochs()
                # The delta's statistics and environment: one of each per update.
                delta_stats = session.statistics().with_formats([])
                delta_stats.apply_format(delta_fmt)
                delta_env = session.environment().bind(
                    delta_fmt.physical(), delta_fmt.facts().values())
                staged: dict[str, Any] = {}
                pending_full: list[MaterializedView] = []
                for view in self._views.values():
                    fresh = (view._version, view._schema_version) == epochs_before
                    plan = self.delta_plan(view, name) if fresh else None
                    if plan is None or not self._delta_pays(view, plan, delta_fmt,
                                                            old_fmt, delta_stats):
                        _log.debug(
                            "view %r: full refresh instead of a delta on %r (%s)",
                            view.name, name,
                            "stale view" if not fresh else
                            "no delta plan" if plan is None else "delta does not pay")
                        pending_full.append(view)
                    elif plan.trivial:
                        staged[view.name] = view._result
                    else:
                        staged[view.name] = self._add_delta(
                            view, plan.prepared.run(delta_env))
                session._apply_update(name, delta_fmt.coords, delta_fmt.values)
                epochs = catalog.epochs()
            for view in pending_full:
                self._refresh_full(view)
            for view_name, result in staged.items():
                view = self._views[view_name]
                view._result = result
                view._version, view._schema_version = epochs
                view.delta_refreshes += 1
        if self.on_maintenance is not None:
            self.on_maintenance(len(staged), len(pending_full),
                                time.perf_counter() - start)
