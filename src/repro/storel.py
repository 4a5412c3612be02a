"""High-level convenience API: run an SDQLite tensor program end to end.

This is the "one call" interface used by the examples and the quickstart in
the README::

    import numpy as np
    from repro import storel
    from repro.storage import Catalog, CSRFormat, DenseFormat

    catalog = (Catalog()
               .add(CSRFormat.from_dense("A", A))
               .add(DenseFormat.from_dense("X", x))
               .add_scalar("beta", 2.0))
    result = storel.run(
        "sum(<(i,j), a> in A, <k, x> in X) if (j == k) then { i -> beta * a * x }",
        catalog)

Every function here is a thin wrapper over a throwaway
:class:`repro.session.Session`, so all entry points share one pipeline:
parse, derive statistics from the catalog, run the cost-based optimizer,
lower the chosen plan on the selected execution backend
(``backend="typed"`` by default; ``"interpret"``, the reference
interpreter, is the alternative — see ``docs/backends.md``), execute, and
return the result (a scalar or a nested dict, or a dense NumPy array when
``dense_shape`` is given).  Lowered plans are cached process-wide, so
repeated calls with the same plan shape skip re-lowering — but each call still pays for parsing,
statistics and optimization.  When the same program runs many times over one
catalog, hold a :class:`~repro.session.Session` open and use
:meth:`~repro.session.Session.prepare` instead (see ``docs/api.md``).
"""

from __future__ import annotations

from typing import Any, Mapping

from .sdqlite.ast import Expr
from .session import RunOutcome, Session
from .storage.catalog import Catalog

__all__ = ["RunOutcome", "advise", "run", "run_detailed", "explain"]


def run_detailed(program: "str | Expr", catalog: Catalog, *, method: str = "greedy",
                 backend: str = "typed", dense_shape: tuple[int, ...] | None = None,
                 optimizer_options: Mapping[str, Any] | None = None) -> RunOutcome:
    """Optimize and execute ``program`` over ``catalog``; return value and plan details.

    Parameters
    ----------
    program:
        SDQLite source text or a parsed expression over logical tensor names.
    catalog:
        The registered tensors (storage formats + statistics) and scalars.
    method:
        Optimization method: ``"greedy"`` (cheapest strategy-generated
        candidate, fast) or ``"egraph"`` (full two-stage equality
        saturation).
    backend:
        Execution backend: ``"typed"`` (batched kernels over flat typed
        buffers, default) or ``"interpret"`` (reference interpreter); any
        other name raises :class:`~repro.sdqlite.errors.ExecutionError`
        before anything is optimized.
    dense_shape:
        When given, the result is densified into a NumPy array (or scalar)
        of this shape.
    optimizer_options:
        Extra keyword arguments forwarded to
        :class:`~repro.core.optimizer.Optimizer` (e.g. ``iter_limit``).
    """
    return Session(catalog, method=method, backend=backend).run_detailed(
        program, dense_shape=dense_shape, optimizer_options=optimizer_options)


def run(program: "str | Expr", catalog: Catalog, *, method: str = "greedy",
        backend: str = "typed", dense_shape: tuple[int, ...] | None = None,
        optimizer_options: Mapping[str, Any] | None = None) -> Any:
    """Optimize and execute ``program`` over ``catalog``; return just the value.

    ``backend`` selects the execution backend — ``"typed"`` (default) or
    ``"interpret"``; ``optimizer_options`` forwards
    :class:`~repro.core.optimizer.Optimizer` keyword arguments (the
    iteration / node / time / match limits); see :func:`run_detailed` for
    all parameters.
    """
    return run_detailed(program, catalog, method=method, backend=backend,
                        dense_shape=dense_shape,
                        optimizer_options=optimizer_options).result


def advise(programs, catalog: Catalog, *, apply: bool = False, **kwargs):
    """One-shot workload-driven format advice: which storage should these tensors use?

    ``programs`` is the workload — one SDQLite program, a list of programs,
    ``(program, weight)`` pairs, or :class:`repro.advisor.WorkloadQuery`
    rows.  Enumerates the storage formats that can legally hold each
    referenced tensor, estimates every program's optimized plan cost under
    each candidate configuration (the paper's Sec. 5 cost model), and
    returns a ranked :class:`repro.advisor.Recommendation`.  With
    ``apply=True`` the top recommendation is additionally executed against
    ``catalog`` in place (tensors re-stored via ``storage.convert``, catalog
    epochs bumped).  Keyword arguments are forwarded to
    :meth:`repro.session.Session.advise` (e.g. ``measure=True`` to validate
    the top-k estimates with real executions).

    Example::

        recommendation = storel.advise(program, catalog, measure=True)
        print(recommendation.summary())
    """
    session = Session(catalog)
    recommendation = session.advise(programs, **kwargs)
    if apply:
        session.apply_recommendation(recommendation)
    return recommendation


def explain(program: "str | Expr", catalog: Catalog, *, method: str = "greedy",
            optimizer_options: Mapping[str, Any] | None = None) -> str:
    """Return a human-readable description of the plan STOREL chooses.

    Routed through the same session pipeline as :func:`run`, so it accepts
    (and honours) the same ``optimizer_options``.
    """
    return Session(catalog, method=method).explain(
        program, optimizer_options=optimizer_options)
