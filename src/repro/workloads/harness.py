"""Benchmark harness: build catalogs, run systems, collect timings.

The harness mirrors the paper's methodology (Sec. 6): data loading, format
construction and plan preparation are excluded from the measured time; each
measurement is repeated a configurable number of times and the average is
reported.  Systems that cannot run a configuration (out of memory, missing
sparse rank-3 support) are recorded as such rather than failing the run.

STOREL itself runs on the ``typed`` backend, with the reference interpreter
(``interpret``) beside it; :func:`backend_shootout` runs one kernel/catalog
on both so the executor's speed-up over the semantics oracle can be reported
side by side (``benchmarks/bench_backends.py`` uses it).  Work done on the
first call (one-time caches) is handled by a warmup execution that is timed
separately as ``compile_ms`` and excluded from the steady-state
``mean_ms``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from ..baselines.base import NotSupportedError, System, reference_result
from ..execution.engine import BACKENDS
from ..kernels.programs import Kernel
from ..storage.catalog import Catalog
from ..storage.formats import build_format


@dataclass
class Measurement:
    """One (kernel, dataset, system) timing."""

    kernel: str
    dataset: str
    system: str
    mean_ms: float | None
    runs: int = 0
    status: str = "ok"          # ok | unsupported | error
    detail: str = ""
    correct: bool | None = None
    #: Wall-clock of the warmup execution (first call, which fills one-time
    #: caches); ``None`` when no warmup ran.  Excluded from ``mean_ms``.
    compile_ms: float | None = None
    #: ``typed``'s loop-fallback counters from the warmup run: sums / merges
    #: that executed as Python loops instead of kernels.
    fallback_sums: int | None = None
    fallback_merges: int | None = None
    #: ``typed``'s fact counters from the warmup run: checks the declared
    #: facts decided, and reads they made one slice (see ``TypedPlan``).
    proven_guards: int | None = None
    contiguous_reads: int | None = None

    def as_row(self) -> dict:
        return {
            "kernel": self.kernel,
            "dataset": self.dataset,
            "system": self.system,
            "mean_ms": None if self.mean_ms is None else round(self.mean_ms, 3),
            "compile_ms": None if self.compile_ms is None else round(self.compile_ms, 3),
            "status": self.status,
            "correct": self.correct,
            "fallback_sums": self.fallback_sums,
            "fallback_merges": self.fallback_merges,
            "proven_guards": self.proven_guards,
            "contiguous_reads": self.contiguous_reads,
            "detail": self.detail,
        }


def time_callable(run, repeats: int = 3) -> tuple[float, object]:
    """Average wall-clock milliseconds of ``run()`` over ``repeats`` executions."""
    result = None
    timings = []
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        result = run()
        timings.append((time.perf_counter() - start) * 1_000.0)
    return float(np.mean(timings)), result


def measure(system: System, kernel: Kernel, catalog: Catalog, *, dataset: str = "",
            repeats: int = 3, check: bool = True,
            warmup: bool = True) -> Measurement:
    """Run one system on one kernel / catalog and record the outcome.

    With ``warmup`` (the default) the first execution is timed separately as
    ``compile_ms`` and excluded from the steady-state ``mean_ms`` — that call
    pays one-time caches.  The warmup run also collects the backend's
    loop-fallback counters when the system exposes a
    :class:`~repro.session.Statement`.
    """
    try:
        run = system.prepare(kernel, catalog)
    except NotSupportedError as exc:
        return Measurement(kernel.name, dataset, system.name, None,
                           status="unsupported", detail=str(exc))
    except Exception as exc:  # noqa: BLE001 - harness must keep going
        return Measurement(kernel.name, dataset, system.name, None,
                           status="error", detail=f"{type(exc).__name__}: {exc}")
    try:
        compile_ms: float | None = None
        stats: dict = {}
        if warmup:
            statement = getattr(run, "statement", None)
            start = time.perf_counter()
            if statement is not None:
                statement.execute_with_stats(stats)
            else:
                run()
            compile_ms = (time.perf_counter() - start) * 1_000.0
        mean_ms, result = time_callable(run, repeats)
    except Exception as exc:  # noqa: BLE001
        return Measurement(kernel.name, dataset, system.name, None,
                           status="error", detail=f"{type(exc).__name__}: {exc}")
    correct: bool | None = None
    if check:
        expected = reference_result(kernel, catalog)
        correct = bool(np.allclose(np.asarray(result, dtype=np.float64),
                                   np.asarray(expected, dtype=np.float64),
                                   rtol=1e-6, atol=1e-6))
    return Measurement(kernel.name, dataset, system.name, mean_ms,
                       runs=repeats, correct=correct, compile_ms=compile_ms,
                       fallback_sums=stats.get("fallback_sums"),
                       fallback_merges=stats.get("fallback_merges"),
                       proven_guards=stats.get("proven_guards"),
                       contiguous_reads=stats.get("contiguous_reads"))


def run_matrix(systems: Sequence[System], kernel: Kernel, catalogs: dict[str, Catalog],
               *, repeats: int = 3, check: bool = True) -> list[Measurement]:
    """Cross product of systems × named catalogs for one kernel."""
    measurements = []
    for dataset, catalog in catalogs.items():
        for system in systems:
            measurements.append(
                measure(system, kernel, catalog, dataset=dataset, repeats=repeats, check=check))
    return measurements


def backend_shootout(kernel: Kernel, catalog: Catalog, *,
                     backends: Sequence[str] = BACKENDS, dataset: str = "",
                     method: str = "greedy", repeats: int = 3,
                     check: bool = True) -> list[Measurement]:
    """Measure STOREL on one kernel/catalog across several execution backends.

    ``backends`` is a sequence of backend names out of ``"interpret"`` and
    ``"typed"`` (both by default); each backend yields one
    :class:`Measurement` whose system name is
    ``STOREL[<backend>]``.  One :class:`~repro.session.Session` is shared
    across all backends, so statistics and plan optimization happen once per
    kernel rather than once per backend; as everywhere in the harness, only
    execution is timed.
    """
    from ..baselines.storel_system import StorelSystem
    from ..session import Session

    session = Session(catalog, method=method)
    measurements = []
    for backend in backends:
        system = StorelSystem(method=method, backend=backend,
                              name=f"STOREL[{backend}]", session=session)
        measurements.append(
            measure(system, kernel, catalog, dataset=dataset, repeats=repeats, check=check))
    return measurements


def time_workload(workload, catalog: Catalog, *, method: str = "greedy",
                  backend: str = "typed",
                  optimizer_options: Mapping | None = None) -> float:
    """Seconds for one weighted pass of ``workload`` over ``catalog``.

    ``workload`` is a sequence of :class:`repro.advisor.WorkloadQuery` rows
    (``program`` + ``weight``).  Statements are prepared (and warmed once) on
    a throwaway session before the clock starts, so the pass times
    execution only.
    """
    from ..session import Session

    session = Session(catalog, method=method, backend=backend,
                      optimizer_options=optimizer_options)
    statements = [session.prepare(query.program) for query in workload]
    for statement in statements:
        statement.execute()
    total = 0.0
    for query, statement in zip(workload, statements):
        start = time.perf_counter()
        statement.execute()
        total += query.weight * (time.perf_counter() - start)
    return total


def reformatted_catalog(catalog: Catalog, formats: Mapping[str, str]) -> Catalog:
    """A new catalog with some tensors re-stored per ``{tensor: format_name}``.

    Tensors not named in ``formats`` (and all scalars) are carried over
    unchanged; named tensors are converted with
    :func:`repro.storage.convert.reformat`.  The input catalog is untouched —
    this builds the per-configuration catalogs of :func:`advisor_shootout`.
    """
    from ..storage.convert import reformat

    out = Catalog()
    for name, fmt in catalog.tensors.items():
        kind = formats.get(name)
        out.add(reformat(fmt, kind) if kind is not None else fmt)
    for name, value in catalog.scalars.items():
        out.add_scalar(name, value)
    return out


def advisor_shootout(kernel: Kernel, catalog: Catalog,
                     configurations: Mapping[str, Mapping[str, str]], *,
                     backend: str = "typed", method: str = "greedy",
                     dataset: str = "", repeats: int = 3, rounds: int = 3,
                     check: bool = True) -> list[Measurement]:
    """Measure STOREL on one kernel under several named storage configurations.

    ``configurations`` maps a label to a ``{tensor: format_name}``
    assignment; each configuration is measured on its own re-formatted copy
    of ``catalog`` (conversion excluded from the timed region, like all
    preparation).  The resulting system names are ``STOREL[<label>]`` and
    each measurement's ``detail`` records the concrete formats, so advisor
    picks can be compared side by side with hand-picked configurations —
    ``benchmarks/bench_advisor.py`` uses this as its shootout mode.

    Measurement is **interleaved**: the whole configuration set is measured
    ``rounds`` times round-robin and each configuration keeps its best
    round.  Millisecond-scale pure-Python runs drift with process state
    (heap growth, allocator modes); interleaving means a configuration only
    reports a slow number if it was slow in *every* round, which makes
    cross-configuration comparisons stable.
    """
    from ..baselines.storel_system import StorelSystem

    catalogs = {label: reformatted_catalog(catalog, formats)
                for label, formats in configurations.items()}
    best: dict[str, Measurement] = {}
    for _ in range(max(1, rounds)):
        for label, formats in configurations.items():
            system = StorelSystem(method=method, backend=backend,
                                  name=f"STOREL[{label}]")
            measurement = measure(system, kernel, catalogs[label], dataset=dataset,
                                  repeats=repeats, check=check)
            measurement.detail = ", ".join(
                f"{tensor}:{fmt}" for tensor, fmt in sorted(formats.items()))
            previous = best.get(label)
            if (previous is None or previous.mean_ms is None
                    or (measurement.mean_ms is not None
                        and measurement.mean_ms < previous.mean_ms)):
                best[label] = measurement
    return [best[label] for label in configurations]


def catalog_for_matrices(formats: dict[str, tuple[str, np.ndarray]],
                         scalars: dict[str, float] | None = None) -> Catalog:
    """Build a catalog from ``{tensor: (format_name, dense_array)}``."""
    catalog = Catalog()
    for name, (format_name, dense) in formats.items():
        catalog.add(build_format(format_name, name, dense))
    for name, value in (scalars or {}).items():
        catalog.add_scalar(name, value)
    return catalog
