"""Delta-debugging shrinker for divergent fuzz cases.

A raw divergence from :func:`repro.fuzz.oracle.campaign` is rarely readable:
a 40-node program over three tensors in exotic formats, behind five updates.
This module minimizes it while preserving the failure, using the oracle
itself as the test predicate — a candidate reduction is kept only if the
*shrunk* case still diverges under the same (method, backend) pair and at
the same step of its update sequence (a reduction that makes the reference
fail, e.g. by unbinding a variable, self-rejects; one under which an update
itself raises does not count unless the original failure was one).

Passes, under a global evaluation budget:

1. **updates** (first, once) — whole updates dropped, newest first, to a
   fixed point, then single entries of sparse point-updates;

then, iterated to a fixed point:

2. **program** — every subexpression is tentatively replaced by one of its
   own children (hoisting) or by ``0`` / ``1``;
3. **tensor data** — whole tensors zeroed, then single non-zero entries
   zeroed, then surviving values snapped to ``1.0``;
4. **scalars** — snapped to ``1.0`` / ``0.0``;
5. **formats** — swapped to ``dense`` (keeping the failure format-specific
   only when it really is);
6. **garbage collection** — tensors and scalars neither the program nor an
   update references are dropped.

Concurrent cases are returned as found: their reads race a writer, so
"still fails" is a property of the schedule, not of the case.

The result plugs into :func:`repro.fuzz.corpus.write_corpus_case`, which
serializes it as a self-contained, replayable regression test.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from ..sdqlite.ast import Const, Expr, children, node_count, rebuild, symbols
from .oracle import CaseSkipped, Divergence, FuzzCase, OracleConfig, check_case


def narrow_config(config: OracleConfig, divergence: Divergence) -> OracleConfig:
    """Restrict ``config`` to the reference plus the one diverging pair
    (all of ``config``'s pairs when an update itself raised)."""
    if divergence.method == "*":
        return config
    methods = ("unoptimized",)
    if divergence.method != "unoptimized":
        methods = methods + (divergence.method,)
    return OracleConfig(backends=(divergence.backend,), methods=methods,
                        optimizer_options=dict(config.optimizer_options),
                        rel_tol=config.rel_tol, abs_tol=config.abs_tol)


# ---------------------------------------------------------------------------
# AST surgery
# ---------------------------------------------------------------------------


def _paths(expr: Expr, prefix: tuple[int, ...] = ()) -> list[tuple[tuple[int, ...], Expr]]:
    """Breadth-ish enumeration of (path, node); shallow nodes first."""
    out = [(prefix, expr)]
    for index, child in enumerate(children(expr)):
        out.extend(_paths(child, prefix + (index,)))
    out.sort(key=lambda item: len(item[0]))
    return out


def _replace_at(expr: Expr, path: tuple[int, ...], replacement: Expr) -> Expr:
    if not path:
        return replacement
    kids = list(children(expr))
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], replacement)
    return rebuild(expr, kids)


# ---------------------------------------------------------------------------
# the shrinking loop
# ---------------------------------------------------------------------------


class _Budget:
    def __init__(self, evaluations: int):
        self.remaining = evaluations

    def spend(self) -> bool:
        if self.remaining <= 0:
            return False
        self.remaining -= 1
        return True


def _still_fails(case: FuzzCase, config: OracleConfig, budget: _Budget,
                 original: Divergence, step: int | None) -> bool:
    """Whether ``case`` diverges at the original pair and at ``step``."""
    if not budget.spend():
        return False
    try:
        found = check_case(case, config)
    except CaseSkipped:
        return False
    return (found is not None and (found.method, found.backend, found.step)
            == (original.method, original.backend, step))


def _shrink_updates(case: FuzzCase, step: int | None,
                    fails: Callable[[FuzzCase, int | None], bool]) -> tuple[FuzzCase, int | None]:
    """Drop whole updates (newest first) to a fixed point, then single
    entries of point-updates.  Dropping an update at or before the failing
    step moves the failure one step earlier."""
    changed = True
    while changed:
        changed = False
        for index in range(len(case.updates) - 1, -1, -1):
            moved = step - 1 if step is not None and index <= step else step
            attempt = case.replace(updates=case.updates[:index] + case.updates[index + 1:])
            if fails(attempt, moved):
                case, step, changed = attempt, moved, True
    for index in range(len(case.updates)):
        for position in range(len(case.updates[index].coords) - 1, -1, -1):
            update = case.updates[index]
            if len(update.coords) <= 1:
                break
            slim = dataclasses.replace(
                update, coords=update.coords[:position] + update.coords[position + 1:],
                values=update.values[:position] + update.values[position + 1:])
            attempt = case.replace(
                updates=case.updates[:index] + (slim,) + case.updates[index + 1:])
            if fails(attempt, step):
                case = attempt
    return case, step


def _shrink_program(case: FuzzCase, fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    changed = True
    while changed:
        changed = False
        for path, node in _paths(case.program):
            candidates: list[Expr] = [child for child in children(node)]
            if not isinstance(node, Const):
                candidates.extend([Const(0), Const(1)])
            for candidate in candidates:
                if candidate == node:
                    continue
                shrunk = _replace_at(case.program, path, candidate)
                if node_count(shrunk) >= node_count(case.program):
                    continue
                attempt = case.replace(program=shrunk)
                if fails(attempt):
                    case = attempt
                    changed = True
                    break
            if changed:
                break
    return case


def _shrink_tensors(case: FuzzCase, fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    for name in list(case.tensors):
        array = case.tensors[name]
        zeroed = case.replace(tensors={**case.tensors,
                                       name: np.zeros_like(array)})
        if fails(zeroed):
            case = zeroed
            continue
        # Zero out individual entries, then snap survivors to 1.0.
        current = np.array(array, dtype=np.float64)
        for coordinate in np.argwhere(current != 0)[:32]:
            attempt_array = np.array(current)
            attempt_array[tuple(coordinate)] = 0.0
            attempt = case.replace(tensors={**case.tensors, name: attempt_array})
            if fails(attempt):
                current = attempt_array
                case = attempt
        ones = np.array(current)
        ones[ones != 0] = 1.0
        attempt = case.replace(tensors={**case.tensors, name: ones})
        if fails(attempt):
            case = attempt
    return case


def _shrink_scalars(case: FuzzCase, fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    for name in list(case.scalars):
        for value in (1.0, 0.0):
            if case.scalars[name] == value:
                continue
            attempt = case.replace(scalars={**case.scalars, name: value})
            if fails(attempt):
                case = attempt
                break
    return case


def _shrink_formats(case: FuzzCase, fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    for name, fmt in list(case.formats.items()):
        if fmt == "dense":
            continue
        attempt = case.replace(formats={**case.formats, name: "dense"})
        if fails(attempt):
            case = attempt
    return case


def _drop_unreferenced(case: FuzzCase, fails: Callable[[FuzzCase], bool]) -> FuzzCase:
    referenced = symbols(case.program) | {update.name for update in case.updates}
    tensors = {name: array for name, array in case.tensors.items()
               if name in referenced}
    scalars = {name: value for name, value in case.scalars.items()
               if name in referenced}
    if len(tensors) == len(case.tensors) and len(scalars) == len(case.scalars):
        return case
    attempt = case.replace(tensors=tensors,
                           formats={name: case.formats[name] for name in tensors},
                           scalars=scalars)
    return attempt if fails(attempt) else case


def shrink_case(divergence: Divergence, config: OracleConfig | None = None, *,
                max_evaluations: int = 600) -> Divergence:
    """Minimize a divergent case; returns the re-checked, shrunk divergence.

    The predicate is "still diverges under the original failing
    (method, backend) pair, at the same step"; ``max_evaluations`` bounds
    the number of oracle executions spent.  If shrinking loses the failure
    (e.g. a flaky budget exhaustion), the original divergence is returned
    unchanged; so is a concurrent case's.
    """
    if divergence.case.concurrent:
        return divergence
    narrow = narrow_config(config or OracleConfig(), divergence)
    budget = _Budget(max_evaluations)
    case, step = _shrink_updates(
        divergence.case, divergence.step,
        lambda attempt, at: _still_fails(attempt, narrow, budget, divergence, at))
    fails = lambda attempt: _still_fails(attempt, narrow, budget, divergence, step)  # noqa: E731

    previous_size = None
    while previous_size != node_count(case.program):
        previous_size = node_count(case.program)
        case = _shrink_program(case, fails)
        case = _shrink_tensors(case, fails)
        case = _shrink_scalars(case, fails)
        case = _shrink_formats(case, fails)
        case = _drop_unreferenced(case, fails)
        if budget.remaining <= 0:
            break
    try:
        shrunk = check_case(case, narrow)
    except CaseSkipped:
        shrunk = None
    return shrunk if shrunk is not None else divergence
