"""The differential oracle: one case model, one check, one reference.

The paper's central equivalence claim is that the *same* tensor program
produces the *same* result under any storage format and any execution
strategy — only cost differs.  This module checks that claim mechanically on
machine-generated scenarios:

* a :class:`FuzzCase` is one sampled point — a generated program
  (:mod:`repro.fuzz.genprog`), fabricated tensor data and a legal per-tensor
  format assignment (:mod:`repro.fuzz.gendata`), the scalar bindings, an
  optional sequence of catalog :class:`Update` s (scalar re-binds, data
  replacements, re-formats, sparse point-updates) and three switches:
  ``concurrent`` readers, maintained ``views`` and ``feedback``
  (always-profiling adaptive re-optimization);
* :func:`check_case` runs the case against one reference — the composed
  plan on the interpreter, evaluated at every prefix state of the update
  sequence.  A plain case runs every (method, backend) pair — the composed
  plan (``unoptimized``), the greedy strategy picker (``greedy``) and
  equality saturation (``egraph``) on ``interpret`` and ``typed`` — through
  one :class:`~repro.session.Session`.  With a switch on, the pairs are read
  through what the switch names: materialized views on a
  :class:`~repro.serving.Server` whose registry is forced onto the delta
  path, prepared statements under the feedback loop, served statements
  polled by reader threads.  Updates go through the session's public
  mutators.  A concurrent read must equal *some* prefix state (its
  linearization witness); every other read must equal the state at its
  exact step;
* :func:`campaign` drives a seeded run of many cases, shrinking and
  serializing any divergence into a replayable corpus file
  (:mod:`repro.fuzz.shrink` / :mod:`repro.fuzz.corpus`), and keeps a census
  of the loops ``typed`` ran as Python loops instead of kernels, by reason.

Value normalization and comparison live *here*, in exactly one place
(:func:`canonical` / :func:`results_match`): results are reduced to plain
nested dicts with near-zero entries pruned, and compared with float
tolerance treating a missing key as zero — so a backend materializing an
explicit ``1e-17`` where another prunes an exact ``0.0`` does not produce a
spurious divergence, while any structural or numeric disagreement beyond
rounding does.
"""

from __future__ import annotations

import dataclasses
import random
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Iterable, Mapping

import numpy as np

from ..core import compose
from ..execution.engine import BACKENDS, ExecutionEngine
from ..sdqlite.ast import Expr
from ..sdqlite.debruijn import to_debruijn_safe
from ..sdqlite.pretty import to_source
from ..sdqlite.values import is_scalar, scalars_close, to_plain
from ..session import Session
from .gendata import (
    assign_formats,
    build_catalog,
    generate_scalars,
    legal_format_names,
    materialize_schema,
)
from .genprog import generate_program, generate_schema

#: The configuration every other one is compared against: the naive composed
#: plan, executed by the reference interpreter.
REFERENCE = ("unoptimized", "interpret")

#: The methods a configuration may name: the composed plan and the two
#: optimizer methods.
METHODS = ("unoptimized", "greedy", "egraph")

#: Saturation limits used during fuzzing: small enough that the e-graph
#: keeps up with thousands of generated programs, large enough that the
#: rewrite rules genuinely fire.  The *time* limit is deliberately huge:
#: campaigns must be reproducible from their seed alone, so saturation has
#: to stop on the deterministic iteration/node limits, never on wall-clock
#: (a load-dependent stop changes the e-graph, and with it the extracted
#: plan, between two runs of the same seed).
FUZZ_OPTIMIZER_OPTIONS: dict = {
    "iter_limit": 3,
    "node_limit": 800,
    "time_limit": 3600.0,
    "match_limit_per_rule": 64,
}

#: The deliberately aggressive loop configuration the ``feedback`` switch
#: runs under: every execution is profiled and a 5% estimation error already
#: re-optimizes, so mid-case re-preparation — the machinery under test —
#: fires constantly.
ADAPTIVE_FUZZ_FEEDBACK: dict = {"sample_every": 1, "threshold": 1.05}

#: Corpus ``MODE`` names and the :class:`FuzzCase` switch each one sets.
MODES = {"concurrent": "concurrent", "ivm": "views", "adaptive": "feedback"}

#: How many optimized pairs get a materialized view / a prepared statement.
MAX_VIEWS = 3
MAX_STATEMENTS = 4

#: Seconds the writer of a concurrent case sleeps before each update.
WRITER_DELAY = 0.002


class CaseSkipped(Exception):
    """Raised when the *reference* execution of a case fails.

    The generator aims never to produce such programs; the campaign counts
    these separately instead of reporting a divergence, because with no
    reference value there is nothing to differ from.
    """


@dataclass(frozen=True)
class Update:
    """One serialized catalog mutation of a fuzz case.

    ``kind`` is one of:

    * ``"set_scalar"`` — re-bind scalar ``name`` to ``value`` (value-only);
    * ``"replace"``    — re-store tensor ``name`` with *new data* (the old
      dense data scaled by ``value``) in format ``fmt`` (schema bump);
    * ``"reformat"``   — re-store tensor ``name`` in format ``fmt`` with
      unchanged data (schema bump, result-preserving);
    * ``"delta"``      — add ``values`` at the integer ``coords`` of tensor
      ``name`` (a sparse point-update, value-only; maintains views).
    """

    kind: str
    name: str
    value: float | None = None
    fmt: str | None = None
    coords: tuple[tuple[int, ...], ...] = ()
    values: tuple[float, ...] = ()

    def as_dict(self) -> dict:
        if self.kind == "delta":
            return {"kind": "delta", "name": self.name,
                    "coords": [list(coord) for coord in self.coords],
                    "values": list(self.values)}
        out = {"kind": self.kind, "name": self.name}
        if self.value is not None:
            out["value"] = self.value
        if self.fmt is not None:
            out["fmt"] = self.fmt
        return out

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "Update":
        """The inverse of :meth:`as_dict`; a spec without ``kind`` is a delta."""
        return cls(kind=spec.get("kind", "delta"), name=spec["name"],
                   value=spec.get("value"), fmt=spec.get("fmt"),
                   coords=tuple(tuple(int(c) for c in coord)
                                for coord in spec.get("coords", ())),
                   values=tuple(float(v) for v in spec.get("values", ())))

    def apply(self, state: "FuzzCase") -> "FuzzCase":
        """The successor state (functional — ``state`` is not modified)."""
        if self.kind == "set_scalar":
            return state.replace(scalars={**state.scalars, self.name: self.value})
        if self.kind == "delta":
            array = np.array(state.tensors[self.name], dtype=np.float64)
            coords = np.asarray(self.coords, dtype=np.int64).reshape(-1, array.ndim)
            np.add.at(array, tuple(coords.T), np.asarray(self.values, dtype=np.float64))
            return state.replace(tensors={**state.tensors, self.name: array})
        if self.kind not in ("replace", "reformat"):
            raise ValueError(f"unknown update kind {self.kind!r}")
        tensors = state.tensors
        if self.kind == "replace":
            tensors = {**tensors, self.name: np.asarray(tensors[self.name]) * self.value}
        return state.replace(tensors=tensors, formats={**state.formats, self.name: self.fmt})

    def apply_live(self, session: Session, state: "FuzzCase") -> "FuzzCase":
        """Apply to a live session through its public mutators; return the
        successor of ``state``."""
        from ..storage.convert import ALL_FORMATS, reformat

        successor = self.apply(state)
        if self.kind == "set_scalar":
            session.set_scalar(self.name, self.value)
        elif self.kind == "replace":
            data = np.asarray(successor.tensors[self.name], dtype=np.float64)
            session.replace_format(ALL_FORMATS[self.fmt].from_dense(self.name, data))
        elif self.kind == "reformat":
            session.replace_format(reformat(session.catalog.tensors[self.name], self.fmt))
        else:
            session.update(self.name, np.asarray(self.coords, dtype=np.int64),
                           np.asarray(self.values, dtype=np.float64))
        return successor


@dataclass
class FuzzCase:
    """One generated point: program × data × formats × updates × switches."""

    seed: int
    program: Expr                      # named-form AST over logical names
    tensors: dict[str, np.ndarray]     # dense data per logical tensor
    formats: dict[str, str]            # format_name per logical tensor
    scalars: dict[str, float]
    updates: tuple[Update, ...] = ()
    concurrent: bool = False           # reader threads race the updates
    views: bool = False                # reads are maintained views
    feedback: bool = False             # reads re-optimize under profiling

    @property
    def source(self) -> str:
        """The program as re-parseable SDQLite source text."""
        return to_source(self.program)

    @property
    def mode(self) -> str:
        """The corpus ``MODE`` of the switches: ``"serial"`` when none is on,
        else the ``+``-joined :data:`MODES` names (``"ivm+adaptive"``)."""
        return "+".join(mode for mode, switch in MODES.items()
                        if getattr(self, switch)) or "serial"

    def replace(self, **changes) -> "FuzzCase":
        """A copy (fresh data dictionaries) with the given fields replaced."""
        return dataclasses.replace(self, **{"tensors": dict(self.tensors),
                                            "formats": dict(self.formats),
                                            "scalars": dict(self.scalars), **changes})


@dataclass(frozen=True)
class OracleConfig:
    """Which (method, backend) pairs to run and how to compare results."""

    backends: tuple[str, ...] = BACKENDS
    methods: tuple[str, ...] = METHODS
    optimizer_options: Mapping[str, Any] = field(
        default_factory=lambda: dict(FUZZ_OPTIMIZER_OPTIONS))
    rel_tol: float = 1e-6
    abs_tol: float = 1e-9

    def pairs(self) -> list[tuple[str, str]]:
        """The full method × backend grid, reference excluded."""
        grid = [(method, backend) for method in self.methods
                for backend in self.backends]
        return [pair for pair in grid if pair != REFERENCE]

    def optimized_pairs(self) -> list[tuple[str, str]]:
        """The pairs a case with a switch on reads through.

        Those go through a :class:`~repro.serving.Server` or a
        :class:`~repro.session.Session`, which only run optimized plans;
        never empty.
        """
        pairs = [pair for pair in self.pairs() if pair[0] != "unoptimized"]
        return pairs or [("greedy", "typed")]


@dataclass
class Divergence:
    """The first disagreement found for a case.

    ``step`` is the update index after which it was observed (``-1``:
    before any update; ``None``: a concurrent read, which has no step, and
    whose ``expected`` lists every prefix state's result); ``execution`` is
    the repeat at that state (re-preparation typically happens *between*
    repeats, so a failure at ``execution > 0`` points at a re-optimized
    plan).  ``method`` and ``backend`` are ``"*"`` when an update itself
    raised.
    """

    case: FuzzCase
    method: str
    backend: str
    expected: Any = None
    actual: Any = None
    error: str | None = None
    step: int | None = None
    execution: int | None = None

    def describe(self) -> str:
        case = self.case
        head = f"seed={case.seed} {case.mode} {self.method}/{self.backend}"
        if self.step is not None and (case.updates or case.mode != "serial"):
            head += f" step={self.step}"
        if self.execution:
            head += f" execution={self.execution}"
        head += f" formats={case.formats}"
        if case.updates:
            head += f" updates={[update.as_dict() for update in case.updates]}"
        if self.error is not None:
            return f"{head}\n  raised: {self.error}\n  program: {case.source}"
        expected = "one of" if self.step is None and case.concurrent else "expected"
        return (f"{head}\n  {expected}: {self.expected!r}\n  actual:   "
                f"{self.actual!r}\n  program: {case.source}")


# ---------------------------------------------------------------------------
# case and update generation
# ---------------------------------------------------------------------------


def generate_case(seed: int, *, fuel: int = 14, max_tensors: int = 3,
                  max_rank: int = 3, max_dim: int = 5,
                  weird_key_chance: float = 0.05) -> FuzzCase:
    """Generate one case; everything derives from the single ``seed``."""
    rng = random.Random(seed)
    schema = generate_schema(rng, max_tensors=max_tensors, max_rank=max_rank,
                             max_dim=max_dim)
    program = generate_program(schema, rng, fuel=fuel,
                               weird_key_chance=weird_key_chance)
    np_rng = np.random.default_rng(rng.getrandbits(64))
    tensors = materialize_schema(schema, np_rng)
    formats = assign_formats(tensors, rng)
    scalars = generate_scalars(schema, rng)
    return FuzzCase(seed=seed, program=program, tensors=tensors,
                    formats=formats, scalars=scalars)


def generate_updates(case: FuzzCase, rng: random.Random, count: int, *,
                     delta: bool = False, max_entries: int = 3) -> list[Update]:
    """A random, serially-applicable update sequence for ``case``.

    Catalog updates by default — a scalar re-bind, a data replacement or a
    re-format, drawn uniformly from the kinds the state allows.  With
    ``delta=True``, sparse point-updates of up to ``max_entries`` entries
    instead: updates to tensors stored in a *structural* special format are
    restricted to the tensor's current non-zero support, so the format's
    precondition (e.g. lower-triangularity) survives every update; general
    formats mix on-support increments, exact cancellations (an entry driven
    to precisely zero — a deletion, exercising the ring's subtraction), and
    fresh off-support insertions.
    """
    updates: list[Update] = []
    state = case
    for _ in range(count):
        if not state.tensors and (delta or not state.scalars):
            break
        update = (_draw_delta(state, rng, max_entries) if delta
                  else _draw_catalog_update(state, rng))
        if update is not None:
            updates.append(update)
            state = update.apply(state)
    return updates


def _draw_catalog_update(state: FuzzCase, rng: random.Random) -> Update:
    kinds = (["set_scalar"] if state.scalars else []) + (
        ["replace", "reformat"] if state.tensors else [])
    kind = rng.choice(kinds)
    if kind == "set_scalar":
        name = rng.choice(sorted(state.scalars))
        return Update("set_scalar", name, value=round(rng.uniform(-4.0, 4.0), 3))
    name = rng.choice(sorted(state.tensors))
    legal = legal_format_names(np.asarray(state.tensors[name]))
    if kind == "replace":
        # Scaling preserves the sparsity structure, so every format that was
        # legal (including structural special formats) stays legal.
        scale = round(rng.choice([0.5, 0.75, 1.25, 1.5, 2.0]), 3)
        return Update("replace", name, value=scale, fmt=rng.choice(legal))
    others = [fmt for fmt in legal if fmt != state.formats[name]] or legal
    return Update("reformat", name, fmt=rng.choice(others))


def _draw_delta(state: FuzzCase, rng: random.Random, max_entries: int) -> Update | None:
    """One sparse point-update, or ``None`` when the drawn tensor has no
    coordinate it may legally touch."""
    from ..storage.special import SPECIAL_FORMATS

    name = rng.choice(sorted(state.tensors))
    array = np.asarray(state.tensors[name], dtype=np.float64)
    special = state.formats.get(name) in SPECIAL_FORMATS
    support = np.argwhere(array != 0)
    if special and not len(support):
        return None
    entries: dict[tuple[int, ...], float] = {}
    for _ in range(rng.randint(1, max_entries)):
        if len(support) and (special or rng.random() < 0.4):
            coord = tuple(int(c) for c in support[rng.randrange(len(support))])
        else:
            coord = tuple(rng.randrange(extent) for extent in array.shape)
        if rng.random() < 0.25 and array[coord] != 0:
            value = -float(array[coord])  # exact cancellation: a deletion
        else:
            value = rng.choice([0.5, 1.0, 2.0, -0.5, -1.0, -2.0])
        entries[coord] = entries.get(coord, 0.0) + value
    return Update("delta", name, coords=tuple(entries), values=tuple(entries.values()))


#: How a campaign draws a case's updates, by the first switch that is on:
#: ``(switch, seed salt, sparse deltas?, updates per case)``.  The salts
#: keep each mode's update sequences what they were when the modes were
#: separate campaigns, so the same command generates the same cases.
UPDATE_DRAWS = (("concurrent", 0x5EEDC0DE, False, 5),
                ("views", 0x1D3A5EED, True, 4),
                ("feedback", 0x0ADA9FED, True, 3))


def _draw_updates(case: FuzzCase, count: int | None) -> FuzzCase:
    for switch, salt, delta, default in UPDATE_DRAWS:
        if getattr(case, switch):
            rng = random.Random(case.seed ^ salt)
            updates = generate_updates(case, rng, default if count is None else count,
                                       delta=delta)
            return case.replace(updates=tuple(updates))
    return case


# ---------------------------------------------------------------------------
# canonical value normalization (the oracle's single comparison layer)
# ---------------------------------------------------------------------------


def canonical(value: Any, *, abs_tol: float = 1e-9) -> Any:
    """Reduce an execution result to a canonical plain form.

    Plain Python numbers and nested dicts (via
    :func:`~repro.sdqlite.values.to_plain`), with entries whose canonical
    value is zero — below ``abs_tol`` for scalars, empty for dictionaries —
    pruned recursively, so explicit near-zeros cannot distinguish two
    otherwise equal results.  A NaN entry is not zero and stays.
    """
    plain = to_plain(value)
    return _prune(plain, abs_tol)


def _prune(plain: Any, abs_tol: float) -> Any:
    if isinstance(plain, dict):
        out = {}
        for key, item in plain.items():
            pruned = _prune(item, abs_tol)
            if isinstance(pruned, dict):
                if pruned:
                    out[key] = pruned
            elif not abs(pruned) <= abs_tol:    # keeps NaN
                out[key] = pruned
        return out
    if isinstance(plain, bool):
        return int(plain)
    return plain


def results_match(left: Any, right: Any, *, rel_tol: float = 1e-6,
                  abs_tol: float = 1e-9) -> bool:
    """Tolerant structural equality of two canonical results.

    Missing dictionary keys count as zero, and a scalar ``~0`` equals an
    empty dictionary (SDQLite identifies the two).
    """
    left_scalar = is_scalar(left)
    right_scalar = is_scalar(right)
    if left_scalar and right_scalar:
        return scalars_close(left, right, rel_tol, abs_tol)
    if left_scalar:
        return abs(left) <= abs_tol and _effectively_zero(right, abs_tol)
    if right_scalar:
        return abs(right) <= abs_tol and _effectively_zero(left, abs_tol)
    keys = set(left) | set(right)
    return all(results_match(left.get(key, 0), right.get(key, 0),
                             rel_tol=rel_tol, abs_tol=abs_tol)
               for key in keys)


def _effectively_zero(value: Any, abs_tol: float) -> bool:
    if is_scalar(value):
        return abs(value) <= abs_tol
    return all(_effectively_zero(item, abs_tol) for item in value.values())


# ---------------------------------------------------------------------------
# the check
# ---------------------------------------------------------------------------


def _run_composed(catalog, program: Expr, backend: str, stats: dict | None = None) -> Any:
    """The naive composed plan of ``program`` over ``catalog``, no optimizer."""
    mappings = {name: to_debruijn_safe(mapping)
                for name, mapping in catalog.mappings().items()}
    plan = compose(to_debruijn_safe(program), mappings)
    return ExecutionEngine.for_catalog(catalog, backend=backend).prepare(plan).run(stats=stats)


def _state_results(case: FuzzCase, config: OracleConfig) -> list[Any]:
    """The reference result at every prefix state s0..sm of the updates."""
    expected = []
    state = case
    for step in range(-1, len(case.updates)):
        if step >= 0:
            state = case.updates[step].apply(state)
        catalog = build_catalog(state.tensors, state.formats, state.scalars)
        try:
            result = _run_composed(catalog, state.program, REFERENCE[1])
        except Exception as exc:  # noqa: BLE001 - no reference, no signal
            raise CaseSkipped(f"reference execution failed at step {step}: {exc!r}") from exc
        expected.append(canonical(result, abs_tol=config.abs_tol))
    return expected


def _open_session(case: FuzzCase, config: OracleConfig) -> Session:
    """The live session a check reads through: a gated
    :class:`~repro.serving.Server` for concurrent readers and for views,
    a plain :class:`~repro.session.Session` otherwise."""
    from ..serving import Server

    catalog = build_catalog(case.tensors, case.formats, case.scalars)
    session = (Server if case.concurrent or case.views else Session)(
        catalog, optimizer_options=dict(config.optimizer_options))
    if case.feedback:
        session.enable_feedback(**ADAPTIVE_FUZZ_FEEDBACK)
    if case.views:
        # Correctness must hold on *both* refresh paths; forcing the delta
        # path maximizes coverage of the delta machinery (the full-refresh
        # path is the plain serving pipeline, checked by every other read).
        registry = session.views()
        registry.fallback_ratio = 1e12
        registry.max_delta_fraction = float("inf")
    return session


def _run(session: Session, program: Expr, method: str, backend: str,
         typed_stats: list[dict] | None) -> Any:
    """One plain execution on the session's current catalog."""
    stats: dict = {}
    if method == "unoptimized":
        result = _run_composed(session.catalog, program, backend, stats)
    else:
        outcome = session.run_detailed(program, method=method, backend=backend)
        result, stats = outcome.result, outcome.execution_stats or {}
        if stats:
            stats["collapsed_segments"] = len(outcome.optimization.collapsed_segments)
    if stats and typed_stats is not None:
        typed_stats.append(stats)
    return result


def _readers(session: Session, case: FuzzCase, index: int, method: str, backend: str,
             typed_stats: list[dict] | None) -> list[Callable[[], Any]]:
    """The read functions a check polls for the ``index``-th pair."""
    if case.mode == "serial":
        return [partial(_run, session, case.program, method, backend, typed_stats)]
    reads = []
    if case.views and index < MAX_VIEWS:
        reads.append(session.create_view(f"__view_{index}", case.program,
                                         method=method, backend=backend).value)
    if (case.feedback or case.concurrent) and index < MAX_STATEMENTS:
        reads.append(session.prepare(case.program, method=method, backend=backend).execute)
    return reads


def _error(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _observe(case: FuzzCase, config: OracleConfig, method: str, backend: str,
             read: Callable[[], Any], witnesses: list[Any], step: int | None,
             execution: int) -> Divergence | None:
    """Read once: ``None`` when the result matches one of ``witnesses``,
    else the divergence (a read that raises is one)."""
    try:
        value = canonical(read(), abs_tol=config.abs_tol)
    except Exception as exc:  # noqa: BLE001 - any error is a divergence
        return Divergence(case, method, backend, error=_error(exc), step=step,
                          execution=execution)
    if any(results_match(witness, value, rel_tol=config.rel_tol, abs_tol=config.abs_tol)
           for witness in witnesses):
        return None
    return Divergence(case, method, backend, actual=value, step=step, execution=execution,
                      expected=witnesses if step is None else witnesses[0])


def check_case(case: FuzzCase, config: OracleConfig | None = None,
               typed_stats: list[dict] | None = None, *, readers: int = 3,
               executions: int | None = None) -> Divergence | None:
    """Check ``case`` against the reference; return the first divergence.

    The reference is the composed plan on the interpreter at every prefix
    state of ``case.updates``; :class:`CaseSkipped` is raised when it fails
    at any of them — such a case carries no signal.  What is read, through
    one live session that the updates are applied to:

    * no switch: every pair of ``config.pairs()``, one execution each;
    * ``views``: a materialized view for each of the first
      :data:`MAX_VIEWS` optimized pairs;
    * ``feedback`` / ``concurrent``: a prepared statement for each of the
      first :data:`MAX_STATEMENTS` optimized pairs (served through the gate
      when ``concurrent``).

    Each read runs ``executions`` times per state — by default 4 for
    concurrent readers, 3 under feedback, else 1.  Serially, every read at
    step ``s`` must equal the reference after update ``s``.  With
    ``concurrent``, ``readers`` threads poll the reads (rotating over them)
    while a writer applies the updates, and each result must equal the
    reference at *some* prefix state.  ``typed_stats``, when given,
    receives the execution counters of every plain ``typed`` run.
    """
    config = config or OracleConfig()
    expected = _state_results(case, config)
    if executions is None:
        executions = 4 if case.concurrent else 3 if case.feedback else 1
    session = _open_session(case, config)
    try:
        pairs = config.pairs() if case.mode == "serial" else config.optimized_pairs()
        observers = []
        for index, (method, backend) in enumerate(pairs):
            try:
                observers += [(method, backend, read) for read in
                              _readers(session, case, index, method, backend, typed_stats)]
            except Exception as exc:  # noqa: BLE001 - errors are divergences
                return Divergence(case, method, backend, error=_error(exc), step=-1)
        if case.concurrent:
            return _race(case, config, session, observers, expected, readers, executions)
        state = case
        for step in range(-1, len(case.updates)):
            if step >= 0:
                try:
                    state = case.updates[step].apply_live(session, state)
                except Exception as exc:  # noqa: BLE001
                    return Divergence(case, "*", "*", error=_error(exc), step=step)
            for method, backend, read in observers:
                for execution in range(executions):
                    divergence = _observe(case, config, method, backend, read,
                                          [expected[step + 1]], step, execution)
                    if divergence is not None:
                        return divergence
        return None
    finally:
        session.close()


def _race(case: FuzzCase, config: OracleConfig, session: Session, observers: list,
          expected: list[Any], readers: int, executions: int) -> Divergence | None:
    """Reader threads poll ``observers`` while a writer applies the updates.

    The serving layer promises snapshot isolation, so with a single writer
    every state a snapshot can capture is a prefix state, and every result
    must equal the reference at *some* prefix state — its linearization
    witness.  A result matching none means a reader observed a torn catalog
    (or a cache served a plan across epochs).
    """
    barrier = threading.Barrier(readers + 1)
    divergences: list[Divergence | None] = []
    divergences_lock = threading.Lock()

    def reader(index: int) -> None:
        method, backend, read = observers[index % len(observers)]
        barrier.wait()
        for execution in range(executions):
            found = _observe(case, config, method, backend, read, expected, None, execution)
            with divergences_lock:
                divergences.append(found)

    def writer() -> None:
        state = case
        barrier.wait()
        try:
            for update in case.updates:
                time.sleep(WRITER_DELAY)
                state = update.apply_live(session, state)
        except Exception as exc:  # noqa: BLE001 - a failed update is a divergence
            with divergences_lock:
                divergences.append(Divergence(case, "*", "*", error=_error(exc)))

    threads = [threading.Thread(target=reader, args=(i,), daemon=True)
               for i in range(readers)]
    threads.append(threading.Thread(target=writer, daemon=True))
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120.0)
    if any(thread.is_alive() for thread in threads):
        return Divergence(case, "*", "*", error="deadlock: worker threads did not finish")
    return next((found for found in divergences if found is not None), None)


# ---------------------------------------------------------------------------
# campaigns and replay
# ---------------------------------------------------------------------------


@dataclass
class CampaignReport:
    """Summary of one seeded fuzz run."""

    seed: int
    cases_run: int = 0
    skipped: int = 0
    divergences: list[Divergence] = field(default_factory=list)
    corpus_paths: list[str] = field(default_factory=list)
    elapsed: float = 0.0
    #: Census of the plain ``typed`` runs: ``sum``/``merge`` loops lowered,
    #: how many ran as Python loops instead of kernels, in how many cases,
    #: and why (the ``Untyped`` reason -> loops); and how many checks the
    #: declared facts decided, gathers they turned into slices and sums
    #: answered from a per-segment table (``proven_guards`` /
    #: ``contiguous_reads`` / ``segment_tables``); and how many segment
    #: traversals the optimizer's final pass collapsed into one loop
    #: (``collapsed_segments``).
    typed_loops: int = 0
    fallback_loops: int = 0
    fallback_cases: int = 0
    fallback_reasons: Counter = field(default_factory=Counter)
    proven_guards: int = 0
    contiguous_reads: int = 0
    segment_tables: int = 0
    collapsed_segments: int = 0

    @property
    def ok(self) -> bool:
        return not self.divergences

    def record_typed(self, typed_stats: list[dict]) -> None:
        """Fold one case's ``typed`` execution counters into the census."""
        fallbacks = 0
        for stats in typed_stats:
            self.typed_loops += stats["sum_loops"] + stats["merge_loops"]
            fallbacks += stats["fallback_sums"] + stats["fallback_merges"]
            self.fallback_reasons.update(stats["fallback_reasons"])
            self.proven_guards += stats.get("proven_guards", 0)
            self.contiguous_reads += stats.get("contiguous_reads", 0)
            self.segment_tables += stats.get("segment_tables", 0)
            self.collapsed_segments += stats.get("collapsed_segments", 0)
        self.fallback_loops += fallbacks
        self.fallback_cases += bool(fallbacks)

    def summary(self) -> str:
        status = "OK" if self.ok else f"{len(self.divergences)} DIVERGENCE(S)"
        line = (f"fuzz campaign seed={self.seed}: {self.cases_run} cases, "
                f"{self.skipped} skipped, {status} in {self.elapsed:.1f}s")
        if self.typed_loops:
            reasons = "; ".join(f"{loops} x {reason}" for reason, loops
                                in self.fallback_reasons.most_common())
            line += (f"\ntyped census: {self.fallback_loops} of "
                     f"{self.typed_loops} loops fell back to Python in "
                     f"{self.fallback_cases} case(s), {self.proven_guards} guard(s) "
                     f"proven, {self.contiguous_reads} contiguous read(s), "
                     f"{self.segment_tables} segment table(s), "
                     f"{self.collapsed_segments} collapsed segment traversal(s)"
                     + (f": {reasons}" if reasons else ""))
        return line


def case_seed(master_seed: int, index: int) -> int:
    """The per-case seed of case ``index`` of a campaign (stable contract)."""
    return master_seed * 1_000_000_007 + index


def campaign(seed: int, cases: int, *, config: OracleConfig | None = None,
             concurrent: bool = False, views: bool = False, feedback: bool = False,
             updates_per_case: int | None = None, readers: int = 3,
             executions: int | None = None, shrink: bool = True,
             out_dir: str | None = None, time_budget: float | None = None,
             max_failures: int = 5, progress: bool = False,
             case_options: Mapping[str, Any] | None = None) -> CampaignReport:
    """Run a seeded differential fuzz campaign of ``cases`` generated points.

    Every case gets the given switches and, with one on, an update sequence
    drawn per :data:`UPDATE_DRAWS` (``updates_per_case`` overrides the
    count).  Divergent cases are delta-debugged to a minimal repro
    (``shrink=True``; concurrent cases are kept as found — schedules do not
    delta-debug) and, when ``out_dir`` is given, serialized there as
    self-contained corpus files.  ``time_budget`` (seconds) bounds the
    wall-clock of CI smoke runs; the campaign stops cleanly when exceeded.
    Case generation derives from ``seed`` alone; serial checks replay
    exactly, concurrent ones under any interleaving.
    """
    from .corpus import write_corpus_case
    from .shrink import shrink_case

    config = config or OracleConfig()
    report = CampaignReport(seed=seed)
    start = time.perf_counter()
    options = dict(case_options or {})
    switches = {"concurrent": concurrent, "views": views, "feedback": feedback}
    every = 10 if any(switches.values()) else 50
    for index in range(cases):
        if time_budget is not None and time.perf_counter() - start > time_budget:
            break
        case = generate_case(case_seed(seed, index), **options).replace(**switches)
        case = _draw_updates(case, updates_per_case)
        typed_stats: list[dict] = []
        report.cases_run += 1
        try:
            divergence = check_case(case, config, typed_stats, readers=readers,
                                    executions=executions)
        except CaseSkipped:
            report.skipped += 1
            continue
        report.record_typed(typed_stats)
        if divergence is not None:
            if shrink:
                divergence = shrink_case(divergence, config)
            report.divergences.append(divergence)
            if out_dir is not None:
                report.corpus_paths.append(str(write_corpus_case(divergence, out_dir)))
            if len(report.divergences) >= max_failures:
                break
        if progress and (index + 1) % every == 0:
            print(f"  [{index + 1}/{cases}] {time.perf_counter() - start:.1f}s "
                  f"({report.skipped} skipped, {len(report.divergences)} divergences)")
    report.elapsed = time.perf_counter() - start
    return report


def replay(case: FuzzCase, configs: Iterable[tuple[str, str]] | None = None, *,
           readers: int = 3, executions: int | None = None,
           **tolerances) -> Divergence | None:
    """Re-check a (possibly corpus-loaded) case under the given config pairs."""
    config = OracleConfig(**tolerances)
    if configs:
        configs = list(configs)
        methods = tuple(dict.fromkeys(method for method, _ in configs))
        backends = tuple(dict.fromkeys(backend for _, backend in configs))
        config = dataclasses.replace(config, backends=backends, methods=(
            "unoptimized",) + tuple(m for m in methods if m != "unoptimized"))
    return check_case(case, config, readers=readers, executions=executions)
