"""Execution of physical plans over the registered storage.

Two backends (see ``docs/backends.md``):

* ``typed``     — the executor, and the default everywhere
  (:mod:`repro.execution.typed_backend`): whole plans run as batched kernels
  over flat columnar buffers (:mod:`repro.execution.buffers`), with nested
  sums expanding the lane space, merges joining by sorted values and
  nested-dict lookups becoming one composite-key gather or ``searchsorted``,
  whichever the key range makes cheaper; every kernel is NumPy.  A loop it
  cannot batch runs as a Python loop and says why (``fallback_reasons`` in
  the ``stats`` sink).
* ``interpret`` — the reference interpreter (:mod:`repro.sdqlite.interpreter`);
  the executable semantics of SDQLite and the oracle ``typed`` is checked
  against.

Both produce identical values (tested per kernel × format × plan); results
are plain scalars / nested dicts convertible to NumPy arrays via the
``result_to_*`` helpers below.  A caller that wants a dense array passes
``dense_shape`` to :meth:`PreparedPlan.run`, the one dense path: ``typed``
then sums its root reduction straight into the array.

Plan lowering is cached: :class:`ExecutionEngine.prepare` consults a
:class:`PlanCache` (an LRU keyed on backend, plan hash and environment
schema) so that repeated preparation of the same plan — e.g. across
benchmark iterations or repeated :func:`repro.storel.run` calls — skips
re-lowering.  Lowered artifacts are environment-independent, so a cache
hit is always safe: the environment is only bound at
:meth:`PreparedPlan.run` time.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Hashable, Mapping

import numpy as np

from ..sdqlite.ast import Expr
from ..sdqlite.debruijn import to_debruijn_safe
from ..sdqlite.errors import ExecutionError
from ..sdqlite.interpreter import evaluate
from ..sdqlite.values import is_scalar, to_plain
from .buffers import BufferDict
from .profile import sum_sources_of
from .typed_backend import DenseResult, TypedPlan, typed_plan

#: Accepted values of the ``backend`` parameter, everywhere one is taken.
BACKENDS = ("interpret", "typed")


def check_backend(name: str) -> str:
    """Return ``name`` if it is one of :data:`BACKENDS`, else raise.

    Every constructor and per-call ``backend=`` override goes through here,
    so a misspelt backend fails where it was written, before any
    optimization is paid for.
    """
    if name in BACKENDS:
        return name
    hint = ""
    if name in ("compile", "vectorize"):
        hint = (f"; the {name!r} backend was removed in favour of 'typed' "
                "(see docs/backends.md)")
    raise ExecutionError(
        f"unknown execution backend {name!r}; expected one of {BACKENDS}{hint}")


def env_signature(env: Mapping[str, Any]) -> tuple:
    """A hashable schema of an environment: sorted (symbol, type-name) pairs.

    Two environments with the same signature bind the same symbols to values
    of the same physical kinds, so an artifact lowered for one can be reused
    for the other (lowering never inspects the data itself).
    """
    return tuple(sorted((name, type(value).__name__) for name, value in env.items()))


class PlanCache:
    """A small LRU cache of lowered plan artifacts.

    Keys are ``(backend, plan, env_signature)`` — plans are frozen
    dataclasses and hash structurally.  Values are the lowered artifacts
    (:class:`~repro.execution.typed_backend.TypedPlan`), pure functions of
    the plan, so sharing them across environments with the same schema is
    sound.  The environment schema is part of the key by design even though
    today's lowering ignores the environment: it keeps the cache correct if
    a future backend specializes its artifact to the physical kinds of the
    symbols, at the cost of one extra lowering per distinct schema.
    ``hits`` / ``misses`` counters are exposed for tests and benchmark
    reporting.

    All operations are atomic: the cache is shared process-wide (and, through
    the serving layer, across concurrent client threads), so lookup +
    recency-bump, insert + eviction, and the counter updates each happen
    under one internal lock.
    """

    def __init__(self, maxsize: int = 128):
        if maxsize < 1:
            raise ValueError("PlanCache maxsize must be at least 1")
        self.maxsize = maxsize
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: OrderedDict[Hashable, Any] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: Hashable) -> bool:
        with self._lock:
            return key in self._entries

    def get(self, key: Hashable):
        """Return the cached artifact or ``None``; counts a hit or a miss."""
        with self._lock:
            try:
                artifact = self._entries[key]
            except KeyError:
                self.misses += 1
                return None
            self._entries.move_to_end(key)
            self.hits += 1
            return artifact

    def put(self, key: Hashable, artifact: Any) -> None:
        """Insert an artifact, evicting the least recently used beyond maxsize."""
        with self._lock:
            self._entries[key] = artifact
            self._entries.move_to_end(key)
            while len(self._entries) > self.maxsize:
                self._entries.popitem(last=False)
                self.evictions += 1

    def discard(self, key: Hashable) -> None:
        """Evict one entry if present (used to drop plans gone stale).

        Unlike :meth:`get`, a miss here is not counted — discarding an
        already-evicted key is a no-op.
        """
        with self._lock:
            self._entries.pop(key, None)

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._entries.clear()
            self.hits = 0
            self.misses = 0
            self.evictions = 0


#: Process-wide default cache used when an engine is not given its own.
GLOBAL_PLAN_CACHE = PlanCache(maxsize=256)


@dataclass
class ExecutionEngine:
    """Executes physical plans against an environment of physical symbols.

    Parameters
    ----------
    env:
        Mapping from physical symbol names to runtime values (NumPy arrays,
        hash-maps, tries, scalars) — usually ``catalog.globals()``.
    backend:
        One of :data:`BACKENDS`: ``"typed"`` (batched kernels over flat
        typed buffers, the default) or ``"interpret"`` (the reference
        interpreter).  Anything else raises
        :class:`~repro.sdqlite.errors.ExecutionError` here, at construction.
    cache:
        The :class:`PlanCache` to consult when preparing plans; ``None``
        (the default) uses the process-wide :data:`GLOBAL_PLAN_CACHE`.
        Pass a dedicated instance to isolate or inspect caching behaviour.
    """

    env: Mapping[str, Any]
    backend: str = "typed"
    cache: PlanCache | None = None

    def __post_init__(self) -> None:
        check_backend(self.backend)

    @classmethod
    def for_catalog(cls, catalog, backend: str = "typed",
                    cache: "PlanCache | None" = None) -> "ExecutionEngine":
        """Build an engine over ``catalog.globals()`` with the given backend."""
        return cls(env=catalog.globals(), backend=backend, cache=cache)

    def prepare(self, plan: Expr) -> "PreparedPlan":
        """Lower (or wrap) a plan for repeated execution.

        The plan is converted to De Bruijn form, then looked up in the plan
        cache under ``(backend, plan, env schema)``; on a miss the typed
        artifact is built and cached.  ``interpret`` has no lowering step
        and bypasses the cache.
        """
        plan = to_debruijn_safe(plan)
        if self.backend == "interpret":
            return PreparedPlan(plan, self.env)
        cache = self.cache if self.cache is not None else GLOBAL_PLAN_CACHE
        key = (self.backend, plan, env_signature(self.env))
        artifact = cache.get(key)
        if artifact is None:
            artifact = typed_plan(plan)
            cache.put(key, artifact)
        return PreparedPlan(plan, self.env, artifact=artifact, cache_key=key)

    def run(self, plan: Expr) -> Any:
        """Prepare and execute a plan once (cache-aware; see :meth:`prepare`)."""
        return self.prepare(plan).run()


@dataclass
class PreparedPlan:
    """A plan bound to an environment, ready to execute repeatedly.

    ``artifact`` is the lowered :class:`TypedPlan` (``None`` for
    ``interpret``, which evaluates ``plan`` directly).  ``cache_key``
    records the :class:`PlanCache` key the artifact lives under (``None``
    for ``interpret``), so holders — e.g. prepared statements in
    :mod:`repro.session` — can evict it when the catalog schema changes
    underneath them.
    """

    plan: Expr
    env: Mapping[str, Any]
    artifact: TypedPlan | None = None
    cache_key: Hashable | None = None

    @property
    def backend(self) -> str:
        """The backend this plan was prepared for."""
        return "interpret" if self.artifact is None else "typed"

    def run(self, env: Mapping[str, Any] | None = None,
            stats: dict | None = None, profile=None,
            dense_shape: tuple[int, ...] | None = None) -> Any:
        """Execute the plan against ``env`` (default: the bound environment).

        Lowered artifacts are environment-independent, so running the same
        prepared plan under a different binding of the same symbols — e.g. a
        prepared statement re-binding a scalar parameter — is sound.

        ``stats``, when given, receives ``typed``'s per-run execution
        counters (``sum_loops``, ``fallback_sums``, ``fallback_reasons``, …
        — how many loops took the scalar Python fallback instead of a
        batched kernel, and why); the interpreter leaves it untouched.

        ``profile``, when given, is an
        :class:`~repro.execution.profile.ExecutionProfile` filled with the
        run's per-``sum``-loop iteration counts on either backend; resolve
        its loop keys with :meth:`loop_sources`.  The default ``None`` adds
        no per-iteration work.

        ``dense_shape``, when given, makes the result the value
        :func:`result_to_dense` gives for it.  Without a profile, ``typed``
        then accumulates its root reduction straight into that array
        instead of building a :class:`BufferDict` to scatter (bit-identical;
        ``dense_sink`` in ``stats`` says whether it did).
        """
        if env is None:
            env = self.env
        if self.artifact is None:
            result = evaluate(self.plan, env, profile=profile)
        elif dense_shape is None or profile is not None or not 0 < len(dense_shape) <= 3:
            result = self.artifact(env, stats, profile)
        else:
            result = self.artifact(env, stats, dense_shape=tuple(dense_shape))
            if isinstance(result, DenseResult):
                return result.array
        return result if dense_shape is None else result_to_dense(result, dense_shape)

    def loop_sources(self) -> Mapping[Any, Expr]:
        """``{loop slot: source expression}`` for this plan's ``sum`` loops.

        Slots are whatever :meth:`run` records into an execution profile:
        integers for ``typed``, the plan's :class:`~repro.sdqlite.ast.Sum`
        nodes for the interpreter.
        """
        if self.artifact is None:
            return sum_sources_of(self.plan)
        return self.artifact.sum_sources or {}

    @property
    def source(self) -> str:
        """A one-line marker naming the backend and its kernel mode."""
        return "<interpreted>" if self.artifact is None else self.artifact.source


# ---------------------------------------------------------------------------
# result conversion helpers
# ---------------------------------------------------------------------------


def result_to_scalar(result: Any) -> float:
    """Interpret an execution result as a scalar."""
    if is_scalar(result):
        return float(result)
    plain = to_plain(result)
    if not plain:
        return 0.0
    raise ExecutionError("expected a scalar result but got a dictionary")


def _scatter_buffer_result(result: Any, out: np.ndarray) -> bool:
    """Vectorized fill of ``out`` from a typed-backend :class:`BufferDict`.

    Root views of matching rank scatter their leaf buffer in one fancy-index
    assignment (same per-entry semantics as the scalar loops below); other
    shapes return ``False`` and take the generic path.
    """
    if isinstance(result, BufferDict) and result.is_root \
            and result.levels.depth == out.ndim:
        result.scatter_into(out)
        return True
    return False


def result_to_vector(result: Any, size: int) -> np.ndarray:
    """Interpret an execution result as a dense vector of the given size."""
    out = np.zeros(size, dtype=np.float64)
    if is_scalar(result):
        return out
    if _scatter_buffer_result(result, out):
        return out
    for key, value in (result.items() if hasattr(result, "items") else []):
        out[int(key)] = float(value)
    return out


def result_to_matrix(result: Any, shape: tuple[int, int]) -> np.ndarray:
    """Interpret an execution result as a dense matrix."""
    out = np.zeros(shape, dtype=np.float64)
    if is_scalar(result):
        return out
    if _scatter_buffer_result(result, out):
        return out
    for i, row in result.items():
        if is_scalar(row):
            continue
        for j, value in row.items():
            out[int(i), int(j)] = float(value)
    return out


def result_to_tensor3(result: Any, shape: tuple[int, int, int]) -> np.ndarray:
    """Interpret an execution result as a dense rank-3 tensor."""
    out = np.zeros(shape, dtype=np.float64)
    if is_scalar(result):
        return out
    if _scatter_buffer_result(result, out):
        return out
    for i, fiber in result.items():
        for j, row in fiber.items():
            for k, value in row.items():
                out[int(i), int(j), int(k)] = float(value)
    return out


def result_to_dense(result: Any, shape: tuple[int, ...]) -> np.ndarray | float:
    """Dispatch on the output rank."""
    if len(shape) == 0:
        return result_to_scalar(result)
    if len(shape) == 1:
        return result_to_vector(result, shape[0])
    if len(shape) == 2:
        return result_to_matrix(result, shape)  # type: ignore[arg-type]
    if len(shape) == 3:
        return result_to_tensor3(result, shape)  # type: ignore[arg-type]
    raise ExecutionError(f"unsupported output rank {len(shape)}")
