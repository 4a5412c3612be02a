"""Multi-process execution of sharded plans.

A plan over sharded storage normalizes to a top-level ``+`` chain with one
addend per shard (see :func:`repro.core.strategies.split_sharded_sum`).
Executed in-process that chain already *streams* — each addend materializes
one shard's contribution at a time — but the addends are also independent:
row-range shards cover disjoint key ranges, so the chain is an embarrassingly
parallel semiring reduction.  This module ships the addends to worker
processes and ``v_add``-merges their partial results:

* :func:`split_plan` recovers the addends of a De Bruijn plan's root ``+``
  chain.
* :func:`catalog_payload` / :func:`environment_from_payload` define the wire
  format: every tensor travels as its :meth:`StorageFormat.to_buffers` view
  (plus class and shape), with memory-mapped buffers replaced by
  ``(filename, dtype, shape)`` descriptors so out-of-core data is re-mapped
  in the worker instead of being copied through a pipe.
* :class:`ShardExecutor` owns a ``ProcessPoolExecutor`` bound to one catalog
  epoch; any mutation of the catalog (version *or* schema) retires the pool,
  so workers can never serve stale shards.

Workers rebuild the environment once (pool initializer), lower plan parts
through their own process-wide plan cache, and return
:func:`~repro.sdqlite.values.to_plain` partials — plain scalars and dicts,
cheap to pickle and exact to merge.  Parallel execution is strictly a
performance path: :meth:`ShardExecutor.run_plan` answers
:data:`NOT_DISPATCHED` when the pool, pickling, the operating system or a
worker fails (:data:`DISPATCH_ERRORS`) — logged once per cause and counted —
and its caller (the execute step of :mod:`repro.session`) then runs the plan
in-process, where the same chain streams; results are identical either way
because per-shard key ranges are disjoint.  Anything else is a programming
error and propagates.
"""

from __future__ import annotations

import importlib
import logging
import pickle
import threading
from concurrent.futures import CancelledError, ProcessPoolExecutor
from typing import Any, Callable, Mapping

import numpy as np

from ..sdqlite.ast import Add, Expr
from ..sdqlite.values import to_plain, v_add

__all__ = [
    "DISPATCH_ERRORS",
    "NOT_DISPATCHED",
    "ShardExecutor",
    "ShardWorkerError",
    "catalog_payload",
    "environment_from_payload",
    "merge_partials",
    "split_plan",
]


class ShardWorkerError(RuntimeError):
    """A worker process raised while executing a plan part.

    Whatever it raised is chained as ``__cause__``.  The in-process run is
    the authority on whether the plan itself is at fault: it is what the
    caller falls back to, and it raises the plan's own error if there is one.
    """


#: What a failing pool can raise at its caller: a broken or shut-down pool
#: (``BrokenProcessPool`` and "cannot schedule new futures" are both
#: ``RuntimeError``), futures cancelled by a concurrent retirement, arguments
#: or results that do not pickle, process/pipe/memmap trouble from the OS,
#: and :class:`ShardWorkerError`.
DISPATCH_ERRORS = (RuntimeError, CancelledError, pickle.PickleError, OSError)

#: :meth:`ShardExecutor.run_plan`'s answer when nothing ran on the pool.
NOT_DISPATCHED = object()


def split_plan(plan: Expr) -> list[Expr]:
    """The addends of ``plan``'s root ``+`` chain; ``[]`` when unsplittable.

    Only a root-level chain with at least two addends is worth dispatching;
    anything else returns ``[]`` so callers take the in-process path.  The
    addends of a closed plan are themselves closed (there is no binder above
    the root), so each one is a complete, independently executable plan.
    """
    if not isinstance(plan, Add):
        return []
    parts: list[Expr] = []
    stack = [plan]
    while stack:
        node = stack.pop()
        if isinstance(node, Add):
            stack.extend((node.right, node.left))
        else:
            parts.append(node)
    return parts


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------


def _encode_array(array: np.ndarray):
    """One buffer as a picklable cell: memmaps by reference, arrays by value."""
    filename = getattr(array, "filename", None)
    if isinstance(array, np.memmap) and filename:
        return ("memmap", str(filename), str(array.dtype),
                tuple(int(s) for s in array.shape), int(array.offset))
    return ("array", np.ascontiguousarray(array))


def _decode_array(cell) -> np.ndarray:
    if cell[0] == "memmap":
        _, filename, dtype, shape, offset = cell
        return np.memmap(filename, dtype=np.dtype(dtype), mode="r",
                         shape=shape, offset=offset)
    return cell[1]


def catalog_payload(source) -> dict:
    """A picklable description of a catalog (or snapshot): buffers + scalars.

    ``source`` is anything with ``tensors`` / ``scalars`` mappings — a
    :class:`~repro.storage.catalog.Catalog` or a
    :class:`~repro.storage.catalog.CatalogSnapshot`.  Tensors are encoded as
    ``(module, qualname, name, shape, buffers)`` so the worker can rebuild
    the exact storage format class via :meth:`from_buffers` — preserving the
    physical symbol layout (including shard counts, which ride along in the
    buffer view) that the shipped plan parts were compiled against.
    """
    tensors = []
    for name in sorted(source.tensors):
        fmt = source.tensors[name]
        cls = type(fmt)
        buffers = {key: _encode_array(np.asanyarray(array))
                   for key, array in fmt.to_buffers().items()}
        tensors.append((cls.__module__, cls.__qualname__, name,
                        tuple(int(s) for s in fmt.shape), buffers))
    return {"tensors": tensors, "scalars": dict(source.scalars)}


def environment_from_payload(payload: Mapping[str, Any]) -> dict[str, Any]:
    """Rebuild the execution environment (``catalog.globals()``) from a payload."""
    env: dict[str, Any] = dict(payload["scalars"])
    for module, qualname, name, shape, buffers in payload["tensors"]:
        cls = getattr(importlib.import_module(module), qualname)
        fmt = cls.from_buffers(
            name, {key: _decode_array(cell) for key, cell in buffers.items()},
            shape)
        env.update(fmt.physical())
    return env


def merge_partials(partials) -> Any:
    """``v_add``-merge per-shard partial results (the semiring guarantees it)."""
    merged: Any = 0
    for partial in partials:
        merged = v_add(merged, partial)
    return merged


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------

_WORKER_ENV: dict[str, Any] | None = None


def _init_worker(payload: Mapping[str, Any]) -> None:
    global _WORKER_ENV
    _WORKER_ENV = environment_from_payload(payload)


def _run_part(part: Expr, backend: str, overrides: Mapping[str, Any]) -> Any:
    """Execute one plan part in a worker; return a plain (picklable) partial."""
    from .engine import ExecutionEngine

    assert _WORKER_ENV is not None, "worker pool initializer did not run"
    env = {**_WORKER_ENV, **overrides} if overrides else _WORKER_ENV
    # Workers lower through their own process-wide GLOBAL_PLAN_CACHE, so
    # repeated executions of the same prepared statement are cache hits in
    # the pool as well.
    result = ExecutionEngine(env=env, backend=backend).run(part)
    return to_plain(result)


# ---------------------------------------------------------------------------
# the pool
# ---------------------------------------------------------------------------


class ShardExecutor:
    """A worker pool bound to one catalog epoch, serving split plans.

    ``workers`` is the requested process count; anything below 2 makes
    :meth:`available` false and the executor a no-op (serial in-process
    streaming is always the baseline).  The pool ships the catalog once, at
    creation, through the pool initializer; :meth:`run_parts` re-keys on
    ``(version, schema_version)`` every call and tears the pool down
    whenever the catalog moved — identical behaviour under snapshot
    isolation, because a snapshot's epochs pin exactly the state it carries
    (an executor is owned by one session/server, so epochs identify the
    state unambiguously).

    :meth:`run_parts` lets failures propagate — after retiring the pool, so
    a poisoned worker never serves a later call; :meth:`run_plan` is the
    entry point sessions and servers use, which turns a failed dispatch into
    :data:`NOT_DISPATCHED`, logs it on ``log`` once per cause, counts it in
    :attr:`fallbacks` and calls ``on_fallback`` (the server's stats hook).
    """

    def __init__(self, workers: int = 0, *, log: logging.Logger | None = None,
                 on_fallback: Callable[[], None] | None = None):
        self.workers = max(0, int(workers))
        self.log = log if log is not None else logging.getLogger("repro.execution")
        self.on_fallback = on_fallback
        self.fallbacks = 0
        self._logged_causes: set[str] = set()
        self._pool: ProcessPoolExecutor | None = None
        self._key: tuple | None = None
        # Guards pool identity only; executions submit under the lock but
        # collect results outside it, so concurrent callers overlap.  A
        # concurrent retirement cancels in-flight futures, which surfaces as
        # an exception here — i.e. as the caller's serial fallback.
        self._lock = threading.Lock()

    def available(self) -> bool:
        """Whether parallel dispatch is enabled at all."""
        return self.workers >= 2

    def run_plan(self, plan: Expr, source, backend: str,
                 overrides: Mapping[str, Any] | None = None) -> Any:
        """``plan``'s result computed on the pool, or :data:`NOT_DISPATCHED`.

        Not dispatched when the executor is off, when ``plan`` is not a
        per-shard ``+`` chain, or when the dispatch failed with one of
        :data:`DISPATCH_ERRORS`; in each case the caller runs the plan
        in-process.  ``overrides`` carries every per-request binding —
        scalar parameters and literal slots alike.
        """
        if not self.available():
            return NOT_DISPATCHED
        parts = split_plan(plan)
        if len(parts) < 2:
            return NOT_DISPATCHED
        try:
            return self.run_parts(parts, source, backend, overrides)
        except DISPATCH_ERRORS as exc:
            self._note_fallback(exc)
            return NOT_DISPATCHED

    def _note_fallback(self, exc: BaseException) -> None:
        cause = exc.__cause__ if isinstance(exc, ShardWorkerError) else exc
        name = type(cause).__name__
        with self._lock:
            self.fallbacks += 1
            first = name not in self._logged_causes
            self._logged_causes.add(name)
        if first:
            self.log.warning(
                "parallel shard dispatch failed (%s: %s); serving in-process "
                "(further %s fallbacks are counted, not logged)",
                name, cause, name, exc_info=exc)
        if self.on_fallback is not None:
            self.on_fallback()

    def run_parts(self, parts, source, backend: str,
                  overrides: Mapping[str, Any] | None = None) -> Any:
        """Execute plan ``parts`` over ``source``'s data; merge the partials.

        ``source`` is the catalog (or snapshot) the parts were planned
        against; ``overrides`` re-binds scalars for this execution only.
        Raises on any worker/pool failure — after retiring the pool — so a
        serial fallback runs against a clean slate; what a *worker* raised
        arrives as :class:`ShardWorkerError`.
        """
        overrides = dict(overrides or {})
        try:
            with self._lock:
                pool = self._ensure_pool(source)
                futures = [pool.submit(_run_part, part, backend, overrides)
                           for part in parts]
            try:
                partials = [future.result() for future in futures]
            except DISPATCH_ERRORS:
                raise
            except Exception as exc:
                # Only a worker's own exception can get here: the pool
                # re-raises it, unchanged, out of ``future.result()``.
                raise ShardWorkerError(
                    f"a shard worker raised {type(exc).__name__}: {exc}") from exc
            return merge_partials(partials)
        except BaseException:
            self.close()
            raise

    def _ensure_pool(self, source) -> ProcessPoolExecutor:
        key = (source.version, source.schema_version)
        if self._pool is None or self._key != key:
            self._retire()
            self._pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(catalog_payload(source),))
            self._key = key
        return self._pool

    def _retire(self) -> None:
        pool, self._pool, self._key = self._pool, None, None
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)

    def close(self) -> None:
        """Shut the pool down (idempotent); the next call builds a fresh one."""
        with self._lock:
            self._retire()
