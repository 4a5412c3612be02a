"""Physical plan execution: one executor and the interpreter it is checked against.

Two backends (selected with ``backend=`` on :class:`ExecutionEngine`,
:class:`repro.Session`, :func:`repro.storel.run` and the benchmark systems;
see ``docs/backends.md``):

* ``"typed"``     — lane-expanding NumPy kernels over flat typed columnar
  buffers; the default everywhere,
* ``"interpret"`` — the reference interpreter (the semantics oracle).

Any other name raises :class:`~repro.sdqlite.errors.ExecutionError` where it
is given (:func:`check_backend`).  Prepared plans are cached across calls by
:class:`PlanCache` (:data:`GLOBAL_PLAN_CACHE` by default), keyed on backend,
plan hash and environment schema.
"""

from .buffers import HAVE_NUMBA, BufferDict, BufferLevels, to_buffer_levels
from .engine import (
    BACKENDS,
    GLOBAL_PLAN_CACHE,
    ExecutionEngine,
    PlanCache,
    PreparedPlan,
    check_backend,
    env_signature,
    result_to_dense,
    result_to_matrix,
    result_to_scalar,
    result_to_tensor3,
    result_to_vector,
)
from .typed_backend import TypedPlan, typed_plan

__all__ = [
    "BACKENDS", "check_backend",
    "TypedPlan", "typed_plan",
    "BufferDict", "BufferLevels", "to_buffer_levels", "HAVE_NUMBA",
    "ExecutionEngine", "PreparedPlan",
    "PlanCache", "GLOBAL_PLAN_CACHE", "env_signature",
    "result_to_dense", "result_to_matrix", "result_to_scalar",
    "result_to_tensor3", "result_to_vector",
]
