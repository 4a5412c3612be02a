"""Incremental view maintenance: delta processing for semiring programs.

The semiring foundation of SDQLite makes delta processing natural — addition
and multiplication distribute, so a sparse point-update to a stored tensor
can be propagated through a program as a small *delta program* instead of a
full re-execution (the classic IVM story; see ``docs/ivm.md``):

* :mod:`repro.ivm.delta` derives the delta program ``ΔQ`` of a program ``Q``
  with respect to one updated tensor, at the SDQLite AST level, using the
  semiring delta rules (``Δ(a+b) = Δa + Δb``,
  ``Δ(a·b) = Δa·b + a·Δb + Δa·Δb``, pushdown through ``sum``/``let``/
  dictionary constructors);
* :mod:`repro.ivm.views` maintains :class:`MaterializedView` registries for
  :class:`repro.session.Session` and :class:`repro.serving.Server`: each view
  stores its last result plus prepared delta statements per updatable
  tensor, and a cost-based fallback re-executes from scratch when deltas
  don't pay (non-linear programs, large deltas).

The whole subsystem is differentially fuzzed: ``python -m repro.fuzz --ivm``
races random update sequences against maintained views with full
re-execution as the oracle.
"""

from ..sdqlite.debruijn import is_linear_in
from .delta import DeltaNotSupported, delta_symbol, derive_delta
from .views import DeltaPlan, MaterializedView, ViewRegistry

__all__ = [
    "DeltaNotSupported",
    "delta_symbol",
    "derive_delta",
    "is_linear_in",
    "DeltaPlan",
    "MaterializedView",
    "ViewRegistry",
]
