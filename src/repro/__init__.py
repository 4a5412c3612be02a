"""STOREL reproduction: cost-based optimization of tensor programs on flexible storage.

This package is a from-scratch Python reproduction of the SIGMOD 2023 paper
*Optimizing Tensor Programs on Flexible Storage* (Schleich, Shaikhha, Suciu).
It provides:

* :mod:`repro.sdqlite` — the SDQLite tensor calculus (parser, interpreter, De
  Bruijn representation),
* :mod:`repro.storage` — the physical data model and flexible storage formats
  with their Tensor Storage Mappings,
* :mod:`repro.egraph` — an equality-saturation engine (Egg reimplementation),
* :mod:`repro.core` — the rewrite rules, cardinality/cost models and the
  two-stage cost-based optimizer (STOREL itself),
* :mod:`repro.execution` — the physical-plan executor (``typed``: batched
  kernels over flat typed buffers) and the reference interpreter it is
  checked against (``interpret``), plus the prepared-plan LRU cache; every
  API that executes plans takes a ``backend=`` parameter accepting exactly
  those two values (see ``docs/backends.md``),
* :mod:`repro.advisor` — the workload-driven storage format advisor
  (searches candidate storage configurations with the cost model and
  returns recommendations sessions apply in place — see ``docs/advisor.md``),
* :mod:`repro.kernels`, :mod:`repro.baselines`, :mod:`repro.data`,
  :mod:`repro.workloads` — the evaluation substrate (tensor programs,
  competitor systems, datasets, experiment harness).

The one-call entry point is :mod:`repro.storel`
(``storel.run(program, catalog, backend=...)``); for the optimize-once /
execute-many workflow use :mod:`repro.session` (``Session.prepare`` returning
parameterizable prepared ``Statement`` objects — see ``docs/api.md``).  See
``README.md`` for a quickstart.
"""

__version__ = "0.3.0"


def __getattr__(name):
    # Lazy re-exports so `from repro import Session` works without making
    # `import repro` pull in NumPy and the whole pipeline.
    if name in ("Session", "Statement"):
        from . import session

        return getattr(session, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
