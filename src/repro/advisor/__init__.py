"""Workload-driven storage format advisor.

The paper's premise (Sec. 4–5) is that tensor-program performance hinges on
*flexible storage*: the same program can be orders of magnitude faster or
slower depending on the formats the data administrator picked.  The paper's
cost model (Sec. 5.5–5.7) already estimates the cost of an optimized plan
*for a given storage configuration* — this package closes the loop it leaves
open by searching **over** configurations: given a catalog and a workload of
SDQLite programs (optionally weighted), the :class:`Advisor` enumerates the
storage formats that can legally hold each tensor
(:meth:`repro.storage.StorageFormat.candidates_for`), estimates every
program's optimized plan cost under each candidate configuration
(:meth:`repro.core.statistics.Statistics.with_formats` + the two-stage
optimizer), and returns a ranked :class:`Recommendation` that
:meth:`repro.session.Session.apply_recommendation` executes in place via
:func:`repro.storage.convert.reformat` (bumping catalog epochs, so prepared
statements transparently re-prepare).

Entry points, cheapest first:

* :func:`repro.storel.advise` — one-shot wrapper over a throwaway session;
* :class:`Advisor` — reusable, holds the conversion/costing caches;
* ``Advisor.advise(..., measure=True)`` — additionally validates the top-k
  estimated configurations against real executions (``typed`` backend)
  and ranks by measured time.

See ``docs/advisor.md`` for a walkthrough and
``benchmarks/bench_advisor.py`` for advisor-picked vs. hand-picked formats
on the Table-3 format-sensitivity workloads.
"""

from .advisor import Advisor, Candidate, Recommendation, WorkloadQuery, as_workload
from .online import OnlineAdvisor

__all__ = ["Advisor", "Candidate", "OnlineAdvisor", "Recommendation",
           "WorkloadQuery", "as_workload"]
