"""Feedback-driven re-optimization: estimated vs observed cardinalities.

The optimizer picks plans from *estimated* cardinalities (Fig. 5/6); this
module closes the loop described in ROADMAP item 3.  A :class:`FeedbackStore`
sits between the execution profiles collected by
:mod:`repro.execution.profile` and the :class:`~repro.core.statistics.Statistics`
the optimizer reads:

* every sampled run's per-loop iteration counts are resolved to closed
  sub-expressions of the plan and compared against the estimator's prediction
  for the same expression;
* when the `q-error <https://doi.org/10.14778/2850583.2850594>`__ (the
  symmetric over/under-estimation factor) of any observation exceeds the
  configured threshold, the observed cardinality is written into the
  statistics' observation overlay and the store's **epoch** is bumped;
* prepared statements record the epoch they were optimized under and
  transparently re-prepare when it moves — the same lazy revalidation
  discipline used for catalog schema changes, so the concurrent-serving
  guarantees carry over unchanged.

Observations describe the *current* data: any catalog mutation clears them
(the session mutators do this as part of their incremental statistics patch),
and the store double-checks the catalog version on ingest as a backstop.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Mapping

from .cardinality import Card
from .cost import estimate

__all__ = ["FeedbackConfig", "FeedbackStore", "q_error"]


def q_error(estimated: float, actual: float) -> float:
    """The symmetric relative error factor ``max(est/act, act/est)``.

    Both sides are clamped to 1 so empty results do not divide by zero and a
    "predicted 0.3, saw 0" never counts as an error: below one row there is
    nothing to misestimate.
    """
    estimated = max(float(estimated), 1.0)
    actual = max(float(actual), 1.0)
    return max(estimated / actual, actual / estimated)


@dataclass(frozen=True)
class FeedbackConfig:
    """Tuning knobs for the adaptive feedback loop.

    Attributes
    ----------
    sample_every:
        Profile one execution in every ``sample_every``; ``1`` profiles every
        run, larger values amortize the profiling overhead over the sweep.
        Must be positive (a disabled loop is represented by the *absence* of
        a store, not by a zero here).
    threshold:
        Minimum :func:`q_error` between an estimated and an observed
        cardinality before the observation is adopted and dependent
        statements re-prepare.  ``2.0`` (a factor of two off) by default —
        small errors rarely change plan choice, and re-preparing has a cost.
    """

    sample_every: int = 8
    threshold: float = 2.0

    def __post_init__(self) -> None:
        if self.sample_every < 1:
            raise ValueError("sample_every must be >= 1 "
                             "(omit the feedback config to disable the loop)")
        if self.threshold < 1.0:
            raise ValueError("threshold is a q-error factor and must be >= 1.0")


class FeedbackStore:
    """Accumulates runtime cardinality feedback and versions it with an epoch.

    Thread-safe for its own counters; :meth:`ingest` mutates the statistics
    it is handed, so callers pass the session statistics while holding the
    session lock (the sessions and the serving layer both do).
    """

    def __init__(self, config: FeedbackConfig | None = None):
        self.config = config or FeedbackConfig()
        #: Bumped whenever an ingest adopted at least one new observation;
        #: statements compare it like a schema epoch and re-prepare on change.
        self.epoch = 0
        self.profiled_runs = 0
        self.observations_checked = 0
        self.misestimations = 0
        self.refinements = 0
        self._counter = 0
        self._version: int | None = None
        self._lock = threading.Lock()

    # -- sampling --------------------------------------------------------------

    def should_sample(self) -> bool:
        """True on every ``sample_every``-th call (the first call included)."""
        with self._lock:
            sampled = self._counter % self.config.sample_every == 0
            self._counter += 1
            return sampled

    # -- ingest ----------------------------------------------------------------

    def ingest(self, stats, prepared, profile, catalog_version: int) -> dict[str, Any]:
        """Fold one execution profile into ``stats``; returns run counters.

        ``prepared`` is the :class:`~repro.execution.engine.PreparedPlan`
        that produced ``profile``; its ``loop_sources()`` resolve the
        profile's backend loop slots to plan sub-expressions.  Estimated
        cardinalities are computed against ``stats`` *as they currently
        stand* (earlier observations included), so an already-adopted
        observation does not re-trigger as a misestimation — ingesting the
        same profile twice is a no-op after the first time.
        """
        with self._lock:
            if self._version != catalog_version:
                # Backstop: the session mutators already clear observations
                # on catalog changes, but a catalog mutated behind the
                # session's back must not mix old observations with new data.
                stats.clear_observations()
                self._version = catalog_version
            checked = 0
            misestimated = 0
            worst = 1.0
            changed = False
            for source, observed_size in profile.loop_observations(
                    prepared.loop_sources()).items():
                estimated = estimate(source, stats)
                error = q_error(estimated.size(), observed_size)
                checked += 1
                worst = max(worst, error)
                if error > self.config.threshold:
                    misestimated += 1
                    # Only the top level was measured; keep the estimated
                    # element shape underneath the observed count.
                    stats.observe(source, Card(float(observed_size),
                                               estimated.elem()))
                    changed = True
            output = profile.output_card
            if output is not None:
                from ..sdqlite.debruijn import is_closed

                plan = prepared.plan
                if plan is not None and is_closed(plan):
                    estimated = estimate(plan, stats)
                    error = q_error(estimated.total(), output.total())
                    checked += 1
                    worst = max(worst, error)
                    if error > self.config.threshold:
                        misestimated += 1
                        stats.observe(plan, output)
                        changed = True
            self.profiled_runs += 1
            self.observations_checked += checked
            self.misestimations += misestimated
            if changed:
                self.refinements += 1
                self.epoch += 1
            return {
                "profiled_runs": 1,
                "feedback_checked": checked,
                "feedback_misestimations": misestimated,
                "feedback_max_q_error": round(worst, 3),
                "feedback_refined": int(changed),
            }

    # -- introspection ---------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """A stable copy of the store's lifetime counters."""
        with self._lock:
            return {
                "epoch": self.epoch,
                "profiled_runs": self.profiled_runs,
                "observations_checked": self.observations_checked,
                "misestimations": self.misestimations,
                "refinements": self.refinements,
                "sample_every": self.config.sample_every,
                "threshold": self.config.threshold,
            }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FeedbackStore(epoch={self.epoch}, "
                f"profiled_runs={self.profiled_runs}, "
                f"misestimations={self.misestimations})")
