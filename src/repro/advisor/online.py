"""The online advisor: auto-applied format changes under a regression guard.

The offline :class:`~repro.advisor.Advisor` answers "given this workload,
which storage formats *should* the catalog use?" — but somebody still has to
run it, inspect the recommendation, and apply it.  :class:`OnlineAdvisor` is
that somebody, for long-lived systems whose workload drifts: it watches a
sliding window of recently executed programs, periodically re-runs the
advisor over the window, and **auto-applies** recommended format changes —
guarded, because the cost model can be wrong:

* an applied change is immediately measured against the previous
  configuration (interleaved best-of-``rounds``, the same discipline as
  :func:`repro.workloads.harness.advisor_shootout`);
* a change that measures *slower* than the regression guard allows is rolled
  back on the spot, and its fingerprint is put in a **backoff** set so the
  same change is not retried until the backoff window expires;
* every apply and rollback is counted — into the advisor's own report and,
  when attached to a serving layer, into
  :class:`~repro.serving.stats.ServerStats` (``advisor_applies`` /
  ``advisor_rollbacks``).

Both the measurement function and the clock are injectable, so the guard
matrix is deterministically testable without timing jitter
(``tests/test_online_advisor.py``).
"""

from __future__ import annotations

import time
from collections import deque
from typing import Any, Callable, Mapping

from ..workloads.harness import reformatted_catalog, time_workload
from .advisor import Advisor, WorkloadQuery, as_workload

__all__ = ["OnlineAdvisor"]

#: measure(workload, catalog) -> seconds for one weighted pass of the workload.
MeasureFn = Callable[[list[WorkloadQuery], Any], float]


class OnlineAdvisor:
    """Watches a workload window and adapts the catalog's storage formats.

    Parameters
    ----------
    session:
        The :class:`~repro.session.Session` — or
        :class:`~repro.serving.Server`, which is one — whose catalog is
        adapted.  Applied changes go through
        :meth:`Session.apply_recommendation` / :meth:`Session.replace_format`,
        so catalog epochs bump and live prepared statements and shared
        plans re-prepare transparently (see :meth:`for_server`).
    window:
        Number of most-recent workload entries retained by :meth:`note`.
    min_estimated_speedup:
        Recommendations below this estimated speedup are not applied at all
        (re-storing tensors has a real cost; a 2% estimated win is noise).
    guard_ratio:
        The regression guard: the applied configuration must measure within
        ``guard_ratio`` times the previous configuration's time, or it is
        rolled back.  ``1.0`` means "must not be slower at all"; a slightly
        looser ``1.05`` tolerates measurement noise.
    backoff:
        Seconds before a rolled-back change may be attempted again.
    rounds:
        Interleaved measurement rounds per side (best-of).
    measure:
        ``measure(workload, catalog) -> seconds`` override; the default is
        :func:`repro.workloads.harness.time_workload` under this advisor's
        optimizer configuration.  Injected by the deterministic guard tests.
    clock:
        Monotonic-seconds override (default :func:`time.monotonic`); only
        used for backoff bookkeeping.
    server_stats:
        An optional :class:`~repro.serving.stats.ServerStats` to mirror
        ``advisor_applies`` / ``advisor_rollbacks`` counts into.
    advise_options:
        Extra keyword arguments forwarded to :meth:`Advisor.advise`.
    """

    def __init__(self, session, *, window: int = 32,
                 min_estimated_speedup: float = 1.1,
                 guard_ratio: float = 1.0,
                 backoff: float = 600.0,
                 rounds: int = 3,
                 measure: MeasureFn | None = None,
                 clock: Callable[[], float] | None = None,
                 server_stats=None,
                 advise_options: Mapping[str, Any] | None = None):
        if window < 1:
            raise ValueError("window must be at least 1")
        if rounds < 1:
            raise ValueError("rounds must be at least 1")
        if guard_ratio <= 0:
            raise ValueError("guard_ratio must be positive")
        self.session = session
        self.min_estimated_speedup = min_estimated_speedup
        self.guard_ratio = guard_ratio
        self.backoff = backoff
        self.rounds = rounds
        self.advise_options = dict(advise_options or {})
        self._window: deque[WorkloadQuery] = deque(maxlen=window)
        self._measure: MeasureFn = measure or self._measure_workload
        self._clock = clock or time.monotonic
        self._server_stats = server_stats
        self._backoff_until: dict[tuple, float] = {}
        self.steps = 0
        self.applies = 0
        self.rollbacks = 0
        self.history: list[dict[str, Any]] = []

    @classmethod
    def for_server(cls, server, **kwargs) -> "OnlineAdvisor":
        """An online advisor adapting a :class:`~repro.serving.Server`'s catalog.

        Format changes are applied through the server's own mutators — each
        re-store is one atomic :meth:`~repro.storage.Catalog.replace`, so
        in-flight requests keep their snapshots and later requests
        re-prepare through the shared plan cache.  Applies and rollbacks are
        mirrored into ``server.stats``.
        """
        kwargs.setdefault("server_stats", server.stats)
        return cls(server, **kwargs)

    # -- the sliding workload window ------------------------------------------

    def note(self, program, weight: float = 1.0, name: str = "") -> "OnlineAdvisor":
        """Append one executed program to the sliding workload window."""
        self._window.append(WorkloadQuery(program, float(weight), name))
        return self

    def window(self) -> list[WorkloadQuery]:
        """The current window contents (oldest first)."""
        return list(self._window)

    # -- one advisory step -----------------------------------------------------

    def step(self) -> dict[str, Any]:
        """Advise over the window, maybe apply, measure, maybe roll back.

        Returns an action record whose ``action`` key is one of ``idle``
        (empty window), ``no_change`` (current formats already optimal),
        ``below_min_speedup``, ``skipped_backoff`` (this change was recently
        rolled back), ``applied``, or ``rolled_back``.  The record is also
        appended to :attr:`history`.
        """
        self.steps += 1
        workload = list(self._window)
        if not workload:
            return self._record({"action": "idle"})
        advisor = Advisor(self.session, method=self.session.method,
                          backend=self.session.backend,
                          optimizer_options=self.session.optimizer_options)
        recommendation = advisor.advise(workload, **self.advise_options)
        changes = recommendation.changes(self.session.catalog)
        if not changes:
            return self._record({"action": "no_change"})
        speedup = recommendation.estimated_speedup
        if speedup < self.min_estimated_speedup:
            return self._record({"action": "below_min_speedup",
                                 "estimated_speedup": round(speedup, 3),
                                 "changes": changes})
        fingerprint = tuple(sorted((name, new)
                                   for name, (_, new) in changes.items()))
        now = self._clock()
        until = self._backoff_until.get(fingerprint)
        if until is not None and now < until:
            return self._record({"action": "skipped_backoff",
                                 "changes": changes,
                                 "retry_in": round(until - now, 3)})
        # Keep the previous configuration (cheap: formats are shared, not
        # copied) so the guard can measure against it and roll back to it.
        previous = {name: old for name, (old, _) in changes.items()}
        baseline_catalog = reformatted_catalog(self.session.catalog, {})
        self.session.apply_recommendation(recommendation)
        self.applies += 1
        self._count("advisor_applies")
        baseline_s, candidate_s = self._measure_pair(workload, baseline_catalog)
        if candidate_s > self.guard_ratio * baseline_s:
            self._rollback(previous)
            self.rollbacks += 1
            self._count("advisor_rollbacks")
            self._backoff_until[fingerprint] = now + self.backoff
            return self._record({"action": "rolled_back", "changes": changes,
                                 "baseline_s": baseline_s,
                                 "candidate_s": candidate_s,
                                 "backoff_s": self.backoff})
        return self._record({"action": "applied", "changes": changes,
                             "estimated_speedup": round(speedup, 3),
                             "baseline_s": baseline_s,
                             "candidate_s": candidate_s})

    def report(self) -> dict[str, Any]:
        """Lifetime counters plus the most recent action."""
        return {
            "steps": self.steps,
            "applies": self.applies,
            "rollbacks": self.rollbacks,
            "window": len(self._window),
            "backoffs_active": len(self._backoff_until),
            "last_action": self.history[-1]["action"] if self.history else None,
        }

    # -- internals -------------------------------------------------------------

    def _record(self, record: dict[str, Any]) -> dict[str, Any]:
        self.history.append(record)
        return record

    def _count(self, field: str) -> None:
        if self._server_stats is not None:
            self._server_stats.count(field)

    def _rollback(self, previous: Mapping[str, str]) -> None:
        from ..storage.convert import reformat

        for name, kind in previous.items():
            current = self.session.catalog.tensors[name]
            if kind not in (current.format_name, current.spec_name):
                self.session.replace_format(reformat(current, kind))

    def _measure_pair(self, workload: list[WorkloadQuery],
                      baseline_catalog) -> tuple[float, float]:
        """Best-of-``rounds``, interleaved so drift hits both sides equally."""
        best_baseline = best_candidate = float("inf")
        for _ in range(self.rounds):
            best_baseline = min(best_baseline,
                                self._measure(workload, baseline_catalog))
            best_candidate = min(best_candidate,
                                 self._measure(workload, self.session.catalog))
        return best_baseline, best_candidate

    def _measure_workload(self, workload: list[WorkloadQuery], catalog) -> float:
        return time_workload(workload, catalog, method=self.session.method,
                             backend=self.session.backend,
                             optimizer_options=self.session.optimizer_options)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"OnlineAdvisor(window={len(self._window)}, "
                f"applies={self.applies}, rollbacks={self.rollbacks})")
