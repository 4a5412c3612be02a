"""Concurrent serving: one shared catalog, many clients (docs/serving.md).

Public surface:

* :class:`Server` — a :class:`~repro.session.Session` shared by many
  threads: admission control, snapshot-isolated execution, stats.  Its
  ``prepare`` returns the session's own :class:`~repro.session.Statement`.
* :class:`SharedPlanCache` / :func:`plan_key` / :func:`catalog_fingerprint`
  — the plan cache every session resolves through, and its key discipline.
* :class:`ServerStats` / :class:`LatencyRecorder` — the observability layer.
* :class:`ServerBusy` / :class:`RequestTimeout` / :class:`ServerClosed` —
  the back-pressure signals.

The names from :mod:`repro.serving.server` load on first use:
:mod:`repro.session` needs :mod:`repro.serving.cache`, and ``Server``
needs ``Session``.
"""

from .cache import SharedPlan, SharedPlanCache, base_key, catalog_fingerprint, plan_key
from .stats import LatencyRecorder, ServerStats, percentile

_SERVER_NAMES = ("AdmissionGate", "RequestTimeout", "Server", "ServerBusy", "ServerClosed",
                 "ServerConfig", "ServingError")


def __getattr__(name):
    if name in _SERVER_NAMES:
        from . import server

        return getattr(server, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "AdmissionGate",
    "LatencyRecorder",
    "RequestTimeout",
    "Server",
    "ServerBusy",
    "ServerClosed",
    "ServerConfig",
    "ServerStats",
    "ServingError",
    "SharedPlan",
    "SharedPlanCache",
    "base_key",
    "catalog_fingerprint",
    "percentile",
    "plan_key",
]
