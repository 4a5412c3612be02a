"""Order statistics used by every report of the benchmark."""

from __future__ import annotations

import math
from typing import Sequence

#: (label, quantile, samples needed so that at least ten lie beyond it).
_TAILS = (("p99.9", 0.999, 10_000), ("p99", 0.99, 1_000), ("p95", 0.95, 200),
          ("p90", 0.90, 100), ("p75", 0.75, 40))


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def tail(values: Sequence[float]) -> tuple[str, float] | None:
    """The highest percentile that has at least ten samples beyond it."""
    for label, q, needed in _TAILS:
        if len(values) >= needed:
            return label, percentile(values, q)
    return None
