"""The fixed cost of a warm ``typed`` run, pinned as a count of calls.

A warm ``Statement.execute()`` of a small plan is mostly deciding how to run
rather than running: every call ``typed`` makes into its own Python
functions is fixed cost, paid again by every request.  Lowering decides a
node's lane mode, its binder reads and its globals once (see
``docs/backends.md``), so a warm run calls little beyond the closures of
its plan.  For the eight ``warm_kernels`` (kernel, formats) pairs of
``benchmarks/e2e``, built small as ``tests/test_typed_counters.py`` builds
them, this test counts the Python calls into functions of the ``repro``
package during one warm execute (``sys.setprofile``; NumPy's own Python
wrappers are not counted, so the count does not depend on the NumPy
version) and asserts a ceiling per row.
"""

import os
import sys

import pytest

if __name__ == "__main__":
    sys.path.insert(0, os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir,
                                                    "src")))

import repro
from repro.baselines.base import output_shape
from repro.execution.engine import PlanCache
from repro.kernels import KERNELS
from repro.session import Session

from test_typed_counters import CASES, _catalog

PACKAGE = os.path.dirname(os.path.abspath(repro.__file__)) + os.sep

#: The ceiling of each warm row's calls per execute (measured 71-126 when
#: set; the run before lowering fixed lane modes made 176-422).
CEILINGS = {
    "MMM-csr": 100,
    "SUMMM-csc": 80,
    "BATAX-csr": 95,
    "TTM-csf": 110,
    "MTTKRP-csf": 135,
    "MMM-coo": 85,
    "BATAX-csc": 80,
    "MTTKRP-coo": 120,
}


def calls_per_execute(case: str) -> int:
    """Python calls into ``repro`` during the third execute of a statement."""
    kernel, _, _ = CASES[case]
    catalog = _catalog(case)
    statement = Session(catalog, cache=PlanCache()).prepare(
        KERNELS[kernel].source, dense_shape=output_shape(KERNELS[kernel], catalog))
    statement.execute()
    statement.execute()
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(count)
    try:
        statement.execute()
    finally:
        sys.setprofile(None)
    return calls


@pytest.mark.parametrize("case", sorted(CEILINGS))
def test_a_warm_execute_stays_under_its_call_ceiling(case):
    calls = calls_per_execute(case)
    assert 0 < calls <= CEILINGS[case], f"{case}: {calls} calls per warm execute"


if __name__ == "__main__":
    for case in CEILINGS:
        print(f"{case:12s} {calls_per_execute(case):4d} (ceiling {CEILINGS[case]})")
