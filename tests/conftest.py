"""Fixtures shared by the test modules."""

import numpy as np
import pytest


@pytest.fixture
def no_sorting(monkeypatch):
    """Call the returned function to make every NumPy sort raise from then on
    (``np.sort`` / ``argsort`` / ``lexsort`` / ``unique``): canonical-order
    input must reach its result without one."""
    def refuse(*args, **kwargs):
        raise AssertionError("canonical-order input must not be sorted")

    def forbid():
        for name in ("sort", "argsort", "lexsort", "unique"):
            monkeypatch.setattr(np, name, refuse)

    return forbid
