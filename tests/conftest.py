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


def _assert_same_dense(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert np.array_equal(actual, expected, equal_nan=True)
    assert np.array_equal(np.signbit(actual), np.signbit(expected))


@pytest.fixture(scope="session")
def same_dense():
    """``same_dense(actual, expected)`` asserts two dense results are equal
    bit for bit: values, NaNs and the sign of every zero."""
    return _assert_same_dense
