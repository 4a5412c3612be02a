"""Independent expected results, from the generated COO arrays with SciPy/NumPy.

Nothing here imports ``repro``: a result of the pipeline is *wrong* when it
disagrees with what these few lines of SciPy compute from the same
coordinates and values the benchmark generated.  ``python reference.py`` runs
the self-test, which corrupts one entry of a result and shows that the
checker flags it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

RTOL = 1e-9


def matrix(coords: np.ndarray, values: np.ndarray, shape) -> sp.csr_matrix:
    return sp.csr_matrix((values, (coords[:, 0], coords[:, 1])), shape=shape)


def matches(result, expected) -> bool:
    """True when ``result`` has the expected shape and values (relative 1e-9)."""
    result = np.asarray(result, dtype=np.float64)
    expected = np.asarray(expected, dtype=np.float64)
    if result.shape != expected.shape:
        return False
    scale = float(np.abs(expected).max()) if expected.size else 0.0
    return bool(np.all(np.abs(result - expected) <= RTOL * max(scale, 1.0)))


# -- Table-3 kernels ----------------------------------------------------------


def mmm(a, b):
    return (a @ b).toarray()


def summm(a, b) -> float:
    return float(np.asarray(a.sum(axis=0)).ravel() @ np.asarray(b.sum(axis=1)).ravel())


def batax(a, x, beta):
    return beta * (a.T @ (a @ x))


def ttm(coords, values, dims, b):
    """``Q(i,j,k) = sum_l A(i,j,l) B(k,l)`` with ``b`` the SciPy matrix of B."""
    d1, d2, d3 = dims
    unfolded = sp.csr_matrix((values, (coords[:, 0] * d2 + coords[:, 1], coords[:, 2])),
                             shape=(d1 * d2, d3))
    return (unfolded @ b.T).toarray().reshape(d1, d2, b.shape[0])


def mttkrp(coords, values, dims, b, c):
    """``Q(i,j) = sum_kl A(i,k,l) B(k,j) C(l,j)``."""
    b, c = b.toarray(), c.toarray()
    out = np.zeros((dims[0], b.shape[1]))
    np.add.at(out, coords[:, 0], values[:, None] * b[coords[:, 1]] * c[coords[:, 2]])
    return out


def kernel(name: str, data: dict):
    """Expected result of one Table-3 kernel on ``data`` (COO arrays by tensor)."""
    name = name.split("-")[0]
    if name in ("MMM", "SUMMM"):
        a, b = matrix(*data["A"]), matrix(*data["B"])
        return mmm(a, b) if name == "MMM" else summm(a, b)
    if name == "BATAX":
        return batax(matrix(*data["A"]), data["X"], data["beta"])
    coords, values, dims = data["A"]
    if name == "TTM":
        return ttm(coords, values, dims, matrix(*data["B"]))
    if name == "MTTKRP":
        return mttkrp(coords, values, dims, matrix(*data["B"]), matrix(*data["C"]))
    raise KeyError(name)


# -- served program templates -------------------------------------------------


def served(data: dict) -> dict:
    """Per template, the result for scale factor 1 and ``beta`` 1.

    Every served text multiplies its template by a literal and by ``beta``,
    so the expected value of a request is ``literal * beta * served[template]``.
    """
    a, b = matrix(*data["A"]), matrix(*data["B"])
    x, y = data["X"], data["Y"]
    return {
        "spmv": a @ x,
        "rowsum": np.asarray(a.sum(axis=1)).ravel(),
        "colsum": np.asarray(a.sum(axis=0)).ravel(),
        "dot": float(x @ y),
        "summm": summm(a, b),
        "mmm": mmm(a, b),
        "batax": batax(a, x, 1.0),
        "axpy": x.copy(),
    }


# -- update_views -------------------------------------------------------------


class UpdateReplay:
    """Replays the workload's deltas onto a SciPy copy of ``A``."""

    def __init__(self, a_coo, b_coo):
        self.a = matrix(*a_coo)
        self.b = matrix(*b_coo)
        self._b_rowsum = np.asarray(self.b.sum(axis=1)).ravel()

    def apply(self, coords: np.ndarray, values: np.ndarray) -> None:
        self.a = self.a + matrix(coords, values, self.a.shape)

    def summm(self) -> float:
        return float(np.asarray(self.a.sum(axis=0)).ravel() @ self._b_rowsum)

    def mmm(self):
        return mmm(self.a, self.b)

    def rowsum(self):
        return np.asarray(self.a.sum(axis=1)).ravel()


# -- self-test ----------------------------------------------------------------


def self_test() -> None:
    """Corrupt one entry of a correct result; the checker must flag it."""
    rng = np.random.default_rng(0)
    coords = np.unique(rng.integers(0, 16, size=(40, 2)), axis=0)
    a = (coords, rng.uniform(0.1, 1.0, len(coords)), (16, 16))
    expected = kernel("MMM", {"A": a, "B": a})
    if not matches(expected.copy(), expected):
        raise AssertionError("checker rejects a correct result")
    corrupted = expected.copy()
    i, j = np.argwhere(corrupted != 0)[0]
    corrupted[i, j] *= 1.0 + 1e-6
    if matches(corrupted, expected):
        raise AssertionError("checker accepts a result with one corrupted entry")
    if matches(expected[:, :-1], expected):
        raise AssertionError("checker accepts a result of the wrong shape")
    if matches(summm(matrix(*a), matrix(*a)) + 1e-3, kernel("SUMMM", {"A": a, "B": a})):
        raise AssertionError("checker accepts a wrong scalar")


if __name__ == "__main__":
    self_test()
    print("reference self-test: a corrupted entry, shape and scalar are all flagged")
