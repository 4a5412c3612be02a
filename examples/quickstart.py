"""Quickstart: a session over flexible storage — optimize once, execute many.

The scenario from the paper's introduction: a sparse matrix ``A`` stored in
CSR, a dense vector ``X``, and the BATAX kernel
``Q(j) = Σ_ik β · A(i,j) · A(i,k) · X(k)``.  The Data Admin registers the
tensors once in a :class:`~repro.session.Session`; STOREL composes the
program with the storage mappings, rewrites it (factorization + fusion),
picks the cheapest plan with its cost model and lowers it to batched kernels
over flat typed buffers — once, at ``prepare`` time.  Each ``execute`` then just re-binds the β
parameter and runs.

Run with::

    python examples/quickstart.py
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.session import Session
from repro.data.synthetic import random_dense_vector, random_sparse_matrix
from repro.storage import CSRFormat, DenseFormat


def main() -> None:
    size = 200
    a = random_sparse_matrix(size, size, density=0.02, seed=1)
    x = random_dense_vector(size, seed=2)

    # 1. The data administrator opens a session and registers how each
    #    tensor is stored — once.
    session = (
        Session()
        .register(CSRFormat.from_dense("A", a))
        .register(DenseFormat.from_dense("X", x))
        .set_scalar("beta", 2.0)
    )
    print("Registered tensors:")
    print(session.catalog.describe())
    print()
    print("Storage mapping for A (CSR), written in SDQLite:")
    print(" ", session.catalog["A"].mapping_source())
    print()

    # 2. The data scientist writes the tensor program against logical names
    #    and prepares it: parse -> statistics -> cost-based optimization ->
    #    compilation happen here, exactly once.
    program = (
        "sum(<i, Ai> in A) sum(<j, Aij> in Ai) sum(<k, Aik> in Ai) "
        "{ j -> beta * Aij * Aik * X(k) }"
    )
    statement = session.prepare(program, dense_shape=(size,))

    # 3. Execution is now just parameter binding: sweep β without ever
    #    re-optimizing.
    for beta in (0.5, 1.0, 2.0):
        result = statement.execute(beta=beta)
        expected = beta * (a.T @ (a @ x))
        print(f"beta={beta:4.1f}: result matches NumPy oracle:",
              np.allclose(result, expected))
    print()
    print("Candidate plan costs considered by the optimizer:")
    for name, cost in sorted(statement.optimization.candidate_costs.items(),
                             key=lambda kv: kv[1]):
        print(f"  {name:26s} {cost:12.1f}")
    print()
    print(statement.explain().split("\n\n")[0])    # the "== chosen plan ==" block
    print()
    print("How it executes:", statement.plan_source)


if __name__ == "__main__":
    main()
