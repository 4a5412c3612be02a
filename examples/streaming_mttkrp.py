"""A streaming MTTKRP kept fresh by incremental view maintenance.

The MTTKRP ``Q(i, j) = Σ_kl A(i,k,l) · B(k,j) · C(l,j)`` is the paper's
running example — and in streaming settings (new interactions arriving in a
tensor of user × item × time events) the tensor changes by a handful of
entries per tick while the factor matrices stay put.  Re-running the whole
kernel per tick wastes everything; this example registers it as a
materialized view (``docs/ivm.md``) and feeds a stream of sparse updates
through ``Server.update``, printing what the delta path costs versus full
re-execution, then verifies both agree exactly.

Run with::

    python examples/streaming_mttkrp.py
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

import numpy as np

from repro.data.frostt import load_tensor
from repro.data.synthetic import random_sparse_matrix
from repro.kernels import MTTKRP
from repro.serving import Server
from repro.storage import Catalog, CSCFormat, CSFFormat, CSRFormat


def main() -> None:
    coords, values, dims = load_tensor("Facebook", scale=48)
    rank = 8
    b = random_sparse_matrix(dims[1], rank, 2.0 ** -4, seed=10)
    c = random_sparse_matrix(dims[2], rank, 2.0 ** -4, seed=11)

    server = Server(
        Catalog()
        .add(CSFFormat.from_coo("A", coords, values, dims))
        .add(CSRFormat.from_dense("B", b))
        .add(CSCFormat.from_dense("C", c)))
    view = server.create_view("mttkrp", MTTKRP.source,
                              dense_shape=(dims[0], rank))
    print(f"A: {dims} with {len(values)} nonzeros; factors {dims[1]}x{rank}, "
          f"{dims[2]}x{rank}")
    print("materialized:", MTTKRP.source.strip())
    print()

    # The stream: each tick adds a few new events to A.
    rng = np.random.default_rng(7)
    for tick in range(5):
        n = int(rng.integers(2, 6))
        delta_coords = np.column_stack(
            [rng.integers(0, extent, size=n) for extent in dims])
        delta_values = rng.random(n).round(3)
        start = time.perf_counter()
        server.update("A", delta_coords, delta_values)
        elapsed = (time.perf_counter() - start) * 1e3
        how = "delta" if view.delta_refreshes else "full "
        print(f"tick {tick}: +{n} entries -> maintained ({how}) "
              f"in {elapsed:7.2f} ms")

    maintained = view.value()

    start = time.perf_counter()
    recomputed = server.execute(MTTKRP.source, dense_shape=(dims[0], rank))
    full_ms = (time.perf_counter() - start) * 1e3
    print(f"\nfull re-execution for comparison: {full_ms:7.2f} ms")

    assert np.allclose(maintained, recomputed)
    print("maintained view == full re-execution: OK")

    stats = server.stats.snapshot()
    print(f"maintenance: {stats['delta_executions']} delta, "
          f"{stats['full_refreshes']} full, "
          f"mean {stats['maintenance_mean_ms']:.2f} ms")
    server.close()


if __name__ == "__main__":
    main()
