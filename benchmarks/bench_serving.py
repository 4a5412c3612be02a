"""Shared plan cache vs per-session caches under concurrent serving load.

The serving layer's claim (``docs/serving.md``): when many clients issue the
*same* queries, preparation — parse, statistics, cost-based optimization,
lowering — should be paid once globally, not once per client connection.
This benchmark drives a closed-loop workload of ``CLIENTS`` concurrent
threads, each opening ``CONNECTIONS`` short-lived connections that issue
``REQUESTS`` identical queries, in two modes:

* ``private`` — every connection is a fresh :class:`repro.session.Session`
  with its own plan cache: the optimizer runs once *per connection* (the
  pre-serving architecture);
* ``shared``  — every connection prepares its statement on one
  :class:`repro.serving.Server`: the optimizer runs once *per query,
  globally*, and every other connection — concurrent ones included, via
  single-flight coalescing — hits the shared cache.

Per-request latencies are recorded individually, so the report carries
p50/p99 for both modes alongside throughput; rows land in
``BENCH_serving.json`` at the repository root together with the server's own
stats snapshot (hit rate, coalesced preparations, peak in-flight).

Run as pytest (``pytest benchmarks/bench_serving.py``) or directly
(``python benchmarks/bench_serving.py [--smoke]``).  ``--smoke`` (or
``REPRO_SMOKE=1``) shrinks the workload for CI.
"""

import argparse
import json
import os
import platform
import threading
import time

import numpy as np

from _config import print_report
from repro import storel
from repro.execution.engine import PlanCache
from repro.kernels import KERNELS
from repro.serving import Server, percentile
from repro.session import Session
from repro.workloads.experiments import synthetic_catalog
from repro.workloads.reporting import format_table

#: Concurrent client threads (the ISSUE's acceptance point: 8).
CLIENTS = int(os.environ.get("REPRO_SERVING_CLIENTS", "8"))

#: Size of the synthetic point-query matrix.
SIZE = int(os.environ.get("REPRO_SERVING_SIZE", "24"))

#: Saturation limits for the egraph rows — small enough that one preparation
#: is ~200 ms, large enough that the rewrite rules genuinely fire.
EGRAPH_OPTIONS = {"iter_limit": 4, "node_limit": 1200, "time_limit": 3600.0}

#: (row label, optimizer method, optimizer options).  The greedy row shows
#: the floor (cheap optimizer, modest win); the egraph row is the realistic
#: serving regime where per-connection optimization dominates.
METHODS = (("greedy", "greedy", {}), ("egraph", "egraph", EGRAPH_OPTIONS))

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCH_serving.json")


def _workload(smoke: bool) -> tuple[int, int]:
    """(connections per client, requests per connection)."""
    return (2, 2) if smoke else (4, 4)


def _run_clients(run_connection, connections: int) -> tuple[list, float]:
    """Drive CLIENTS threads × ``connections`` each; return (latencies_ms, wall_s).

    ``run_connection(latencies)`` serves one connection, appending one
    per-request latency (ms) per request.
    """
    barrier = threading.Barrier(CLIENTS + 1)
    per_thread: list[list[float]] = [[] for _ in range(CLIENTS)]
    errors: list[BaseException] = []

    def client(index: int) -> None:
        try:
            barrier.wait()
            for _ in range(connections):
                run_connection(per_thread[index])
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return [ms for bucket in per_thread for ms in bucket], wall


def bench_pair(label: str, method: str, options: dict, connections: int,
               requests: int) -> list[dict]:
    """The private-vs-shared pair of rows for one optimizer method."""
    kernel = KERNELS["BATAX"]
    catalog = synthetic_catalog("BATAX", 0.05, rows=SIZE, cols=SIZE)
    shape = (SIZE,)
    reference = storel.run(kernel.source, catalog, backend="interpret",
                           dense_shape=shape)

    def check(result) -> None:
        if not np.allclose(result, reference, rtol=1e-6, atol=1e-6):
            raise AssertionError(f"{label}: served result diverged from reference")

    def private_connection(latencies: list[float]) -> None:
        session = Session(catalog, method=method,
                          optimizer_options=dict(options), cache=PlanCache())
        statement = session.prepare(kernel.source, dense_shape=shape)
        for _ in range(requests):
            start = time.perf_counter()
            check(statement.execute())
            latencies.append((time.perf_counter() - start) * 1_000.0)

    private_latencies, private_wall = _run_clients(private_connection, connections)

    # The default configuration, as a user gets it: one executing request
    # at a time (docs/serving.md), the other clients queue on the gate.
    server = Server(catalog, method=method, optimizer_options=dict(options))

    def shared_connection(latencies: list[float]) -> None:
        statement = server.prepare(kernel.source, dense_shape=shape)
        for _ in range(requests):
            start = time.perf_counter()
            check(statement.execute())
            latencies.append((time.perf_counter() - start) * 1_000.0)

    shared_latencies, shared_wall = _run_clients(shared_connection, connections)
    stats = server.stats.snapshot()
    total = CLIENTS * connections * requests
    assert len(private_latencies) == len(shared_latencies) == total

    def row(mode: str, latencies: list[float], wall: float) -> dict:
        ordered = sorted(latencies)
        return {
            "method": label,
            "mode": mode,
            "requests": total,
            "throughput_rps": round(total / wall, 2),
            "wall_s": round(wall, 4),
            "latency_p50_ms": round(percentile(ordered, 0.50), 4),
            "latency_p99_ms": round(percentile(ordered, 0.99), 4),
            "latency_mean_ms": round(sum(latencies) / total, 4),
        }

    private_row = row("private", private_latencies, private_wall)
    shared_row = row("shared", shared_latencies, shared_wall)
    shared_row["speedup"] = round(shared_row["throughput_rps"]
                                  / private_row["throughput_rps"], 3)
    shared_row["hit_rate"] = stats["hit_rate"]
    shared_row["server_stats"] = stats
    return [private_row, shared_row]


def run_bench(smoke: bool | None = None) -> dict:
    """All method pairs; return the report dict written to JSON."""
    if smoke is None:
        smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    connections, requests = _workload(smoke)
    rows = []
    for label, method, options in METHODS:
        rows.extend(bench_pair(label, method, options, connections, requests))
    display = [{key: value for key, value in row.items() if key != "server_stats"}
               for row in rows]
    table = format_table(display,
                         title=f"Serving — shared plan cache vs per-session caches "
                               f"({CLIENTS} clients x {connections} connections "
                               f"x {requests} identical requests, "
                               f"size {SIZE})")
    print_report(table)
    return {
        "benchmark": "serving",
        "clients": CLIENTS,
        "connections_per_client": connections,
        "requests_per_connection": requests,
        "backend": Server().backend,
        "size": SIZE,
        "smoke": smoke,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
        "best_speedup": max(row.get("speedup", 0.0) for row in rows),
    }


def _check(report: dict) -> None:
    # The acceptance point: at 8 concurrent clients on an identical-query
    # workload, the shared cache at least doubles throughput.
    assert report["best_speedup"] >= 2.0, \
        f"expected >=2x from the shared plan cache, best was {report['best_speedup']}x"
    shared_rows = [row for row in report["rows"] if row["mode"] == "shared"]
    assert all(row["hit_rate"] > 0.5 for row in shared_rows)


def _write(report: dict) -> None:
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)


def test_serving_bench(benchmark):
    """Both method pairs, correctness-checked; writes BENCH_serving.json."""
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    _write(report)
    _check(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk workload for CI smoke runs")
    args = parser.parse_args()
    report = run_bench(smoke=True if args.smoke else None)
    _write(report)
    _check(report)
    print(f"wrote {_JSON_PATH} (best speedup {report['best_speedup']}x)")


if __name__ == "__main__":
    import sys
    sys.exit(main())
