"""Incremental view maintenance vs. full re-execution on Table-3 kernels.

The IVM subsystem's claim (``docs/ivm.md``): for small sparse updates, a
materialized view maintained through its derived delta program costs what
the *change* costs, while re-execution costs what the *query* costs.  This
benchmark registers two Table-3 kernels — MMM and MTTKRP — as views over
integer-valued sparse data, streams point-updates of at most 1% of the
tensor's nonzeros through :meth:`repro.serving.Server.update`, and times
each maintenance pass against a warm prepared statement re-executing the
kernel in full on the updated catalog.

Every kernel runs on the default backend (``typed``) at a scale where a
full re-execution takes tens of milliseconds.  ``apply_delta_ms`` is the
same update on a twin catalog without views (the storage write path alone)
and ``maintain_ms`` what view maintenance adds on top of it.

Integer-valued data makes every arithmetic step exact in floating point,
so the maintained view must be **bit-equal** to full re-execution under
the fuzz oracle's canonical normalization — the benchmark asserts exact
equality, not closeness.  A fixed-seed IVM fuzz campaign
(``repro.fuzz.ivm_campaign``) runs alongside and its summary is embedded
in the report, so ``BENCH_ivm.json`` carries both the speedup and the
evidence that the speedup is not bought with wrong answers.

Run as pytest (``pytest benchmarks/bench_ivm.py``) or directly
(``python benchmarks/bench_ivm.py [--smoke]``).  ``--smoke`` (or
``REPRO_SMOKE=1``) shrinks the data and the campaign for CI.
"""

import argparse
import json
import os
import platform
import time

import numpy as np

from _config import print_report
from repro.fuzz import canonical, ivm_campaign
from repro.kernels import KERNELS
from repro.serving import Server
from repro.storage import Catalog
from repro.storage.formats import CSCFormat, CSFFormat, CSRFormat
from repro.workloads.reporting import format_table

#: Master seed for data generation and the embedded fuzz campaign.
SEED = int(os.environ.get("REPRO_IVM_SEED", "20260807"))

#: Point-updates streamed per kernel (each at most 1% of the nonzeros).
UPDATES = int(os.environ.get("REPRO_IVM_UPDATES", "3"))

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCH_ivm.json")


def _int_sparse(rng, shape, density):
    """Integer-valued sparse data: exact FP arithmetic -> bit-equal results."""
    mask = rng.random(shape) < density
    values = rng.integers(1, 5, size=shape).astype(np.float64)
    return np.where(mask, values, 0.0)


def _mmm_catalog(rng, smoke):
    n = 1500 if smoke else 2000
    a = _int_sparse(rng, (n, n), 0.01)
    b = _int_sparse(rng, (n, n), 0.01)
    catalog = (Catalog()
               .add(CSRFormat.from_dense("A", a))
               .add(CSCFormat.from_dense("B", b)))
    return catalog, "A"


def _mttkrp_catalog(rng, smoke):
    dims, nnz = (64, 1024, 1024), (30000 if smoke else 100000)
    rank = 8
    coords = np.unique(np.column_stack(
        [rng.integers(0, extent, nnz) for extent in dims]), axis=0)
    values = rng.integers(1, 5, len(coords)).astype(np.float64)
    catalog = (Catalog()
               .add(CSFFormat.from_coo("A", coords, values, dims))
               .add(CSRFormat.from_dense("B", _int_sparse(rng, (dims[1], rank), 0.3)))
               .add(CSCFormat.from_dense("C", _int_sparse(rng, (dims[2], rank), 0.3))))
    return catalog, "A"


CASES = (("MMM", _mmm_catalog), ("MTTKRP", _mttkrp_catalog))


def bench_kernel(name, make_catalog, rng, smoke):
    """Stream updates through one kernel's view; return the report row."""
    catalog, target = make_catalog(rng, smoke)
    kernel = KERNELS[name]
    shape = catalog[target].shape
    nnz = catalog[target].nnz
    delta_nnz = max(1, nnz // 200)            # 0.5% of the nonzeros per update
    twin = Catalog().add(catalog[target])     # the write path without views

    with Server(catalog) as server:
        view = server.create_view(name, kernel.source)
        statement = server.session().prepare(kernel.source)
        statement.execute()                   # warm: optimize + lower once

        first_update_ms = None
        delta_ms, full_ms, apply_ms = [], [], []
        bit_equal = True
        for index in range(UPDATES):
            coords = np.column_stack(
                [rng.integers(0, extent, delta_nnz) for extent in shape])
            values = rng.integers(1, 5, delta_nnz).astype(np.float64)

            start = time.perf_counter()
            server.update(target, coords, values)
            elapsed = (time.perf_counter() - start) * 1e3
            start = time.perf_counter()
            twin.update(target, coords, values)
            applied = (time.perf_counter() - start) * 1e3
            if index == 0:
                first_update_ms = elapsed     # includes delta derivation + prepare
            else:
                delta_ms.append(elapsed)
                apply_ms.append(applied)

            start = time.perf_counter()
            recomputed = statement.execute()
            full_ms.append((time.perf_counter() - start) * 1e3)

            bit_equal &= (canonical(view.value(), abs_tol=0.0)
                          == canonical(recomputed, abs_tol=0.0))

        maintained_by_delta = view.delta_refreshes == UPDATES
        stats = server.stats.snapshot()

    mean_delta = (sum(delta_ms) / len(delta_ms)) if delta_ms else first_update_ms
    mean_apply = (sum(apply_ms) / len(apply_ms)) if apply_ms else applied
    mean_full = sum(full_ms) / len(full_ms)
    return {
        "kernel": name,
        "tensor": target,
        "nnz": nnz,
        "delta_nnz": delta_nnz,
        "updates": UPDATES,
        "first_update_ms": round(first_update_ms, 3),
        "delta_mean_ms": round(mean_delta, 3),
        "apply_delta_ms": round(mean_apply, 3),
        "maintain_ms": round(mean_delta - mean_apply, 3),
        "full_mean_ms": round(mean_full, 3),
        "speedup": round(mean_full / mean_delta, 2),
        "maintained_by_delta": maintained_by_delta,
        "bit_equal": bit_equal,
        "maintenance_mean_ms": stats["maintenance_mean_ms"],
    }


def run_bench(smoke: bool | None = None) -> dict:
    """Both kernels plus the embedded fuzz campaign; returns the JSON report."""
    if smoke is None:
        smoke = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
    rng = np.random.default_rng(SEED)
    rows = [bench_kernel(name, make, rng, smoke) for name, make in CASES]

    cases = 60 if smoke else 250
    report = ivm_campaign(SEED, cases, updates_per_case=4)
    campaign = {
        "seed": SEED,
        "cases_run": report.cases_run,
        "skipped": report.skipped,
        "divergences": len(report.divergences),
        "elapsed_s": round(report.elapsed, 2),
        "ok": report.ok,
    }

    table = format_table(rows, title=f"IVM — delta maintenance vs full "
                                     f"re-execution ({UPDATES} updates of "
                                     f"<=1% nnz per kernel)")
    print_report(table + f"\nfuzz campaign: {report.summary()}")
    return {
        "benchmark": "ivm",
        "seed": SEED,
        "smoke": smoke,
        "backend": Server().backend,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
        "campaign": campaign,
        "min_speedup": min(row["speedup"] for row in rows),
    }


def _check(report: dict) -> None:
    assert all(row["bit_equal"] for row in report["rows"]), \
        "maintained view diverged from full re-execution"
    assert all(row["maintained_by_delta"] for row in report["rows"]), \
        "cost model fell back to full refresh at benchmark scale"
    assert report["campaign"]["ok"], "IVM fuzz campaign found divergences"
    # The acceptance point: small-delta maintenance costs clearly less than
    # half a full re-execution on every kernel (smoke scale is sized for CI
    # wall-clock, not for the ratio, so it only sanity-checks).
    floor = 1.5 if report["smoke"] else 2.5
    assert report["min_speedup"] >= floor, \
        f"expected >= {floor}x from delta maintenance, got {report['min_speedup']}x"


def test_ivm_bench(benchmark):
    """Both kernels, bit-equality-checked; writes BENCH_ivm.json."""
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
    _check(report)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="shrunk data + campaign for CI smoke runs")
    args = parser.parse_args()
    report = run_bench(smoke=True if args.smoke else None)
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)
    _check(report)
    print(f"wrote {_JSON_PATH} (min speedup {report['min_speedup']}x, "
          f"campaign ok={report['campaign']['ok']})")


if __name__ == "__main__":
    import sys
    sys.exit(main())
