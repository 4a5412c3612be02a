"""The executor against its oracle: ``typed`` vs ``interpret`` per kernel.

Runs every Fig. 7 kernel through the STOREL pipeline on both execution
backends on one representative dataset each — plus TTM with ``B`` stored in
CSR, the one cell of the kernel × format matrix where ``typed`` used to fall
back to Python loops (``docs/backends.md``), and TTM with ``A`` stored in COO,
whose greedy pick carries a key-filtered join the optimizer must resolve into
a lookup (iterated, it runs about 40x slower; ``_check`` holds the row within
2x of the CSF one), and MMM and BATAX with ``A`` stored as a DOK hash-map
or a trie, which a run reads through the container's own levelized view
(built once, not walked per run; ``_check`` holds the MMM rows within 2x
of the CSR one) — checks both against the NumPy oracle, prints the
runtime table and the typed-over-interpret speedups, and records the raw
rows in ``BENCH_backends.json`` at the repository root.  The
first execution of every (kernel, backend) pair is timed separately as
``compile_ms`` and excluded from the steady-state ``mean_ms`` (it fills
one-time caches).

One more row, ``batax_flat_vs_nested``, runs BATAX as written (flat, its
``i == i2`` join an equality guard) against its row-nested form on ``typed``
with the greedy optimizer, on pdb1HYS at a fixed matrix scale of 8 (4500²,
60k non-zeros, CSR) whatever ``REPRO_MATRIX_SCALE`` says: the flat program
must reach the factorized plan of Fig. 9 and run within 2x of the nested one.

Run either as a pytest module (``pytest benchmarks/bench_backends.py -s``)
or directly (``python benchmarks/bench_backends.py``).  Scale factors come
from :mod:`_config` (``REPRO_MATRIX_SCALE``, ``REPRO_TENSOR_SCALE``).
"""

import json
import os
import platform
import time
from statistics import median

import numpy as np

from _config import MATRIX_SCALE, REPEATS, TENSOR_SCALE, print_report
from repro.data.suitesparse import load_matrix
from repro.execution import BACKENDS
from repro.execution.engine import PlanCache
from repro.kernels import BATAX, BATAX_NESTED, KERNELS
from repro.session import Session
from repro.storage import Catalog, CSRFormat, DenseFormat
from repro.workloads.harness import backend_shootout, reformatted_catalog
from repro.workloads.experiments import matrix_kernel_catalog, tensor_kernel_catalog
from repro.workloads.reporting import format_table, pivot_measurements

MATRIX_KERNELS = ("MMM", "SUMMM", "BATAX")

#: One representative dataset per kernel family (same as the paper's spotlights).
MATRIX_DATASET = "pdb1HYS"
TENSOR_DATASET = "Facebook"

#: ``(row label, kernel, formats to re-store)``; the label is the row's
#: ``kernel`` field in the report.
CASES = tuple((name, name, {}) for name in MATRIX_KERNELS) + (
    ("TTM", "TTM", {}),
    ("TTM/B-csr", "TTM", {"B": "csr"}),
    ("TTM/A-coo", "TTM", {"A": "coo"}),
    ("MTTKRP", "MTTKRP", {}),
    ("MMM/A-dok", "MMM", {"A": "dok"}),
    ("MMM/A-trie", "MMM", {"A": "trie"}),
    ("BATAX/A-dok", "BATAX", {"A": "dok"}),
    ("BATAX/A-trie", "BATAX", {"A": "trie"}),
)

#: Matrix scale of the flat-vs-nested BATAX row, and its timed runs per form.
FLAT_VS_NESTED_SCALE = 8
FLAT_VS_NESTED_RUNS = 21

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCH_backends.json")


def _shootout(label: str, kernel_name: str, formats: dict, repeats: int):
    if kernel_name in MATRIX_KERNELS:
        dataset = MATRIX_DATASET
        catalog = matrix_kernel_catalog(kernel_name, dataset, scale=MATRIX_SCALE)
    else:
        dataset = TENSOR_DATASET
        catalog = tensor_kernel_catalog(kernel_name, dataset, scale=TENSOR_SCALE)
    measurements = backend_shootout(
        KERNELS[kernel_name], reformatted_catalog(catalog, formats),
        backends=BACKENDS, dataset=dataset, repeats=repeats)
    for measurement in measurements:
        measurement.kernel = label
    return measurements


def run_flat_vs_nested() -> dict:
    """Flat BATAX against BATAX-nested, greedy plans on ``typed`` (median ms)."""
    coords, values, shape = load_matrix(MATRIX_DATASET, FLAT_VS_NESTED_SCALE,
                                        max_dim=10**9, sparse=True)
    catalog = Catalog()
    catalog.add(CSRFormat.from_coo("A", coords, values, shape))
    catalog.add(DenseFormat.from_dense("X", np.random.default_rng(101).uniform(0.1, 1.0, shape[1])))
    catalog.add_scalar("beta", 0.5)
    row = {"dataset": MATRIX_DATASET, "matrix_scale": FLAT_VS_NESTED_SCALE,
           "shape": list(shape), "nnz": int(len(values)), "format": "csr",
           "method": "greedy", "runs": FLAT_VS_NESTED_RUNS}
    results = {}
    for key, kernel in (("flat", BATAX), ("nested", BATAX_NESTED)):
        statement = Session(catalog, cache=PlanCache()).prepare(
            kernel.source, method="greedy", dense_shape=(shape[1],))
        results[key] = statement.execute()
        times = []
        for _ in range(FLAT_VS_NESTED_RUNS):
            start = time.perf_counter()
            statement.execute()
            times.append((time.perf_counter() - start) * 1e3)
        row[f"{key}_ms"] = round(median(times), 3)
        row[f"{key}_plan"] = statement.optimization.chosen_candidate
    row["flat_over_nested"] = round(row["flat_ms"] / row["nested_ms"], 3)
    row["equal"] = bool(np.allclose(results["flat"], results["nested"]))
    print_report(f"BATAX flat vs nested, {MATRIX_DATASET} at scale {FLAT_VS_NESTED_SCALE} "
                 f"({shape[0]}x{shape[1]}, {row['nnz']} nnz, CSR, greedy, typed): "
                 f"flat {row['flat_ms']} ms, nested {row['nested_ms']} ms "
                 f"({row['flat_over_nested']}x)")
    return row


def run_shootout(repeats: int = REPEATS) -> dict:
    """Run all cases × backends; return the report dict written to JSON."""
    measurements = []
    for case in CASES:
        measurements.extend(_shootout(*case, repeats))
    table = format_table(
        pivot_measurements(measurements, row_key="kernel", column_key="system"),
        title="Execution backends — run time (ms) per kernel "
              f"(matrix scale {MATRIX_SCALE}, tensor scale {TENSOR_SCALE})")
    report = {
        "benchmark": "backends",
        "matrix_scale": MATRIX_SCALE,
        "tensor_scale": TENSOR_SCALE,
        "repeats": repeats,
        "backends": list(BACKENDS),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": [m.as_row() for m in measurements],
        "typed_speedup_over_interpret": {},
        "batax_flat_vs_nested": run_flat_vs_nested(),
    }
    by_kernel: dict[str, dict[str, float]] = {}
    for measurement in measurements:
        if measurement.mean_ms is not None:
            by_kernel.setdefault(measurement.kernel, {})[measurement.system] = measurement.mean_ms
    speedup_rows = []
    for kernel, systems in by_kernel.items():
        typed, interpreted = systems.get("STOREL[typed]"), systems.get("STOREL[interpret]")
        if typed and interpreted:
            report["typed_speedup_over_interpret"][kernel] = round(interpreted / typed, 3)
            speedup_rows.append({"kernel": kernel, "interpret_ms": interpreted,
                                 "typed_ms": typed, "speedup": interpreted / typed})
    if speedup_rows:
        table += "\n" + format_table(
            speedup_rows, title="typed speedup over the reference interpreter")
    print_report(table)
    return report


def _check(report: dict) -> None:
    rows = report["rows"]
    failed = [row for row in rows if row["status"] != "ok"]
    assert not failed, f"backend failures: {failed}"
    assert all(row["correct"] for row in rows), "a backend returned an incorrect result"
    # The speedups must come from kernelized plans, not Python-loop
    # fallbacks: every typed row reports zero fallback sums and merges.
    for row in rows:
        if row["system"] == "STOREL[typed]":
            assert row["fallback_sums"] == 0 and row["fallback_merges"] == 0, \
                f"{row['kernel']}: typed fell back to Python loops " \
                f"({row['fallback_sums']} sums, {row['fallback_merges']} merges)"
    # The Table-3 rows (CSR, CSC and CSF storage) run on their declared
    # level facts: guards and bounds scans proven away, segment traversals
    # read as slices.  A zero counter is a silent loss of that fast path.
    for row in rows:
        if row["system"] == "STOREL[typed]" and "/" not in row["kernel"]:
            assert row["proven_guards"] > 0 and row["contiguous_reads"] > 0, \
                f"{row['kernel']}: typed ran without its level facts " \
                f"({row['proven_guards']} proven guards, " \
                f"{row['contiguous_reads']} contiguous reads)"
    speedups = report["typed_speedup_over_interpret"]
    assert set(speedups) == {label for label, _, _ in CASES}
    assert all(speedup > 1.0 for speedup in speedups.values()), speedups
    # TTM's greedy pick on COO is a key-filtered join: resolved into a
    # lookup it runs near the CSF row, left a loop it does not.
    typed_ms = {row["kernel"]: row["mean_ms"] for row in rows
                if row["system"] == "STOREL[typed]"}
    assert typed_ms["TTM/A-coo"] <= 2.0 * typed_ms["TTM"], typed_ms
    # Hash-map and trie storage is levelized once per stored version, not
    # walked on every run (which took MMM-dok ~20x off MMM-csr).
    for label in ("MMM/A-dok", "MMM/A-trie"):
        assert typed_ms[label] <= 2.0 * typed_ms["MMM"], typed_ms
    # The flat program reaches the factorized plan (it ran 100x off the
    # nested one while its join stayed a run-time probe).
    probe = report["batax_flat_vs_nested"]
    assert probe["equal"], "flat and nested BATAX disagree"
    assert probe["flat_over_nested"] <= 2.0, probe


def _write(report: dict) -> None:
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)


def test_backend_shootout(benchmark):
    """All cases × backends, correctness-checked; writes BENCH_backends.json."""
    report = benchmark.pedantic(run_shootout, rounds=1, iterations=1)
    _write(report)
    _check(report)


def main() -> None:
    report = run_shootout(repeats=max(3, REPEATS))
    _write(report)
    _check(report)
    print(f"wrote {_JSON_PATH}")


if __name__ == "__main__":
    import sys
    sys.exit(main())
