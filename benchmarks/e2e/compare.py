#!/usr/bin/env python3
"""Compare two reports of ``run.py --out``: ``compare.py A.json B.json``.

A is the baseline, B the candidate.  For every (workload, end-to-end metric)
the medians over each report's runs are compared under the bound
``BENCHMARK.json`` fixes for the metric, and one row is printed:

* ``ok``         B's median is not worse than A's by more than the bound;
* ``regressed``  it is;
* ``unresolved`` the run-to-run spread of either side (distance between the
  first and third quartile, as a share of the median) is wider than the
  bound, so the comparison decides nothing.  Needs ``--runs 4`` or more on
  both sides; with fewer runs the spread is unknown and reads ``n/a``.

A run with a failed request is a regression whatever its timings.  When both
reports hold a traced run of the same seed and scale, every count metric must
be exactly equal.  Exits non-zero on a regression or a count mismatch.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def spread(values: list[float]) -> float | None:
    """Interquartile distance as a share of the median (needs four runs)."""
    if len(values) < 4:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def compare(a: dict, b: dict, benchmark: dict, out=sys.stdout) -> int:
    bad = unresolved = 0
    print(f"{'workload':<14} {'metric':<16} {'A median':>12} {'B median':>12} "
          f"{'worse by':>9} {'bound':>6} {'spread':>7}  verdict", file=out)
    for entry in benchmark["workloads"]:
        name = entry["name"]
        runs_a, runs_b = a["workloads"][name]["runs"], b["workloads"][name]["runs"]
        failed = sum(run["failed"] for run in runs_b)
        if failed:
            bad += 1
            print(f"{name:<14} failed requests in B: {failed}  regressed", file=out)
        for metric in benchmark["end_to_end"]:
            key, bound = metric["name"], metric["bound"]
            values_a = [run[key] for run in runs_a]
            values_b = [run[key] for run in runs_b]
            median_a, median_b = statistics.median(values_a), statistics.median(values_b)
            worse = (median_b - median_a) / median_a
            if metric["better"] == "higher":
                worse = -worse
            spreads = [s for s in (spread(values_a), spread(values_b)) if s is not None]
            widest = max(spreads) if spreads else None
            if widest is not None and widest > bound:
                verdict = "unresolved"
                unresolved += 1
            elif worse > bound:
                verdict = "regressed"
                bad += 1
            else:
                verdict = "ok"
            shown = "n/a" if widest is None else f"{widest:.3f}"
            print(f"{name:<14} {key:<16} {median_a:>12.5g} {median_b:>12.5g} "
                  f"{worse:>+9.3f} {bound:>6.2f} {shown:>7}  {verdict}", file=out)
    bad += compare_counts(a, b, benchmark, out)
    print(f"{bad} regressed or mismatched, {unresolved} unresolved", file=out)
    return 1 if bad else 0


def compare_counts(a: dict, b: dict, benchmark: dict, out) -> int:
    if "traced" not in a or "traced" not in b:
        print("counts: not compared (a report has no traced run)", file=out)
        return 0
    if (a["seed"], a["scale"]) != (b["seed"], b["scale"]):
        print("counts: not compared (different seed or scale)", file=out)
        return 0
    mismatched = 0
    for metric in benchmark["per_layer"]:
        if metric["unit"] != "count":
            continue
        key = metric["name"]
        left, right = a["traced"]["metrics"][key], b["traced"]["metrics"][key]
        if left != right:
            mismatched += 1
            print(f"count {key}: {left} != {right}  mismatch", file=out)
    if not mismatched:
        print("counts: every count metric is exactly equal", file=out)
    return mismatched


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path) as handle:
            reports.append(json.load(handle))
    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    return compare(*reports, benchmark)


if __name__ == "__main__":
    sys.exit(main())
