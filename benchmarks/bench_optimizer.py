"""Saturation-engine benchmark: what the two-stage e-graph optimization costs
per kernel, and whether the plan it extracts is as cheap as it must be.

For each of the six programs the golden table pins
(``tests/golden/optimizer_golden.json``: the e2e benchmark's
``cold_oneshot`` programs on their Table-3 storage formats) the full
two-stage optimization runs at the optimizer's production limits, best of
``repeats``.  Each row reports:

* saturation time, stage 1 + stage 2 (the runners' own clocks);
* per stage, why saturation stopped (``saturated`` / ``iter_limit`` /
  ``node_limit`` / ``time_limit``), and the stage-2 e-nodes, e-classes and
  the matches both stages collected;
* the plan-cost check: the extracted cost must not exceed the cheapest
  greedy candidate (``candidate_costs``; the greedy pick seeds stage 2, so a
  costlier extraction is a bug), and plan and cost must equal the golden
  table's entry wherever the table has the kernel.

Run as a pytest module (``pytest benchmarks/bench_optimizer.py -s``) or
directly (``python benchmarks/bench_optimizer.py``); both write
``BENCH_optimizer.json`` and fail when a check does.  ``REPRO_SMOKE=1`` runs
one repeat instead of three (the checks are the same).
"""

import json
import os
import platform
import sys

from _config import print_report
from repro.core.optimizer import Optimizer
from repro.core.statistics import Statistics
from repro.kernels import KERNELS
from repro.sdqlite import pretty
from repro.workloads.reporting import format_table

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(_ROOT, "tests"))
from test_optimizer_golden import TABLE3, _catalog, _golden  # noqa: E402

#: Smoke mode (CI): one repeat, same kernels, same checks.
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")
REPEATS = 1 if SMOKE else 3

_JSON_PATH = os.path.join(_ROOT, "BENCH_optimizer.json")


def _optimize(kernel: str, repeats: int):
    """Best-of-``repeats`` e-graph optimization; returns (result, saturation_ms).

    Saturation is deterministic, so repeats only tighten the timing.
    """
    catalog = _catalog(kernel)
    stats = Statistics.from_catalog(catalog)
    best, best_ms = None, float("inf")
    for _ in range(max(1, repeats)):
        result = Optimizer(stats).optimize(KERNELS[kernel].program, catalog.mappings(),
                                           method="egraph")
        elapsed = result.stage1.runner.time_ms + result.stage2.runner.time_ms
        if elapsed < best_ms:
            best, best_ms = result, elapsed
    return best, best_ms


def _row(kernel: str, result, saturation_ms: float, golden: dict) -> dict:
    stage1, stage2 = result.stage1.runner, result.stage2.runner
    greedy = min(result.candidate_costs.values())
    pinned = golden.get(f"{kernel}-egraph")
    if pinned is None:
        verdict = "absent"
    elif (pretty(result.plan), repr(result.cost)) == (pinned["plan"], pinned["cost"]):
        verdict = "equal"
    else:
        verdict = "DIFFERS"
    return {
        "kernel": kernel,
        "saturation_ms": round(saturation_ms, 2),
        "stage1_ms": round(stage1.time_ms, 2),
        "stage2_ms": round(stage2.time_ms, 2),
        "stage1_stop": stage1.stop_reason,
        "stage2_stop": stage2.stop_reason,
        "nodes": stage2.nodes,
        "classes": stage2.classes,
        "matches": stage1.total_matches + stage2.total_matches,
        "cost": result.cost,
        "greedy_cost": greedy,
        "cost_le_greedy": result.cost <= greedy * (1 + 1e-12),
        "golden": verdict,
    }


def run_benchmark(repeats: int = REPEATS) -> dict:
    """Optimize every kernel; return the report dict."""
    golden = _golden()
    rows = [_row(kernel, *_optimize(kernel, repeats), golden) for kernel in sorted(TABLE3)]
    report = {
        "benchmark": "optimizer",
        "data": "tests/test_optimizer_golden.py catalogs (cold_oneshot sizes, Table-3 formats)",
        "optimizer": dict(Optimizer.__init__.__kwdefaults__),
        "repeats": repeats,
        "smoke": SMOKE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "rows": rows,
    }
    print_report(format_table(
        rows, columns=["kernel", "saturation_ms", "stage1_stop", "stage2_stop", "nodes",
                       "classes", "matches", "cost_le_greedy", "golden"],
        title=f"Two-stage saturation per kernel (best of {repeats}, production limits)"))
    return report


def _write(report: dict) -> None:
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)


def _check(report: dict) -> None:
    costlier = [row["kernel"] for row in report["rows"] if not row["cost_le_greedy"]]
    assert not costlier, f"extracted plan costlier than greedy's pick: {costlier}"
    moved = [row["kernel"] for row in report["rows"] if row["golden"] == "DIFFERS"]
    assert not moved, f"plan or cost differs from the golden table: {moved}"


def test_optimizer_engine_benchmark(benchmark):
    """Every kernel once through the engine; asserts the plan-cost checks."""
    report = benchmark.pedantic(run_benchmark, rounds=1, iterations=1)
    _write(report)
    _check(report)


def main() -> None:
    report = run_benchmark()
    _write(report)
    _check(report)
    print(f"wrote {_JSON_PATH}")


if __name__ == "__main__":
    sys.exit(main())
