"""Smoke test of the benchmark (tier-1; asserts no timings).

Runs ``run.py --smoke --trace`` twice with one seed and checks that every
workload and metric ``BENCHMARK.json`` names is printed exactly once with its
unit, that no request failed, that the typed backend never fell back to
Python loops, and that every count metric repeats exactly.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def test_smoke_run_prints_every_metric_and_repeats_counts(tmp_path):
    # The checker's own test: a corrupted entry, shape or scalar is flagged.
    subprocess.run([sys.executable, str(HERE / "reference.py")], check=True,
                   stdout=subprocess.DEVNULL, timeout=60)

    with open(ROOT / "BENCHMARK.json") as handle:
        benchmark = json.load(handle)
    outs = [tmp_path / "first.json", tmp_path / "second.json"]
    # The two runs only have to agree on counts, so they may share the cores.
    runs = [subprocess.Popen(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "--seed", "5",
         "--out", str(out)], stdout=subprocess.PIPE, text=True, cwd=ROOT) for out in outs]
    texts = [run.communicate(timeout=170)[0] for run in runs]
    assert [run.returncode for run in runs] == [0, 0], texts

    lines = [line.split() for line in texts[0].splitlines()]
    for workload in benchmark["workloads"]:
        assert NAME.fullmatch(workload["name"])
        header = ["==", workload["name"] + ":", "end-to-end", "metrics"]
        assert lines.count(header) == 1
        start = lines.index(header) + 1
        block = lines[start:start + len(benchmark["end_to_end"])]
        for metric in benchmark["end_to_end"]:
            assert NAME.fullmatch(metric["name"])
            printed = [line for line in block if line[0] == metric["name"]]
            assert len(printed) == 1 and printed[0][2] == metric["unit"], metric
    for metric in benchmark["per_layer"]:
        assert NAME.fullmatch(metric["name"])
        printed = [line for line in lines if line and line[0] == metric["name"]]
        assert len(printed) == 1 and printed[0][2] == metric["unit"], metric
    assert texts[0].count("failed_share=0.000000") == len(benchmark["workloads"])

    reports = []
    for out in outs:
        with open(out) as handle:
            reports.append(json.load(handle))
    for report in reports:
        assert report["unproven"] == ["shard_fanout_speedup", "numba_kernels"]
        assert report["environment"]["pinned_backend"] == "typed"
        assert report["traced"]["failed"] == 0
        for workload in report["workloads"].values():
            assert all(run["failed"] == 0 and run["attempted"] >= 1
                       for run in workload["runs"])
        metrics = report["traced"]["metrics"]
        assert metrics["execution.fallback_sums_total"] == 0
        assert metrics["execution.fallback_merges_total"] == 0
        assert metrics["core.plan_repeat_share"] == 1.0
    counts = [metric["name"] for metric in benchmark["per_layer"] if metric["unit"] == "count"]
    assert {"egraph.nodes_total", "core.plan_chars_total", "sdqlite.ast_nodes_total",
            "execution.out_entries_total"} <= set(counts)
    for name in counts:
        first, second = (report["traced"]["metrics"][name] for report in reports)
        assert first == second, name
