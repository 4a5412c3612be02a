#!/usr/bin/env python3
"""The repo's benchmark: end-to-end and per-layer numbers for the STOREL pipeline.

    python benchmarks/e2e/run.py [--seed N] [--smoke] [--trace] [--runs K] [--out FILE]

runs every workload of ``BENCHMARK.json`` one after another, each in fresh
subprocesses, checks every result against :mod:`reference`, and prints every
metric by name with its unit.  ``--trace`` adds the traced run that yields the
per-layer metrics; end-to-end numbers always come from untraced runs.

    python benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

is the single-workload form the benchmark driver uses: its last line of
standard output is one JSON object ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  See ``README.md`` beside this file.
"""

import time

_T0 = time.perf_counter()   # process start, as far as set-up time is concerned

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
from pathlib import Path
from statistics import geometric_mean as geomean, median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
sys.path.insert(0, str(SRC))

#: Set-ups per untraced run; ``setup_s`` is their median.  Each is a fresh
#: process, so it includes importing the package.
SETUPS = 3
SMOKE_SECONDS = 0.4
UNPROVEN = ["shard_fanout_speedup", "numba_kernels"]
CHILD_TIMEOUT_S = 170


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


# -- the measuring processes ------------------------------------------------------


def child(args) -> int:
    """Set up one workload in this fresh process and, unless asked for the
    set-up alone, run it; print one JSON object."""
    scale = "smoke" if args.smoke else "full"
    if args.child == "trace":
        import layers

        result = layers.run_traced(args.seed, scale, args.seconds, OUT_DIR)
    else:
        import workloads
        from yardstick import REFERENCE_S

        workload = workloads.WORKLOADS[args.workload](args.seed, scale)
        setup_wall_s = time.perf_counter() - _T0
        # Timings are reported at reference speed (see yardstick.py).
        yard = workload.yardstick
        setup_s = setup_wall_s * REFERENCE_S / yard.steady()
        if args.child == "setup":
            print(json.dumps({"setup_s": setup_s, "setup_wall_s": setup_wall_s}))
            return 0
        workload.prepare_reference()
        workload.run(args.seconds)
        rows = workload.rows_summary()
        result = {
            "setup_s": setup_s, "setup_wall_s": setup_wall_s,
            "latency_ms_p50": geomean([row["p50_ms"] for row in rows.values()]),
            "latency_wall_ms_p50": geomean([row["wall_p50_ms"] for row in rows.values()]),
            "throughput_rps": workload.throughput_rps(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "yardstick_ms_p50": median(yard.history) * 1e3,
            "rows": rows, "attempted": workload.attempted, "failed": workload.failed,
            "errors": workload.errors[:10], "sizes": workload.size,
        }
    result["environment"] = environment()
    print(json.dumps(result))
    return 0


def environment() -> dict:
    import numpy
    import scipy

    from repro.execution import HAVE_NUMBA
    from repro.session import Session
    from workloads import BACKEND

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "HAVE_NUMBA": bool(HAVE_NUMBA),
            "pinned_backend": BACKEND, "session_default_backend": Session().backend}


def spawn(kind: str, workload: str, args, seconds: float) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--child", kind,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(seconds)]
    if args.smoke:
        command.append("--smoke")
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S, cwd=ROOT)
    if done.returncode != 0:
        raise SystemExit(f"{kind} process of {workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def measure(workload: str, args, seconds: float) -> dict:
    """One untraced run: ``SETUPS`` fresh set-ups, the last one goes on to run."""
    setups = 1 if args.smoke else SETUPS
    setup_times = [spawn("setup", workload, args, seconds)["setup_s"]
                   for _ in range(setups - 1)]
    result = spawn("full", workload, args, seconds)
    setup_times.append(result["setup_s"])
    result["setup_s_all"] = setup_times
    result["setup_s"] = median(setup_times)
    return result


# -- output -------------------------------------------------------------------------


def final_line(result: dict, metrics: dict) -> str:
    correct = result["failed"] == 0 and result["attempted"] >= 1
    return json.dumps({"correct": correct, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def with_units(values: dict, declared: list) -> dict:
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def print_rows(workload: str, result: dict) -> None:
    print(f"== {workload}: rows (closed loop, warm-up sweep discarded; ms at reference "
          f"speed, yardstick p50 {result['yardstick_ms_p50']:.3f} ms)")
    for row, summary in result["rows"].items():
        tail = (f"  {summary['tail']} {summary['tail_ms']:.3f} ms"
                if "tail" in summary else "")
        print(f"  {row:<22} n={summary['n']:<6} p50 {summary['p50_ms']:.3f} ms{tail}"
              f"  (wall p50 {summary['wall_p50_ms']:.3f} ms)")
    share = result["failed"] / max(result["attempted"], 1)
    print(f"  attempted={result['attempted']} failed={result['failed']} "
          f"failed_share={share:.6f}")
    for error in result["errors"]:
        print(f"  ! {error}")


def print_metrics(title: str, metrics: dict) -> None:
    print(f"== {title}")
    for name, metric in metrics.items():
        print(f"  {name:<42} {metric['value']:.6g} {metric['unit']}")


def single(args, benchmark: dict) -> int:
    """The driver's form: one workload, one JSON object on the last line."""
    if args.trace:
        result = spawn("trace", args.workload, args, args.seconds)
        metrics = with_units(result["metrics"], benchmark["per_layer"])
        print_metrics("per-layer metrics (traced run)", metrics)
        print("\n".join(result["layer_report"]))
    else:
        result = measure(args.workload, args, args.seconds)
        print_rows(args.workload, result)
        metrics = with_units(result, benchmark["end_to_end"])
        print_metrics(f"{args.workload}: end-to-end metrics", metrics)
    print(final_line(result, metrics))
    return 0


def everything(args, benchmark: dict) -> int:
    """Every workload one after another, then the traced run if asked for."""
    report = {
        "git_sha": git_sha(), "cpu_count": os.cpu_count(), "seed": args.seed,
        "seconds": args.seconds, "scale": "smoke" if args.smoke else "full",
        "unproven": UNPROVEN, "workloads": {}}
    failed = 0
    for entry in benchmark["workloads"]:
        name = entry["name"]
        runs = []
        for _ in range(args.runs):
            result = measure(name, args, args.seconds)
            print_rows(name, result)
            print_metrics(f"{name}: end-to-end metrics",
                          with_units(result, benchmark["end_to_end"]))
            failed += result["failed"]
            report["environment"] = result.pop("environment")
            runs.append(result)
        report["workloads"][name] = {"why": entry["why"], "runs": runs}
    if args.trace:
        traced = spawn("trace", benchmark["workloads"][0]["name"], args, args.seconds)
        print_metrics("per-layer metrics (traced run)",
                      with_units(traced["metrics"], benchmark["per_layer"]))
        print("\n".join(traced["layer_report"]))
        failed += traced["failed"]
        traced.pop("environment")
        report["traced"] = traced
    print(f"unproven (not measurable on this machine): {', '.join(UNPROVEN)}")
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(report, handle, indent=1)
        print(f"wrote {args.out}")
    return 1 if failed else 0


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                              stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="run this workload only (driver form)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="timed seconds per run")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        help="also (or, with --workload, only) do the traced run")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes: checks that everything runs, in seconds")
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced runs per workload (compare.py wants >= 4)")
    parser.add_argument("--out", help="write the full report to this JSON file")
    parser.add_argument("--child", choices=("setup", "full", "trace"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"{SRC / 'repro'} not found: the benchmark measures the package "
              "in the checkout it is run from", file=sys.stderr)
        return 2
    benchmark = spec()
    if args.seconds is None:
        args.seconds = SMOKE_SECONDS if args.smoke else float(benchmark["run_seconds"])
    names = [entry["name"] for entry in benchmark["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"unknown workload {args.workload!r}; expected one of {names}")
    if args.child:
        return child(args)
    if args.workload:
        return single(args, benchmark)
    return everything(args, benchmark)


if __name__ == "__main__":
    sys.exit(main())
