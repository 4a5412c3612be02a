"""Command-line driver for differential fuzz campaigns.

Examples::

    # a quick local smoke run
    PYTHONPATH=src python -m repro.fuzz --seed 1 --cases 200

    # a long overnight campaign, shrinking failures into fuzz-failures/
    PYTHONPATH=src python -m repro.fuzz --seed 1 --cases 100000 --out fuzz-failures

Exits non-zero when any divergence is found; shrunk repro files written to
``--out`` are ready to be copied into ``tests/corpus/`` as permanent
regression tests once the underlying bug is fixed.

Three flags switch on parts of the case model (``repro.fuzz.oracle``); each
also gives every case a seeded update sequence, and they combine:

* ``--concurrent``: reader threads execute each case through
  ``repro.serving.Server`` while a writer applies random catalog updates;
  every observed result must match the program evaluated serially at some
  update prefix;
* ``--ivm``: the program is registered as materialized views while random
  sparse point-updates flow through ``Server.update``; every maintained
  value must equal full re-execution at that state;
* ``--adaptive``: prepared statements execute repeatedly with profiling on
  every run and an aggressive re-optimize threshold while sparse updates
  drift the data; every result — before and after each transparent
  re-preparation — must equal the serial reference at that state::

    PYTHONPATH=src python -m repro.fuzz --adaptive --seed 1 --cases 200
"""

from __future__ import annotations

import argparse
import sys

from .oracle import campaign


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fuzz",
        description="Differential fuzzing: random SDQLite programs x formats "
                    "x backends x optimizer methods, optionally under "
                    "updates, concurrent readers, views and feedback.")
    parser.add_argument("--seed", type=int, default=1,
                        help="master seed; every case derives from it (default 1)")
    parser.add_argument("--cases", type=int, default=200,
                        help="number of generated cases (default 200)")
    parser.add_argument("--fuel", type=int, default=14,
                        help="program-size budget per case (default 14)")
    parser.add_argument("--time-budget", type=float, default=None, metavar="SECONDS",
                        help="stop cleanly after this much wall-clock time")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="write shrunk failures into DIR as corpus files")
    parser.add_argument("--no-shrink", action="store_true",
                        help="report raw failures without delta-debugging them")
    parser.add_argument("--max-failures", type=int, default=5,
                        help="stop after this many divergences (default 5)")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress lines")
    parser.add_argument("--concurrent", action="store_true",
                        help="serial-equivalence mode: race executions against "
                             "catalog updates through the serving layer")
    parser.add_argument("--ivm", action="store_true",
                        help="view-maintenance mode: maintained views vs. full "
                             "re-execution after random sparse updates")
    parser.add_argument("--adaptive", action="store_true",
                        help="feedback-loop mode: repeated profiled executions "
                             "with mid-campaign re-optimization vs. the serial "
                             "reference after random sparse updates")
    parser.add_argument("--readers", type=int, default=3,
                        help="concurrent mode: reader threads per case (default 3)")
    parser.add_argument("--updates", type=int, default=None,
                        help="updates per case with a mode on (default 5 "
                             "concurrent, 4 ivm, 3 adaptive)")
    parser.add_argument("--executions", type=int, default=None,
                        help="executions per reader (concurrent) or per "
                             "statement per state (adaptive) (default 4 "
                             "concurrent, 3 adaptive)")
    args = parser.parse_args(argv)

    report = campaign(
        args.seed, args.cases,
        concurrent=args.concurrent, views=args.ivm, feedback=args.adaptive,
        updates_per_case=args.updates,
        readers=args.readers,
        executions=args.executions,
        shrink=not args.no_shrink,
        out_dir=args.out,
        time_budget=args.time_budget,
        max_failures=args.max_failures,
        progress=not args.quiet,
        case_options={"fuel": args.fuel},
    )
    print(report.summary())
    for divergence in report.divergences:
        print("\n--- divergence " + "-" * 50)
        print(divergence.describe())
    for path in report.corpus_paths:
        print(f"shrunk repro written to {path}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
