"""Adaptive loop under data drift: frozen formats lose, the loop recovers.

The scenario is the one the online advisor exists for (``docs/adaptive.md``):
a long-lived session whose *data* drifts underneath a storage decision that
was perfectly reasonable when it was made.  A matrix arrives dense-ish
(~55% non-zeros, stored ``dense`` — the format the data loader naturally
produces) and is repeatedly hit with the same sum-of-matvec workload; then
the data drifts sparse (~3% non-zeros).  Three contenders:

* **frozen** — the initial ``dense`` choice, never revisited (a static
  configuration picked at time zero);
* **best-static** — per phase, the best single format a prescient
  administrator could have picked (the per-phase oracle);
* **adaptive** — a session with the feedback loop profiling sampled runs and
  an :class:`~repro.advisor.OnlineAdvisor` stepping after each phase's
  workload, auto-applying format changes under the regression guard.

Acceptance (asserted, so a regression fails the bench):

* the adaptive session's steady-state time ends within ``TOLERANCE``
  (1.15x) of the best static configuration in **every** phase, and
* the frozen configuration is at least ``FROZEN_LOSS`` (1.5x) slower than
  the best static in at least one phase — i.e. the drift is real and the
  loop recovered speed a static configuration lost;
* with the feedback loop *disabled*, prepared-statement execution on the
  Fig. 7 kernels stays within ``OVERHEAD_TOLERANCE`` of a session built
  without the loop at all (the profiling hooks are free when off).

Results go to ``BENCH_adaptive.json`` at the repository root.  Run as a
pytest module (``pytest benchmarks/bench_adaptive.py``) or directly
(``python benchmarks/bench_adaptive.py``); ``REPRO_SMOKE=1`` shrinks sizes
and repeats for CI.
"""

import json
import os
import platform
import time

import numpy as np

from _config import print_report
from repro.advisor import OnlineAdvisor
from repro.core.feedback import FeedbackConfig
from repro.kernels import KERNELS
from repro.session import Session
from repro.storage import DenseFormat
from repro.storage.convert import reformat
from repro.workloads.experiments import synthetic_catalog
from repro.workloads.reporting import format_table

#: Smoke mode (CI): smaller matrices, fewer overhead blocks, looser overhead bar.
SMOKE = os.environ.get("REPRO_SMOKE", "") not in ("", "0")

#: Adaptive steady state must be within this factor of the per-phase best
#: static configuration.
TOLERANCE = 1.15

#: The frozen configuration must lose at least this much in some phase.
FROZEN_LOSS = 1.5

#: Disabled-loop execution must stay within this factor of a loop-free
#: session.  The real bar is 2%; smoke runs on shared CI boxes get headroom.
OVERHEAD_TOLERANCE = 1.15 if SMOKE else 1.02

#: Sized for the ``typed`` executor: every timed request of the drift
#: scenario (0.5-50 ms) and of the overhead check (1-4 ms) is work, not the
#: fixed per-request overhead the tolerances below would otherwise measure.
SIZE = 1024 if SMOKE else 1536
OVERHEAD_SIZE = 256 if SMOKE else 384
REPEATS = 15
#: Overhead check: ``OVERHEAD_BLOCKS`` adjacent without/with block pairs,
#: each block ``OVERHEAD_RUNS`` timed executions (plus one warm-up); the
#: reported ratio is the median over the per-pair ratios.
OVERHEAD_BLOCKS = 3 if SMOKE else 9
OVERHEAD_RUNS = 5 if SMOKE else 10

PROGRAM = "sum(<i, Ai> in A) sum(<j, v> in Ai) v * X(j)"

#: (phase name, non-zero density, data seed) — the drift.
PHASES = (("arrival", 0.55, 11), ("drifted", 0.03, 12))

#: The single-format configurations the static grid measures.
STATIC_FORMATS = ("dense", "csr")

#: What the data loader produced at time zero — the frozen administrator.
FROZEN = "dense"

#: Fig. 7 kernels the overhead check runs (matrix kernels; the rank-3 ones
#: exercise the same profiling hooks), on 5%-dense synthetic matrices.
OVERHEAD_KERNELS = ("MMM", "BATAX")

_JSON_PATH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "BENCH_adaptive.json")


def phase_matrix(density: float, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dense = rng.random((SIZE, SIZE))
    return np.where(rng.random((SIZE, SIZE)) < density, dense, 0.0)


X_VECTOR = np.random.default_rng(9).random(SIZE)


def interleaved_mins(statements: dict, repeats: int = REPEATS) -> dict:
    """Best-of-``repeats`` per statement, round-robin interleaved.

    Interleaving matters: wall-clock drift (thermal throttling, noisy
    neighbours) hits every contender equally instead of whichever happened
    to be measured last — the same discipline
    :meth:`repro.advisor.OnlineAdvisor._measure_pair` uses for its guard.
    """
    for statement in statements.values():
        statement.execute()
    best = {label: float("inf") for label in statements}
    order = list(statements)
    for round_index in range(repeats):
        # Reverse the visiting order every other round so position-within-
        # round effects (GC pauses triggered by a neighbour's allocations)
        # do not systematically tax whichever contender runs second.
        for label in order if round_index % 2 == 0 else reversed(order):
            statement = statements[label]
            start = time.perf_counter()
            statement.execute()
            best[label] = min(best[label], time.perf_counter() - start)
    return {label: value * 1_000.0 for label, value in best.items()}


def static_session(fmt: str, density: float, seed: int) -> Session:
    session = Session()
    session.register(reformat(DenseFormat.from_dense("A", phase_matrix(density, seed)),
                              fmt))
    session.register(DenseFormat.from_dense("X", X_VECTOR))
    return session


def run_phases() -> list[dict]:
    """One adaptive session through the drift, measured against the statics.

    Per phase: the adaptive session sees the new data, its advisor steps,
    and its steady state is timed *interleaved* with a fresh static session
    per candidate format over the same phase data.
    """
    session = Session(feedback=FeedbackConfig(sample_every=4))
    _, first_density, first_seed = PHASES[0]
    session.register(DenseFormat.from_dense("A", phase_matrix(first_density, first_seed)))
    session.register(DenseFormat.from_dense("X", X_VECTOR))
    advisor = OnlineAdvisor(session, min_estimated_speedup=1.2,
                            guard_ratio=1.1, backoff=0.0, rounds=2)
    phases = []
    for index, (name, density, seed) in enumerate(PHASES):
        if index > 0:
            # The drift: new data arrives in whatever format the catalog
            # currently uses — the adaptation so far is not thrown away.
            current = session.catalog.tensors["A"].format_name
            session.replace_format(
                reformat(DenseFormat.from_dense("A", phase_matrix(density, seed)),
                         current))
        advisor.note(PROGRAM)
        actions = [advisor.step()["action"] for _ in range(2)]
        contenders = {fmt: static_session(fmt, density, seed).prepare(PROGRAM)
                      for fmt in STATIC_FORMATS}
        contenders["adaptive"] = session.prepare(PROGRAM)
        timed = interleaved_mins(contenders)
        phases.append({
            "phase": name,
            "actions": actions,
            "format": session.catalog.tensors["A"].format_name,
            "adaptive_ms": timed["adaptive"],
            "static_ms": {fmt: timed[fmt] for fmt in STATIC_FORMATS},
        })
    phases[-1]["feedback"] = session.feedback_report()
    phases[-1]["advisor"] = advisor.report()
    return phases


def measure_overhead(kernel_name: str) -> dict:
    """Disabled-loop vs loop-free execution time for one Fig. 7 kernel.

    One session, one prepared statement, the loop toggled off and on
    between alternating measurement blocks: two *identical* session builds
    of the same kernel differ by a few percent from heap placement alone —
    more than the 2% bar — so comparing separate sessions would measure
    allocation luck, not the hooks.  Toggling on a single statement isolates
    exactly the code path under test.
    """
    kernel = KERNELS[kernel_name]
    session = Session(synthetic_catalog(kernel_name, 0.05, rows=OVERHEAD_SIZE,
                                        cols=OVERHEAD_SIZE))
    statement = session.prepare(kernel.source)
    statement.execute()

    def block(enable: bool) -> float:
        if enable:
            # The loop is on but (after the one mandatory first sample,
            # consumed by the untimed warm-up below) never samples again,
            # and the infinite threshold keeps that sample from adopting
            # observations — adoption would re-optimize the plan and this
            # experiment would compare two different plans instead of
            # timing the disabled-path hooks.
            session.enable_feedback(sample_every=10 ** 9, threshold=1e18)
        else:
            session.disable_feedback()
        statement.execute()
        best = float("inf")
        for _ in range(OVERHEAD_RUNS):
            start = time.perf_counter()
            statement.execute()
            best = min(best, time.perf_counter() - start)
        return best

    best = {"without": float("inf"), "with": float("inf")}
    ratios = []
    for pair in range(OVERHEAD_BLOCKS):
        # One adjacent without/with block pair per ratio (order alternating):
        # the two blocks run milliseconds apart, inside the same machine
        # phase, so CPU-frequency drift — which lasts seconds and otherwise
        # dominates a 2% bar — cancels within the pair.
        first_enabled = pair % 2 == 1
        first, second = block(first_enabled), block(not first_enabled)
        mins = {"with": first if first_enabled else second,
                "without": second if first_enabled else first}
        ratios.append(mins["with"] / mins["without"])
        for mode in best:
            best[mode] = min(best[mode], mins[mode])
    ratios.sort()
    ratio = ratios[len(ratios) // 2]
    return {
        "kernel": kernel_name,
        "without_loop_ms": round(best["without"] * 1_000.0, 4),
        "disabled_loop_ms": round(best["with"] * 1_000.0, 4),
        "overhead_ratio": round(ratio, 4),
    }


def run_bench() -> dict:
    adaptive = run_phases()
    overhead = [measure_overhead(kernel_name) for kernel_name in OVERHEAD_KERNELS]

    phase_rows = []
    for entry in adaptive:
        static = entry["static_ms"]
        best_fmt = min(static, key=static.get)
        best_ms = static[best_fmt]
        frozen_ms = static[FROZEN]
        phase_rows.append({
            "phase": entry["phase"],
            "adaptive_ms": round(entry["adaptive_ms"], 3),
            "adaptive_format": entry["format"],
            "actions": ",".join(entry["actions"]),
            "best_static_ms": round(best_ms, 3),
            "best_static": best_fmt,
            "frozen_ms": round(frozen_ms, 3),
            "vs_best_static": round(entry["adaptive_ms"] / best_ms, 3),
            "frozen_vs_best": round(frozen_ms / best_ms, 3),
        })

    table = format_table(phase_rows,
                         title=f"Adaptive vs static under data drift "
                               f"({SIZE}x{SIZE}, frozen={FROZEN}; accept: "
                               f"vs_best_static <= {TOLERANCE}, "
                               f"max frozen_vs_best >= {FROZEN_LOSS})")
    table += "\n" + format_table(
        overhead, title=f"Feedback-loop overhead when disabled "
                        f"(accept: overhead_ratio <= {OVERHEAD_TOLERANCE})")
    print_report(table)
    return {
        "benchmark": "adaptive",
        "size": SIZE,
        "overhead_size": OVERHEAD_SIZE,
        "repeats": REPEATS,
        "smoke": SMOKE,
        "backend": Session().backend,
        "tolerance_vs_best_static": TOLERANCE,
        "frozen_loss_floor": FROZEN_LOSS,
        "overhead_tolerance": OVERHEAD_TOLERANCE,
        "python": platform.python_version(),
        "machine": platform.machine(),
        "phases": phase_rows,
        "adaptive_detail": [
            {**entry, "adaptive_ms": round(entry["adaptive_ms"], 3),
             "static_ms": {fmt: round(ms, 3)
                           for fmt, ms in entry["static_ms"].items()}}
            for entry in adaptive],
        "overhead": overhead,
    }


def _write(report: dict) -> None:
    with open(_JSON_PATH, "w") as handle:
        json.dump(report, handle, indent=2)


def _check(report: dict) -> None:
    for row in report["phases"]:
        assert row["vs_best_static"] <= report["tolerance_vs_best_static"], (
            f"phase {row['phase']}: adaptive steady state ({row['adaptive_ms']} ms "
            f"on {row['adaptive_format']}) is {row['vs_best_static']}x the best "
            f"static {row['best_static']} ({row['best_static_ms']} ms)")
    worst_frozen = max(row["frozen_vs_best"] for row in report["phases"])
    assert worst_frozen >= report["frozen_loss_floor"], (
        f"the frozen {FROZEN} configuration only lost {worst_frozen}x — "
        "the drift scenario no longer separates static from adaptive")
    for entry in report["overhead"]:
        assert entry["overhead_ratio"] <= report["overhead_tolerance"], (
            f"{entry['kernel']}: disabled feedback loop costs "
            f"{entry['overhead_ratio']}x (> {report['overhead_tolerance']}x) — "
            "the profiling hooks are no longer free when off")


def test_adaptive_benchmark(benchmark):
    """Drift recovery + disabled-loop overhead; asserts the acceptance bars."""
    report = benchmark.pedantic(run_bench, rounds=1, iterations=1)
    _write(report)
    _check(report)


def main() -> None:
    report = run_bench()
    _write(report)
    _check(report)
    worst = max(row["vs_best_static"] for row in report["phases"])
    print(f"wrote {_JSON_PATH} (adaptive within {worst}x of best static per phase)")


if __name__ == "__main__":
    import sys

    sys.exit(main())
