"""The "same search, cheaper" contract of the optimizer.

For the six ``cold_oneshot`` programs of ``benchmarks/e2e`` on their Table-3
storage formats, under default optimizer limits and both methods, the
committed table ``tests/golden/optimizer_golden.json`` pins the raw plan text,
the plan's cost, the candidate costs and — per saturation stage — the
iteration / node / class / match counts and the stop reason.  A change that
makes optimization cheaper must leave every entry untouched: a rule that
stops being *tried* per match must still produce the same unions.

The table is written by ``python tests/test_optimizer_golden.py --write``
(from the commit whose behaviour is to be pinned) and asserted here.
"""

import json
import os
import sys

import numpy as np
import pytest

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.data.synthetic import random_sparse_matrix_coo, random_sparse_tensor3
from repro.egraph.runner import Runner
from repro.execution.engine import PlanCache
from repro.kernels import KERNELS
from repro.sdqlite import pretty
from repro.session import Session
from repro.storage import Catalog, CSCFormat, CSFFormat, CSRFormat, DenseFormat

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "optimizer_golden.json")

#: Storage formats of the paper's Table 3 (STOREL column), per kernel.
TABLE3 = {
    "MMM": {"A": CSRFormat, "B": CSRFormat},
    "SUMMM": {"A": CSCFormat, "B": CSRFormat},
    "BATAX": {"A": CSRFormat},
    "BATAX-nested": {"A": CSRFormat},
    "TTM": {"A": CSFFormat, "B": CSCFormat},
    "MTTKRP": {"A": CSFFormat, "B": CSRFormat, "C": CSCFormat},
}
METHODS = ("greedy", "egraph")
SEED = 20261004


def _matrix(rng, rows, cols, density):
    coords, values = random_sparse_matrix_coo(rows, cols, density, rng=rng)
    return coords, values, (rows, cols)


def _data(kernel: str) -> dict:
    """Seeded inputs at the sizes of ``cold_oneshot`` (small: set-up is ms)."""
    rng = np.random.default_rng([SEED, sorted(TABLE3).index(kernel)])
    if kernel in ("MMM", "SUMMM"):
        return {"A": _matrix(rng, 144, 144, 0.02), "B": _matrix(rng, 144, 32, 2.0 ** -5)}
    if kernel.startswith("BATAX"):
        return {"A": _matrix(rng, 144, 144, 0.02), "X": rng.uniform(0.1, 1.0, 144),
                "beta": 0.5}
    dims = (32, 1024, 1024)
    coords, values = random_sparse_tensor3(*dims, 2000 / np.prod(dims), rng=rng)
    data = {"A": (coords, values, dims)}
    if kernel == "TTM":
        data["B"] = _matrix(rng, 8, dims[2], 0.25)
    else:
        data["B"] = _matrix(rng, dims[1], 8, 0.25)
        data["C"] = _matrix(rng, dims[2], 8, 0.25)
    return data


def _catalog(kernel: str) -> Catalog:
    catalog = Catalog()
    for name, value in _data(kernel).items():
        if name == "beta":
            catalog.add_scalar(name, value)
        elif name == "X":
            catalog.add(DenseFormat.from_dense(name, value))
        else:
            catalog.add(TABLE3[kernel][name].from_coo(name, *value))
    return catalog


def _stage(stage) -> dict | None:
    if stage is None:
        return None
    runner = stage.runner
    return {"iterations": runner.iterations, "nodes": runner.nodes,
            "classes": runner.classes, "total_matches": runner.total_matches,
            "stop_reason": runner.stop_reason, "cost": repr(stage.extracted_cost)}


def observe(kernel: str, method: str, graphs: list | None = None) -> dict:
    """One fresh-session optimization, reduced to what must not change."""
    session = Session(_catalog(kernel), cache=PlanCache())
    original = Runner.run

    def recording_run(self):
        if graphs is not None:
            graphs.append(self.egraph)
        return original(self)

    Runner.run = recording_run
    try:
        result = session.prepare(KERNELS[kernel].source, method=method).optimization
    finally:
        Runner.run = original
    return {
        "plan": pretty(result.plan),
        "cost": repr(result.cost),
        "candidate_costs": {name: repr(cost)
                            for name, cost in result.candidate_costs.items()},
        "chosen_candidate": result.chosen_candidate,
        "stage1": _stage(result.stage1),
        "stage2": _stage(result.stage2),
    }


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("method", METHODS)
@pytest.mark.parametrize("kernel", sorted(TABLE3))
def test_plan_cost_and_search_counts_match_the_pinned_table(kernel, method):
    graphs: list = []
    observed = observe(kernel, method, graphs)
    assert len(graphs) == (2 if method == "egraph" else 0)
    for egraph in graphs:
        egraph.sanity_check()
    expected = _golden()[f"{kernel}-{method}"]
    # Field by field, so a failure names what moved instead of dumping a plan.
    for name in expected:
        assert observed[name] == expected[name], f"{kernel}-{method}: {name} changed"
    assert observed.keys() == expected.keys()


def test_the_pinned_table_covers_every_program_and_method():
    assert sorted(_golden()) == sorted(
        f"{kernel}-{method}" for kernel in TABLE3 for method in METHODS)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_optimizer_golden.py --write")
    table = {f"{kernel}-{method}": observe(kernel, method)
             for kernel in sorted(TABLE3) for method in METHODS}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} entries to {GOLDEN}")
