"""The counters of ``typed``'s kernels, pinned.

For the eight ``warm_kernels`` (kernel, formats) pairs of ``benchmarks/e2e``,
BATAX over DCSR, DOK and trie, ΣMMM with ``A`` in CSR (which reads one
segment table) and TTM returning its dictionary, all at small sizes, the
committed table ``tests/golden/typed_counters.json`` pins every
``execution_stats`` key of a statement's first and second run — fallbacks,
group-by and lookup regimes, dense sinks, kept re-layouts, levelized inputs,
proven guards, contiguous reads, segment tables — and a digest of the
result's bytes.  A change to how ``typed`` represents or walks its levels
that does the same work leaves every entry untouched.

The table is written by ``python tests/test_typed_counters.py --write``
(from the commit whose behaviour is to be pinned) and asserted here.
"""

import hashlib
import json
import os
import sys

import numpy as np
import pytest

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from repro.baselines.base import output_shape
from repro.data.synthetic import random_sparse_matrix_coo, random_sparse_tensor3
from repro.execution.buffers import BufferDict
from repro.execution.engine import PlanCache
from repro.kernels import KERNELS
from repro.session import Session
from repro.storage import ALL_FORMATS, Catalog, DenseFormat

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "typed_counters.json")
SEED = 20261019

#: case -> (kernel, storage format per tensor, whether the run asks for a
#: dense result).  The first eight are the ``warm_kernels`` rows.
CASES = {
    "MMM-csr": ("MMM", {"A": "csr", "B": "csr"}, True),
    "SUMMM-csc": ("SUMMM", {"A": "csc", "B": "csr"}, True),
    "BATAX-csr": ("BATAX", {"A": "csr"}, True),
    "TTM-csf": ("TTM", {"A": "csf", "B": "csc"}, True),
    "MTTKRP-csf": ("MTTKRP", {"A": "csf", "B": "csr", "C": "csc"}, True),
    "MMM-coo": ("MMM", {"A": "coo", "B": "csr"}, True),
    "BATAX-csc": ("BATAX", {"A": "csc"}, True),
    "MTTKRP-coo": ("MTTKRP", {"A": "coo", "B": "csr", "C": "csc"}, True),
    "BATAX-dcsr": ("BATAX", {"A": "dcsr"}, True),
    "BATAX-dok": ("BATAX", {"A": "dok"}, True),
    "BATAX-trie": ("BATAX", {"A": "trie"}, True),
    "SUMMM-csr": ("SUMMM", {"A": "csr", "B": "csr"}, True),
    "TTM-csf-dict": ("TTM", {"A": "csf", "B": "csc"}, False),
}


def _catalog(case: str) -> Catalog:
    """Seeded inputs of one case, a few hundred entries each."""
    kernel, formats, _ = CASES[case]
    rng = np.random.default_rng([SEED, sorted(CASES).index(case)])
    if kernel in ("MMM", "SUMMM"):
        data = {"A": (*random_sparse_matrix_coo(48, 48, 0.08, rng=rng), (48, 48)),
                "B": (*random_sparse_matrix_coo(48, 6, 0.3, rng=rng), (48, 6))}
    elif kernel == "BATAX":
        data = {"A": (*random_sparse_matrix_coo(48, 48, 0.08, rng=rng), (48, 48))}
    else:
        dims = (6, 12, 14)
        data = {"A": (*random_sparse_tensor3(*dims, 0.08, rng=rng), dims)}
        if kernel == "TTM":
            data["B"] = (*random_sparse_matrix_coo(4, 14, 0.5, rng=rng), (4, 14))
        else:
            data["B"] = (*random_sparse_matrix_coo(12, 4, 0.5, rng=rng), (12, 4))
            data["C"] = (*random_sparse_matrix_coo(14, 4, 0.5, rng=rng), (14, 4))
    catalog = Catalog()
    for name, (coords, values, shape) in data.items():
        catalog.add(ALL_FORMATS[formats[name]].from_coo(name, coords, values, shape))
    if kernel == "BATAX":
        catalog.add(DenseFormat.from_dense("X", rng.uniform(0.1, 1.0, 48)))
        catalog.add_scalar("beta", 0.5)
    return catalog


def _digest(value) -> str:
    """A digest of a result that changes with any bit of it."""
    if isinstance(value, BufferDict):
        levels = value.levels
        parts = [repr((value.level, value.lo, value.hi)).encode()]
        parts += [array.tobytes() for array in (*levels.keys, *levels.seg, levels.values)]
    elif isinstance(value, np.ndarray):
        parts = [repr(value.shape).encode(), value.astype(np.float64).tobytes()]
    else:
        parts = [float(value).hex().encode()]
    return hashlib.sha256(b"|".join(parts)).hexdigest()[:16]


def observe(case: str) -> dict:
    """Two runs of one prepared statement: their counters and result digests."""
    kernel, _, dense = CASES[case]
    catalog = _catalog(case)
    shape = output_shape(KERNELS[kernel], catalog) if dense else None
    statement = Session(catalog, cache=PlanCache()).prepare(KERNELS[kernel].source,
                                                            dense_shape=shape)
    observed = {}
    for run in (1, 2):
        stats: dict = {}
        result = statement.execute_with_stats(stats)
        observed[f"run{run}"] = {"stats": stats, "result": _digest(result)}
    return observed


def _golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as handle:
        return json.load(handle)


@pytest.mark.parametrize("case", sorted(CASES))
def test_counters_and_result_match_the_pinned_table(case):
    observed = json.loads(json.dumps(observe(case)))    # the table's own types
    expected = _golden()[case]
    for run in ("run1", "run2"):
        # Key by key, so a failure names the counter that moved.
        for key, value in expected[run]["stats"].items():
            assert observed[run]["stats"].get(key) == value, f"{case} {run}: {key}"
        assert observed[run]["stats"].keys() == expected[run]["stats"].keys()
        assert observed[run]["result"] == expected[run]["result"], f"{case} {run}: result"


def test_the_pinned_table_covers_every_case():
    assert sorted(_golden()) == sorted(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        raise SystemExit("usage: python tests/test_typed_counters.py --write")
    table = {case: observe(case) for case in sorted(CASES)}
    os.makedirs(os.path.dirname(GOLDEN), exist_ok=True)
    with open(GOLDEN, "w", encoding="utf-8") as handle:
        json.dump(table, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"wrote {len(table)} entries to {GOLDEN}")
