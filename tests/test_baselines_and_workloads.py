"""Tests for the baseline systems and the benchmark harness.

Every system must compute the same result as the NumPy oracle on every
kernel it supports; the harness must classify unsupported configurations
instead of failing.
"""

import numpy as np
import pytest

from repro.baselines import (
    FixedPlanSystem,
    NotSupportedError,
    NumpySystem,
    RelationalSystem,
    ScipySystem,
    StorelSystem,
    TacoLikeSystem,
    output_shape,
    reference_result,
)
from repro.baselines.relational import Relation, aggregate, hash_join, multiply_values
from repro.data.synthetic import random_dense_vector, random_sparse_matrix, random_sparse_tensor3
from repro.kernels import BATAX, KERNELS, MMM, MTTKRP, SUM_MMM, TTM
from repro.storage import Catalog, CSFFormat, CSRFormat, CSCFormat, DenseFormat
from repro.workloads import Measurement, format_table, measure, pivot_measurements, speedup_summary
from repro.workloads.experiments import (
    BEST_FORMATS,
    fig9_variants,
    matrix_kernel_catalog,
    synthetic_catalog,
    tensor_kernel_catalog,
)


def small_catalog(kernel_name: str) -> Catalog:
    size = 10
    a = random_sparse_matrix(size, size, 0.25, seed=51)
    catalog = Catalog()
    if kernel_name in ("MMM", "SUMMM"):
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(CSRFormat.from_dense("B", random_sparse_matrix(size, size, 0.25, seed=52)))
    elif kernel_name == "BATAX":
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(DenseFormat.from_dense("X", random_dense_vector(size, seed=53)))
        catalog.add_scalar("beta", 0.5)
    else:
        coords, values = random_sparse_tensor3(size, 6, 7, 0.08, seed=54)
        catalog.add(CSFFormat.from_coo("A", coords, values, (size, 6, 7)))
        if kernel_name == "TTM":
            catalog.add(CSCFormat.from_dense("B", random_sparse_matrix(4, 7, 0.4, seed=55)))
        else:
            catalog.add(CSRFormat.from_dense("B", random_sparse_matrix(6, 4, 0.4, seed=55)))
            catalog.add(CSCFormat.from_dense("C", random_sparse_matrix(7, 4, 0.4, seed=56)))
    return catalog


MATRIX_KERNELS = ["MMM", "SUMMM", "BATAX"]
TENSOR_KERNELS = ["TTM", "MTTKRP"]


@pytest.mark.parametrize("kernel_name", MATRIX_KERNELS + TENSOR_KERNELS)
@pytest.mark.parametrize("system_factory", [
    StorelSystem, TacoLikeSystem, RelationalSystem,
])
def test_systems_match_reference(kernel_name, system_factory):
    kernel = KERNELS[kernel_name]
    catalog = small_catalog(kernel_name)
    system = system_factory()
    result = system.run_once(kernel, catalog)
    np.testing.assert_allclose(np.asarray(result, dtype=np.float64),
                               np.asarray(reference_result(kernel, catalog)),
                               rtol=1e-7, atol=1e-9)


@pytest.mark.parametrize("kernel_name", MATRIX_KERNELS)
@pytest.mark.parametrize("variant", ["optimized", "naive"])
def test_numpy_and_scipy_baselines(kernel_name, variant):
    kernel = KERNELS[kernel_name]
    catalog = small_catalog(kernel_name)
    expected = reference_result(kernel, catalog)
    for system in (NumpySystem(variant=variant), ScipySystem(variant=variant)):
        result = system.run_once(kernel, catalog)
        np.testing.assert_allclose(np.asarray(result), np.asarray(expected), rtol=1e-7)


def test_scipy_rejects_rank3_and_numpy_respects_memory_budget():
    with pytest.raises(NotSupportedError):
        ScipySystem().prepare(MTTKRP, small_catalog("MTTKRP"))
    tiny_budget = NumpySystem(memory_budget_mb=0.0001)
    with pytest.raises(NotSupportedError):
        tiny_budget.prepare(MMM, small_catalog("MMM"))


def test_fixed_plan_system_variants_agree():
    catalog = small_catalog("BATAX")
    from repro.kernels import BATAX_NESTED
    expected = reference_result(BATAX_NESTED, catalog)
    for variant in fig9_variants().values():
        system = FixedPlanSystem(variant=variant[1])
        result = system.run_once(BATAX_NESTED, catalog)
        np.testing.assert_allclose(result, expected, rtol=1e-7)
    with pytest.raises(KeyError):
        FixedPlanSystem(variant="bogus").prepare(BATAX_NESTED, catalog)


def test_output_shape_per_kernel():
    for kernel_name in MATRIX_KERNELS + TENSOR_KERNELS:
        catalog = small_catalog(kernel_name)
        shape = output_shape(KERNELS[kernel_name], catalog)
        expected = reference_result(KERNELS[kernel_name], catalog)
        if isinstance(expected, float):
            assert shape == ()
        else:
            assert shape == np.asarray(expected).shape


# ---------------------------------------------------------------------------
# relational mini-engine
# ---------------------------------------------------------------------------


def test_relation_join_and_aggregate():
    left = Relation({"k": np.array([1, 2, 2]), "v": np.array([10.0, 20.0, 30.0])})
    right = Relation({"k": np.array([2, 3]), "w": np.array([2.0, 5.0])})
    joined = hash_join(left, right, ["k"])
    assert len(joined) == 2
    product = multiply_values(joined, ["v", "w"], "p")
    total = aggregate(product, ["k"], "p")
    assert len(total) == 1
    assert total.column("p")[0] == pytest.approx(20.0 * 2 + 30.0 * 2)


def test_relation_from_tensor_and_vector():
    fmt = CSRFormat.from_dense("A", np.array([[1.0, 0.0], [0.0, 3.0]]))
    relation = Relation.from_tensor(fmt, ("i", "j"), "v")
    assert len(relation) == 2 and set(relation.schema) == {"i", "j", "v"}
    vec = DenseFormat.from_dense("X", np.array([0.0, 2.0, 0.0]))
    relation = Relation.from_vector(vec, "i", "v")
    assert len(relation) == 1 and relation.column("i")[0] == 1


# ---------------------------------------------------------------------------
# harness + reporting
# ---------------------------------------------------------------------------


def test_measure_records_status_and_correctness():
    catalog = small_catalog("MMM")
    good = measure(StorelSystem(), MMM, catalog, dataset="toy", repeats=1)
    assert good.status == "ok" and good.correct and good.mean_ms is not None
    unsupported = measure(ScipySystem(), MTTKRP, small_catalog("MTTKRP"),
                          dataset="toy", repeats=1)
    assert unsupported.status == "unsupported" and unsupported.mean_ms is None
    rows = pivot_measurements([good, unsupported])
    assert rows and "STOREL" in rows[0]
    table = format_table([good.as_row(), unsupported.as_row()], title="demo")
    assert "demo" in table and "STOREL" in table


def test_speedup_summary():
    measurements = [
        Measurement("MMM", "d1", "Taco-like", 10.0),
        Measurement("MMM", "d1", "STOREL", 2.0),
        Measurement("MMM", "d2", "Taco-like", 8.0),
        Measurement("MMM", "d2", "STOREL", 4.0),
    ]
    rows = speedup_summary(measurements, baseline="Taco-like", subject="STOREL")
    assert [round(row["speedup"], 1) for row in rows] == [5.0, 2.0]


def test_experiment_catalog_builders_use_best_formats():
    catalog = matrix_kernel_catalog("BATAX", "cant", scale=512)
    assert catalog["A"].format_name == BEST_FORMATS["BATAX"]["A"]
    assert "X" in catalog.tensors and "beta" in catalog.scalars
    catalog = tensor_kernel_catalog("MTTKRP", "Facebook", scale=96, rank=4)
    assert catalog["A"].format_name == "csf"
    assert catalog["B"].shape[1] == 4
    sparse = synthetic_catalog("MMM", 0.1, rows=32, cols=32, storage="sparse")
    dense = synthetic_catalog("MMM", 0.1, rows=32, cols=32, storage="dense")
    assert sparse["A"].format_name == "csr" and dense["A"].format_name == "dense"


def test_scipy_is_imported_on_first_use_only():
    """Importing the library does not import SciPy; the helpers that need it
    still work afterwards (each import of SciPy costs a process ~0.2 s)."""
    import os
    import subprocess
    import sys

    script = (
        "import sys\n"
        "import repro, repro.storage, repro.session, repro.serving, repro.baselines.base\n"
        "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules), "
        "sorted(m for m in sys.modules if m.startswith('scipy'))\n"
        "import numpy as np\n"
        "from repro.storage import CSRFormat\n"
        "from repro.storage.convert import to_scipy_csr\n"
        "from repro.baselines import ScipySystem\n"
        "a = np.array([[1.0, 0.0], [2.0, 3.0]])\n"
        "assert (to_scipy_csr(CSRFormat.from_dense('A', a)).toarray() == a).all()\n"
        "assert ScipySystem().name == 'SciPy' and 'scipy' in sys.modules\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
