"""Figure 7 — end-to-end runtime of all systems on every kernel and dataset.

For each kernel (MMM, ΣMMM, BATAX, TTM, MTTKRP) and each real-world stand-in,
this runs STOREL, the Taco-like baseline, NumPy, SciPy and the relational
(DuckDB-like) baseline, then prints the dataset × system runtime table and
the STOREL-vs-Taco speedups — the same series the paper plots.

Expected shape (paper): STOREL at least as fast as Taco everywhere, and
substantially faster on the kernels with factorization opportunities
(ΣMMM, BATAX, MTTKRP); the relational engine is competitive on TTM only.
"""

import pytest

from _config import MATRIX_SCALE, REPEATS, TENSOR_SCALE, print_report
from repro.baselines import NotSupportedError
from repro.execution import BACKENDS
from repro.kernels import KERNELS
from repro.workloads.experiments import (
    fig7_measurements,
    fig7_systems,
    matrix_kernel_catalog,
    tensor_kernel_catalog,
)
from repro.workloads.harness import backend_shootout
from repro.workloads.reporting import format_table, pivot_measurements, speedup_summary

MATRIX_KERNELS = ("MMM", "SUMMM", "BATAX")
TENSOR_KERNELS = ("TTM", "MTTKRP")


@pytest.mark.parametrize("kernel_name", MATRIX_KERNELS + TENSOR_KERNELS)
def test_fig7_report(benchmark, kernel_name):
    """Generate the full dataset × system series for one kernel (one paper sub-plot)."""

    def run():
        if kernel_name in MATRIX_KERNELS:
            return fig7_measurements(kernel_name, scale=MATRIX_SCALE, repeats=REPEATS)
        return fig7_measurements(kernel_name, tensor_scale=TENSOR_SCALE, repeats=REPEATS)

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(pivot_measurements(measurements),
                         title=f"Fig. 7 — {kernel_name}: run time (ms) per dataset and system")
    speedups = speedup_summary(measurements, baseline="Taco-like", subject="STOREL")
    table += "\n" + format_table(speedups, title=f"{kernel_name}: STOREL speedup over Taco-like")
    print_report(table)
    ok = [m for m in measurements if m.status == "ok"]
    assert ok, "no configuration produced a measurement"
    assert all(m.correct for m in ok), "a system returned an incorrect result"


@pytest.mark.parametrize("kernel_name", MATRIX_KERNELS)
@pytest.mark.parametrize("system_index", range(5))
def test_fig7_matrix_kernel_per_system(benchmark, kernel_name, system_index):
    """Per-system micro benchmark on one representative dataset (pdb1HYS)."""
    systems = fig7_systems(kernel_name)
    if system_index >= len(systems):
        pytest.skip("system not applicable for this kernel")
    system = systems[system_index]
    catalog = matrix_kernel_catalog(kernel_name, "pdb1HYS", scale=MATRIX_SCALE)
    try:
        run = system.prepare(KERNELS[kernel_name], catalog)
    except NotSupportedError as exc:
        pytest.skip(str(exc))
    benchmark.group = f"fig7-{kernel_name}-pdb1HYS ({system.name})"
    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("kernel_name", MATRIX_KERNELS + TENSOR_KERNELS)
def test_fig7_backend_comparison(benchmark, kernel_name):
    """``typed`` beside the reference interpreter on one dataset per kernel."""
    if kernel_name in MATRIX_KERNELS:
        catalog = matrix_kernel_catalog(kernel_name, "pdb1HYS", scale=MATRIX_SCALE)
        dataset = "pdb1HYS"
    else:
        catalog = tensor_kernel_catalog(kernel_name, "Facebook", scale=TENSOR_SCALE)
        dataset = "Facebook"

    def run():
        return backend_shootout(KERNELS[kernel_name], catalog, backends=BACKENDS,
                                dataset=dataset, repeats=REPEATS)

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        pivot_measurements(measurements),
        title=f"Fig. 7 backends — {kernel_name}/{dataset}: run time (ms) per backend")
    print_report(table)
    ok = [m for m in measurements if m.status == "ok"]
    assert len(ok) == len(measurements), "a backend failed to run"
    assert all(m.correct for m in ok), "a backend returned an incorrect result"


@pytest.mark.parametrize("kernel_name", TENSOR_KERNELS)
@pytest.mark.parametrize("system_index", range(3))
def test_fig7_tensor_kernel_per_system(benchmark, kernel_name, system_index):
    """Per-system micro benchmark on one representative tensor (Facebook)."""
    systems = fig7_systems(kernel_name)
    if system_index >= len(systems):
        pytest.skip("system not applicable for this kernel")
    system = systems[system_index]
    catalog = tensor_kernel_catalog(kernel_name, "Facebook", scale=TENSOR_SCALE)
    try:
        run = system.prepare(KERNELS[kernel_name], catalog)
    except NotSupportedError as exc:
        pytest.skip(str(exc))
    benchmark.group = f"fig7-{kernel_name}-Facebook ({system.name})"
    benchmark.pedantic(run, rounds=3, iterations=1)
