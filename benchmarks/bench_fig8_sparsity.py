"""Figure 8 — runtime versus density, sparse versus dense storage.

For BATAX, ΣMMM and MMM, synthetic square matrices of varying density are
stored both sparsely (the Table 3 formats) and densely, and run through
STOREL and the Taco-like baseline, alongside SciPy and NumPy.

Expected shape (paper): the sparse storage wins at low density, the dense
storage catches up as the density approaches 1; STOREL beats the other
systems on BATAX / ΣMMM at every density thanks to factorization, while for
plain MMM the BLAS-backed baselines win at high density.
"""

import pytest

from _config import REPEATS, print_report
from repro.baselines import NotSupportedError, NumpySystem, ScipySystem, StorelSystem, TacoLikeSystem
from repro.execution import BACKENDS
from repro.data.synthetic import density_sweep
from repro.kernels import KERNELS
from repro.workloads.experiments import fig8_measurements, synthetic_catalog
from repro.workloads.reporting import format_table, pivot_measurements

#: Reduced density grid (the paper sweeps 2^-11 .. 1); raise for a fuller sweep.
DENSITIES = [2.0 ** -9, 2.0 ** -6, 2.0 ** -3]
MATRIX_ROWS = 96


@pytest.mark.parametrize("kernel_name", ["BATAX", "SUMMM", "MMM"])
def test_fig8_report(benchmark, kernel_name):
    def run():
        return fig8_measurements(kernel_name, DENSITIES, rows=MATRIX_ROWS, repeats=REPEATS)

    measurements = benchmark.pedantic(run, rounds=1, iterations=1)
    table = format_table(
        pivot_measurements(measurements),
        title=f"Fig. 8 — {kernel_name}: run time (ms) vs density (sparse vs dense storage)")
    print_report(table)
    ok = [m for m in measurements if m.status == "ok"]
    assert ok and all(m.correct for m in ok)


@pytest.mark.parametrize("density", DENSITIES)
@pytest.mark.parametrize("storage", ["sparse", "dense"])
def test_fig8_batax_storel_per_density(benchmark, density, storage):
    """STOREL on BATAX at one density / storage point (micro benchmark)."""
    catalog = synthetic_catalog("BATAX", density, rows=MATRIX_ROWS, cols=MATRIX_ROWS,
                                storage=storage)
    run = StorelSystem().prepare(KERNELS["BATAX"], catalog)
    benchmark.group = f"fig8-BATAX-{storage}"
    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_fig8_batax_per_backend(benchmark, backend):
    """``typed`` and the reference interpreter on BATAX at the densest sweep point."""
    catalog = synthetic_catalog("BATAX", DENSITIES[-1], rows=MATRIX_ROWS,
                                cols=MATRIX_ROWS, storage="sparse")
    run = StorelSystem(backend=backend).prepare(KERNELS["BATAX"], catalog)
    benchmark.group = "fig8-BATAX-backends"
    benchmark.pedantic(run, rounds=3, iterations=1)


@pytest.mark.parametrize("system_factory", [ScipySystem, NumpySystem, TacoLikeSystem])
def test_fig8_mmm_reference_systems(benchmark, system_factory):
    """The MMM crossover point: optimized primitives vs generated loops at density 2^-3."""
    catalog = synthetic_catalog("MMM", 2.0 ** -3, rows=MATRIX_ROWS, cols=MATRIX_ROWS)
    system = system_factory()
    try:
        run = system.prepare(KERNELS["MMM"], catalog)
    except NotSupportedError as exc:
        pytest.skip(str(exc))
    benchmark.group = "fig8-MMM-density-2^-3"
    benchmark.pedantic(run, rounds=3, iterations=1)
