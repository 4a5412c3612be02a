"""Experiment definitions: one builder per table / figure of the paper's Sec. 6.

Each function assembles the datasets, storage formats (Table 3 column
"STOREL / Taco"), systems and parameters of one experiment and returns the
raw measurements; the benchmark modules under ``benchmarks/`` wrap them in
pytest-benchmark cases and print the resulting tables.

The dataset scale factors default to small values so that the whole suite
runs in minutes on a laptop; they can be raised to approach the paper's
original sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..baselines import (
    FixedPlanSystem,
    NumpySystem,
    RelationalSystem,
    ScipySystem,
    StorelSystem,
    System,
    TacoLikeSystem,
)
from ..data import frostt, suitesparse
from ..data.synthetic import random_dense_vector, random_sparse_matrix
from ..kernels import BATAX, BATAX_NESTED, MMM, MTTKRP, SUM_MMM, TTM
from ..storage import (
    Catalog,
    CSCFormat,
    CSFFormat,
    CSRFormat,
    DenseFormat,
    DOKFormat,
    TrieFormat,
    build_format,
)
from .harness import Measurement, measure

#: Density of the synthetically generated "other" operands (the paper uses 2^-5).
OTHER_DENSITY = 2.0 ** -5


# ---------------------------------------------------------------------------
# Table 3: best storage formats per kernel (for STOREL / Taco in this repo)
# ---------------------------------------------------------------------------

#: kernel -> {tensor: format} used for the Fig. 7 runs (paper's Table 3, STOREL column).
BEST_FORMATS: dict[str, dict[str, str]] = {
    "MMM": {"A": "csr", "B": "csr"},
    "SUMMM": {"A": "csc", "B": "csr"},
    "BATAX": {"A": "csr", "X": "dense"},
    "TTM": {"A": "csf", "B": "csc"},
    "MTTKRP": {"A": "csf", "B": "csr", "C": "csc"},
}


# ---------------------------------------------------------------------------
# Catalog builders
# ---------------------------------------------------------------------------


def matrix_kernel_catalog(kernel_name: str, dataset: str, *, scale: int = 64,
                          other_cols: int = 32, seed: int = 101) -> Catalog:
    """Catalog for the matrix kernels (MMM, ΣMMM, BATAX) on a Table-2 matrix."""
    a = suitesparse.load_matrix(dataset, scale=scale)
    formats = BEST_FORMATS[kernel_name]
    catalog = Catalog()
    catalog.add(build_format(formats["A"], "A", a))
    if kernel_name in ("MMM", "SUMMM"):
        b = random_sparse_matrix(a.shape[1], other_cols, OTHER_DENSITY, seed=seed)
        catalog.add(build_format(formats["B"], "B", b))
    if kernel_name == "BATAX":
        x = random_dense_vector(a.shape[1], seed=seed)
        catalog.add(DenseFormat.from_dense("X", x))
        catalog.add_scalar("beta", 0.5)
    return catalog


def tensor_kernel_catalog(kernel_name: str, dataset: str, *, scale: int = 24,
                          rank: int = 8, seed: int = 202) -> Catalog:
    """Catalog for the rank-3 kernels (TTM, MTTKRP) on a FROSTT stand-in."""
    coords, values, dims = frostt.load_tensor(dataset, scale=scale)
    formats = BEST_FORMATS[kernel_name]
    catalog = Catalog()
    catalog.add(CSFFormat.from_coo("A", coords, values, dims))
    if kernel_name == "TTM":
        b = random_sparse_matrix(rank, dims[2], OTHER_DENSITY, seed=seed)
        catalog.add(build_format(formats["B"], "B", b))
    if kernel_name == "MTTKRP":
        b = random_sparse_matrix(dims[1], rank, OTHER_DENSITY, seed=seed)
        c = random_sparse_matrix(dims[2], rank, OTHER_DENSITY, seed=seed + 1)
        catalog.add(build_format(formats["B"], "B", b))
        catalog.add(build_format(formats["C"], "C", c))
    return catalog


def synthetic_catalog(kernel_name: str, density: float, *, rows: int = 256,
                      cols: int = 256, storage: str = "sparse", seed: int = 7) -> Catalog:
    """Catalog for the density sweeps of Fig. 8 (synthetic square matrices)."""
    a = random_sparse_matrix(rows, cols, density, seed=seed)
    catalog = Catalog()
    matrix_format = BEST_FORMATS[kernel_name]["A"] if storage == "sparse" else "dense"
    catalog.add(build_format(matrix_format, "A", a))
    if kernel_name in ("MMM", "SUMMM"):
        b = random_sparse_matrix(cols, cols, density, seed=seed + 1)
        b_format = BEST_FORMATS[kernel_name]["B"] if storage == "sparse" else "dense"
        catalog.add(build_format(b_format, "B", b))
    if kernel_name == "BATAX":
        catalog.add(DenseFormat.from_dense("X", random_dense_vector(cols, seed=seed + 2)))
        catalog.add_scalar("beta", 0.5)
    return catalog


# ---------------------------------------------------------------------------
# Fig. 7: end-to-end comparison on the real-world stand-ins
# ---------------------------------------------------------------------------


def fig7_systems(kernel_name: str) -> list[System]:
    """The systems compared in Fig. 7 for a given kernel."""
    systems: list[System] = [StorelSystem(), TacoLikeSystem()]
    if kernel_name in ("MMM", "SUMMM", "BATAX"):
        systems += [NumpySystem(), ScipySystem(), RelationalSystem()]
    else:
        systems += [RelationalSystem()]
    return systems


def fig7_measurements(kernel_name: str, *, datasets: list[str] | None = None,
                      scale: int = 64, tensor_scale: int = 24,
                      repeats: int = 3) -> list[Measurement]:
    """Run the Fig. 7 experiment for one kernel over the real-world stand-ins."""
    kernel = {"MMM": MMM, "SUMMM": SUM_MMM, "BATAX": BATAX, "TTM": TTM,
              "MTTKRP": MTTKRP}[kernel_name]
    measurements: list[Measurement] = []
    if kernel_name in ("MMM", "SUMMM", "BATAX"):
        names = datasets or suitesparse.matrix_names()
        for dataset in names:
            catalog = matrix_kernel_catalog(kernel_name, dataset, scale=scale)
            for system in fig7_systems(kernel_name):
                measurements.append(measure(system, kernel, catalog,
                                            dataset=dataset, repeats=repeats))
    else:
        names = datasets or frostt.tensor_names()
        for dataset in names:
            catalog = tensor_kernel_catalog(kernel_name, dataset, scale=tensor_scale)
            for system in fig7_systems(kernel_name):
                measurements.append(measure(system, kernel, catalog,
                                            dataset=dataset, repeats=repeats))
    return measurements


# ---------------------------------------------------------------------------
# Fig. 8: storage format × density sweeps
# ---------------------------------------------------------------------------


def fig8_measurements(kernel_name: str, densities: list[float], *, rows: int = 256,
                      repeats: int = 3) -> list[Measurement]:
    """Sparse-vs-dense storage sweep for BATAX / ΣMMM / MMM (Fig. 8)."""
    kernel = {"MMM": MMM, "SUMMM": SUM_MMM, "BATAX": BATAX}[kernel_name]
    measurements = []
    for density in densities:
        label = f"density=2^{np.log2(density):.0f}" if density > 0 else "density=0"
        for storage in ("sparse", "dense"):
            catalog = synthetic_catalog(kernel_name, density, rows=rows, cols=rows,
                                        storage=storage)
            for system in (StorelSystem(), TacoLikeSystem()):
                measurement = measure(system, kernel, catalog,
                                      dataset=f"{label}/{storage}", repeats=repeats)
                measurement.system = f"{measurement.system} ({storage})"
                measurements.append(measurement)
        catalog = synthetic_catalog(kernel_name, density, rows=rows, cols=rows,
                                    storage="sparse")
        for system in (ScipySystem(), NumpySystem()):
            measurements.append(measure(system, kernel, catalog,
                                        dataset=f"{label}/sparse", repeats=repeats))
    return measurements


# ---------------------------------------------------------------------------
# Fig. 9: contribution of factorization and fusion rules (BATAX ablation)
# ---------------------------------------------------------------------------


def fig9_variants() -> dict[str, tuple[str, str]]:
    """Ablation variants: name -> (storage for A, plan variant)."""
    return {
        "Unopt., Hash": ("trie", "naive"),
        "Part. Fact., Hash": ("trie", "factorized"),
        "Fully Fact., Hash": ("trie", "fused+factorized"),
        "Fully Fact., CSR, Unfused": ("csr", "factorized"),
        "Fully Fact., CSR, Fused": ("csr", "fused+factorized"),
    }


def fig9_measurements(densities: list[float], *, rows: int = 128,
                      repeats: int = 3) -> list[Measurement]:
    """The BATAX rule-ablation study of Fig. 9 (nested per-row kernel)."""
    measurements = []
    for density in densities:
        label = f"density=2^{np.log2(density):.0f}"
        a = random_sparse_matrix(rows, rows, density, seed=31)
        x = random_dense_vector(rows, seed=32)
        for variant_name, (storage, plan_variant) in fig9_variants().items():
            catalog = Catalog()
            if storage == "trie":
                catalog.add(TrieFormat.from_dense("A", a))
            else:
                catalog.add(CSRFormat.from_dense("A", a))
            catalog.add(DenseFormat.from_dense("X", x))
            catalog.add_scalar("beta", 0.5)
            system = FixedPlanSystem(variant=plan_variant)
            measurement = measure(system, BATAX_NESTED, catalog,
                                  dataset=label, repeats=repeats)
            measurement.system = variant_name
            measurements.append(measurement)
    return measurements


# ---------------------------------------------------------------------------
# Table 4: optimization (Egg) metrics; Fig. 10: optimization overhead
# ---------------------------------------------------------------------------


def table4_rows(*, iter_limit: int = 6, node_limit: int = 4000) -> list[dict]:
    """Egg compilation metrics for both optimization stages of every kernel."""
    from ..core.optimizer import Optimizer
    from ..core.statistics import Statistics

    rows = []
    configurations = {
        "BATAX": ("BATAX", matrix_kernel_catalog("BATAX", "cant", scale=256)),
        "SUMMM": ("SUMMM", matrix_kernel_catalog("SUMMM", "cant", scale=256)),
        "MTTKRP": ("MTTKRP", tensor_kernel_catalog("MTTKRP", "NIPS", scale=64)),
        "MMM": ("MMM", matrix_kernel_catalog("MMM", "cant", scale=256)),
        "TTM": ("TTM", tensor_kernel_catalog("TTM", "NIPS", scale=64)),
    }
    kernels = {"MMM": MMM, "SUMMM": SUM_MMM, "BATAX": BATAX, "TTM": TTM, "MTTKRP": MTTKRP}
    for label, (kernel_name, catalog) in configurations.items():
        stats = Statistics.from_catalog(catalog)
        optimizer = Optimizer(stats, iter_limit=iter_limit, node_limit=node_limit)
        result = optimizer.optimize(kernels[kernel_name].program, catalog.mappings(),
                                    method="egraph")
        for stage_row in result.table4_rows():
            rows.append({"kernel": label, **stage_row})
    return rows


#: Estimated-cost threshold above which a Fig. 10 variant is reported as a
#: timeout instead of being executed (the paper uses a 5-minute wall-clock
#: timeout; a cost threshold plays the same role without hanging the suite).
FIG10_COST_TIMEOUT = 4.0e8


def fig10_measurements(dimensions: list[int], *, repeats: int = 1,
                       cost_timeout: float = FIG10_COST_TIMEOUT) -> list[dict]:
    """Total (optimization + run) time of BATAX variants as the dimension grows."""
    import time

    from ..core.compose import compose
    from ..core.cost import CostModel
    from ..core.optimizer import Optimizer, symbol_ranks
    from ..core.statistics import Statistics
    from ..core import strategies

    rows = []
    for dimension in dimensions:
        # The paper uses a 10^2 x N matrix; 32 rows keep the pure-Python naive
        # plan measurable at the smallest N.
        a = random_sparse_matrix(32, dimension, 2.0 ** -4, seed=41)
        x = random_dense_vector(dimension, seed=42)
        catalog = Catalog()
        catalog.add(CSRFormat.from_dense("A", a))
        catalog.add(DenseFormat.from_dense("X", x))
        catalog.add_scalar("beta", 0.5)
        stats = Statistics.from_catalog(catalog)
        model = CostModel(stats)
        naive = compose(BATAX.program, catalog.mappings())
        candidates = strategies.candidate_plans(
            naive, symbol_ranks(stats, catalog.mappings()))
        variants = {
            "Unoptimized": ("naive", False),
            "Opt. Phase 1": ("factorized", False),
            "Fully Optimized": ("fused+factorized", True),
        }
        for variant_name, (plan_variant, run_full_optimizer) in variants.items():
            start = time.perf_counter()
            if run_full_optimizer:
                optimizer = Optimizer(stats, iter_limit=5, node_limit=2500)
                optimizer.optimize(BATAX.program, catalog.mappings(), method="egraph")
            opt_ms = (time.perf_counter() - start) * 1_000.0
            estimated = model.plan_cost(candidates[plan_variant])
            if estimated > cost_timeout:
                rows.append({
                    "N": dimension, "variant": variant_name, "opt_ms": round(opt_ms, 2),
                    "run_ms": None, "total_ms": None, "status": "timeout (estimated)",
                })
                continue
            measurement = measure(FixedPlanSystem(variant=plan_variant), BATAX, catalog,
                                  dataset=f"N={dimension}", repeats=repeats)
            total = opt_ms + (measurement.mean_ms or float("nan"))
            rows.append({
                "N": dimension,
                "variant": variant_name,
                "opt_ms": round(opt_ms, 2),
                "run_ms": measurement.mean_ms,
                "total_ms": round(total, 2),
                "status": measurement.status,
            })
    return rows
