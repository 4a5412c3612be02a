"""Tests for the workload-driven storage format advisor (repro.advisor).

Covers: per-format legality (candidates_for / candidate_formats), the
re-format conversions behind recommendations, hypothetical statistics
(Statistics.with_formats), the search itself (the advisor must climb out of
a deliberately bad starting configuration), applying recommendations
through sessions (epoch bumps + transparent statement re-preparation), the
measured-validation mode, and the harness shootout.
"""

import numpy as np
import pytest

from repro import storel
from repro.advisor import Advisor, Recommendation, WorkloadQuery, as_workload
from repro.core.statistics import Statistics
from repro.data.synthetic import random_dense_vector, random_sparse_matrix
from repro.kernels import KERNELS
from repro.sdqlite.errors import StorageError
from repro.session import Session
from repro.storage import (
    BandFormat,
    Catalog,
    COOFormat,
    CSFFormat,
    CSRFormat,
    DenseFormat,
    DOKFormat,
    LowerTriangularFormat,
    TensorStats,
    TrieFormat,
    ZOrderFormat,
    candidate_formats,
    reformat,
    reformat_in_catalog,
)

BATAX_SRC = KERNELS["BATAX"].source


def batax_catalog(n=48, density=2.0 ** -3, a_format=TrieFormat, seed=7) -> Catalog:
    a = random_sparse_matrix(n, n, density, seed=seed)
    x = random_dense_vector(n, seed=seed + 1)
    return (Catalog()
            .add(a_format.from_dense("A", a))
            .add(DenseFormat.from_dense("X", x))
            .add_scalar("beta", 0.5))


# ---------------------------------------------------------------------------
# candidates_for / candidate_formats
# ---------------------------------------------------------------------------


class TestCandidates:
    def test_rank_legality(self):
        rank1 = TensorStats(shape=(8,), nnz=3)
        rank2 = TensorStats(shape=(8, 8), nnz=3, square=True)
        rank3 = TensorStats(shape=(4, 4, 4), nnz=3)
        assert DenseFormat.candidates_for(rank1)
        assert COOFormat.candidates_for(rank3)
        assert CSRFormat.candidates_for(rank2)
        assert not CSRFormat.candidates_for(rank1)
        assert not CSRFormat.candidates_for(rank3)
        assert CSFFormat.candidates_for(rank3)
        assert not CSFFormat.candidates_for(rank2)
        assert DOKFormat.candidates_for(rank1)
        assert TrieFormat.candidates_for(rank3)

    def test_special_format_preconditions(self):
        tri = TensorStats(shape=(8, 8), nnz=10, square=True, lower_triangular=True)
        assert LowerTriangularFormat.candidates_for(tri)
        assert not LowerTriangularFormat.candidates_for(
            TensorStats(shape=(8, 8), nnz=10, square=True))
        band = TensorStats(shape=(8, 8), nnz=10, square=True, tridiagonal=True)
        assert BandFormat.candidates_for(band)
        assert ZOrderFormat.candidates_for(
            TensorStats(shape=(8, 8), nnz=10, square=True, pow2_square=True))
        assert not ZOrderFormat.candidates_for(
            TensorStats(shape=(6, 6), nnz=10, square=True, pow2_square=False))

    def test_tensor_stats_of_detects_structure(self):
        lower = np.tril(np.ones((8, 8)))
        stats = TensorStats.of(CSRFormat.from_dense("L", lower))
        assert stats.square and stats.lower_triangular and stats.pow2_square
        assert not stats.tridiagonal

    def test_candidate_formats_lists_legal_menu(self):
        fmt = CSRFormat.from_dense("A", np.tril(np.ones((8, 8))))
        names = candidate_formats(fmt)
        assert "csr" in names and "lower_triangular" in names and "zorder" in names
        assert "band" not in names and "csf" not in names
        general = candidate_formats(fmt, include_special=False)
        assert "lower_triangular" not in general and "csr" in general


# ---------------------------------------------------------------------------
# reformat / reformat_in_catalog
# ---------------------------------------------------------------------------


class TestReformat:
    def test_reformat_preserves_contents(self):
        dense = np.tril(np.random.default_rng(0).random((8, 8)))
        fmt = TrieFormat.from_dense("A", dense)
        for kind in ("dense", "coo", "csr", "csc", "dcsr", "dok",
                     "lower_triangular", "zorder"):
            converted = reformat(fmt, kind)
            assert converted.format_name == kind
            assert converted.name == "A"
            np.testing.assert_allclose(converted.to_dense(), dense)

    def test_reformat_same_kind_is_identity(self):
        fmt = CSRFormat.from_dense("A", np.eye(4))
        assert reformat(fmt, "csr") is fmt

    def test_reformat_unknown_kind(self):
        with pytest.raises(StorageError):
            reformat(CSRFormat.from_dense("A", np.eye(4)), "nonexistent")

    def test_reformat_in_catalog_bumps_schema_epoch(self):
        catalog = Catalog().add(CSRFormat.from_dense("A", np.eye(4)))
        before = catalog.schema_version
        converted = reformat_in_catalog(catalog, "A", "trie")
        assert catalog.tensors["A"] is converted
        assert catalog.schema_version == before + 1
        # No-op re-format leaves the epochs untouched.
        version = catalog.version
        reformat_in_catalog(catalog, "A", "trie")
        assert catalog.version == version
        with pytest.raises(StorageError):
            reformat_in_catalog(catalog, "missing", "csr")


# ---------------------------------------------------------------------------
# Statistics.with_formats
# ---------------------------------------------------------------------------


def test_with_formats_matches_full_rebuild():
    catalog = batax_catalog()
    stats = Statistics.from_catalog(catalog)
    candidate = reformat(catalog.tensors["A"], "csr")
    hypothetical = stats.with_formats([(catalog.tensors["A"], candidate)])

    rebuilt_catalog = Catalog()
    rebuilt_catalog.add(candidate).add(catalog.tensors["X"])
    rebuilt_catalog.add_scalar("beta", 0.5)
    rebuilt = Statistics.from_catalog(rebuilt_catalog)

    assert hypothetical.kinds == rebuilt.kinds
    assert hypothetical.scalar_values == rebuilt.scalar_values
    assert hypothetical.segments == rebuilt.segments
    assert set(hypothetical.profiles) == set(rebuilt.profiles)
    # The original is untouched (trie statistics still in place).
    assert stats.kind("A_trie") == "trie"
    assert hypothetical.kind("A_pos2") == "array"


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


class TestAdvise:
    def test_advisor_improves_on_naive_baseline(self):
        catalog = batax_catalog(a_format=TrieFormat)
        recommendation = Session(catalog).advise(BATAX_SRC)
        assert isinstance(recommendation, Recommendation)
        assert set(recommendation.formats) == {"A", "X"}
        assert recommendation.best.estimated_cost < recommendation.baseline.estimated_cost
        assert recommendation.estimated_speedup > 1.0
        assert recommendation.searched >= len(recommendation.candidates_per_tensor)
        # Catalog untouched by advice alone.
        assert catalog.tensors["A"].format_name == "trie"

    def test_ranked_is_sorted_and_summary_renders(self):
        recommendation = Session(batax_catalog()).advise(BATAX_SRC)
        costs = [c.estimated_cost for c in recommendation.ranked]
        assert costs == sorted(costs)
        text = recommendation.summary()
        assert "storage recommendation" in text and "advised" in text

    def test_weighted_workload_and_query_labels(self):
        catalog = batax_catalog()
        workload = [(BATAX_SRC, 3.0), (KERNELS["SUMMM"].source, 1.0)]
        # SUMMM references B, which is not registered — restrict to queries
        # over registered tensors instead.
        workload = [(BATAX_SRC, 3.0),
                    ("sum(<(i,j), a> in A) { () -> a }", 1.0)]
        recommendation = Session(catalog).advise(workload)
        assert set(recommendation.best.per_query) == {"q1", "q2"}

    def test_workload_normalization(self):
        queries = as_workload(BATAX_SRC)
        assert len(queries) == 1 and queries[0].weight == 1.0
        queries = as_workload([WorkloadQuery(BATAX_SRC, 2.0, "hot")])
        assert queries[0].name == "hot"
        queries = as_workload([BATAX_SRC, BATAX_SRC], weights=[1.0, 9.0])
        assert queries[1].weight == 9.0
        with pytest.raises(StorageError):
            as_workload([])

    def test_restricting_tensors(self):
        catalog = batax_catalog()
        recommendation = Session(catalog).advise(BATAX_SRC, tensors=["A"])
        assert set(recommendation.formats) == {"A"}
        with pytest.raises(StorageError):
            Session(catalog).advise(BATAX_SRC, tensors=["missing"])

    def test_workload_without_registered_tensors(self):
        catalog = batax_catalog()
        with pytest.raises(StorageError):
            Session(catalog).advise("sum(<i, v> in Z) { i -> v }")

    def test_conversion_cache_invalidated_on_catalog_mutation(self):
        catalog = batax_catalog(a_format=COOFormat)
        session = Session(catalog)
        advisor = Advisor(session)
        advisor.advise(BATAX_SRC)
        new_a = np.zeros((48, 48))
        new_a[0, 0] = 1.0
        session.replace_format(COOFormat.from_dense("A", new_a))
        advisor.advise(BATAX_SRC)
        # The cached csr conversion must reflect the *new* contents.
        np.testing.assert_allclose(advisor._format_for("A", "csr").to_dense(), new_a)

    def test_measure_mode_ranks_by_measurement(self):
        catalog = batax_catalog(n=24)
        recommendation = Session(catalog).advise(
            BATAX_SRC, measure=True, top_k=2, measure_repeats=1, refine_steps=1)
        assert recommendation.measured
        top = recommendation.ranked[0]
        assert top.measured_ms is not None and top.measured_ms > 0
        measured = [c.measured_ms for c in recommendation.ranked
                    if c.measured_ms is not None]
        assert measured == sorted(measured)
        assert len(measured) >= 2


# ---------------------------------------------------------------------------
# applying recommendations
# ---------------------------------------------------------------------------


class TestApply:
    def test_apply_recommendation_reformats_and_reprepares(self):
        catalog = batax_catalog(a_format=TrieFormat)
        session = Session(catalog, backend="typed")
        statement = session.prepare(BATAX_SRC, dense_shape=(48,))
        before = statement.execute()
        schema_before = catalog.schema_version

        recommendation = session.advise(BATAX_SRC)
        session.apply_recommendation(recommendation)
        assert catalog.tensors["A"].format_name == recommendation.formats["A"]
        assert catalog.schema_version > schema_before
        assert statement.is_stale
        after = statement.execute()        # transparently re-prepared
        np.testing.assert_allclose(after, before, rtol=1e-9, atol=1e-9)
        assert not statement.is_stale

    def test_apply_is_noop_for_unchanged_formats(self):
        catalog = batax_catalog(a_format=CSRFormat)
        session = Session(catalog)
        current = {name: fmt.format_name for name, fmt in catalog.tensors.items()}
        recommendation = Recommendation(
            formats=current,
            baseline=None, ranked=[], candidates_per_tensor={})
        version = catalog.version
        session.apply_recommendation(recommendation)
        assert catalog.version == version

    def test_apply_unknown_tensor_raises(self):
        session = Session(batax_catalog())
        recommendation = Recommendation(
            formats={"missing": "csr"},
            baseline=None, ranked=[], candidates_per_tensor={})
        with pytest.raises(StorageError):
            session.apply_recommendation(recommendation)

    def test_storel_advise_one_shot_apply(self):
        catalog = batax_catalog(a_format=TrieFormat)
        recommendation = storel.advise(BATAX_SRC, catalog, apply=True)
        assert catalog.tensors["A"].format_name == recommendation.formats["A"]
        assert catalog.tensors["A"].format_name != "trie"
        # The re-formatted catalog still computes the right answer.
        result = storel.run(BATAX_SRC, catalog, dense_shape=(48,))
        a = catalog.tensors["A"].to_dense()
        x = catalog.tensors["X"].to_dense()
        np.testing.assert_allclose(result, 0.5 * a.T @ (a @ x), rtol=1e-8)

    def test_changes_reports_only_real_changes(self):
        catalog = batax_catalog(a_format=TrieFormat)
        recommendation = Session(catalog).advise(BATAX_SRC)
        changes = recommendation.changes(catalog)
        assert "A" in changes and changes["A"][0] == "trie"
        for name, (old, new) in changes.items():
            assert old != new


    def test_changes_of_the_stored_sharded_spec_are_empty(self):
        catalog = batax_catalog(a_format=CSRFormat)
        reformat_in_catalog(catalog, "A", "sharded_csr@4")
        recommendation = Recommendation(formats={"A": "sharded_csr@4", "X": "dense"},
                                        baseline=None, ranked=[], candidates_per_tensor={})
        assert recommendation.changes(catalog) == {}
        to_csr = Recommendation(formats={"A": "csr"}, baseline=None, ranked=[],
                                candidates_per_tensor={})
        assert to_csr.changes(catalog) == {"A": ("sharded_csr@4", "csr")}


def test_measurement_optimizes_under_the_callers_options(monkeypatch):
    """``measure=True`` times the plans ``_score`` ranked: the measuring
    session's optimizer gets the advisor's ``optimizer_options`` too."""
    import repro.session as session_module

    seen = []

    class RecordingOptimizer(session_module.Optimizer):
        def __init__(self, stats, **options):
            seen.append(options)
            super().__init__(stats, **options)

    monkeypatch.setattr(session_module, "Optimizer", RecordingOptimizer)
    advisor = Advisor(Session(batax_catalog(a_format=CSRFormat)),
                      optimizer_options={"iter_limit": 3})
    recommendation = advisor.advise(BATAX_SRC, measure=True, top_k=1, measure_repeats=1,
                                    probe_families=False, refine_steps=0)
    assert recommendation.measured
    assert seen and all(options == {"iter_limit": 3} for options in seen)


# ---------------------------------------------------------------------------
# harness shootout
# ---------------------------------------------------------------------------


def test_advisor_shootout_measures_configurations():
    from repro.workloads.harness import advisor_shootout

    catalog = batax_catalog(n=24)
    configurations = {
        "trie": {"A": "trie", "X": "dense"},
        "csr": {"A": "csr", "X": "dense"},
    }
    measurements = advisor_shootout(KERNELS["BATAX"], catalog, configurations,
                                    repeats=1, rounds=1)
    assert [m.system for m in measurements] == ["STOREL[trie]", "STOREL[csr]"]
    for measurement in measurements:
        assert measurement.status == "ok" and measurement.correct
        assert measurement.mean_ms is not None
        assert "A:" in measurement.detail
    # The shootout leaves the input catalog untouched.
    assert catalog.tensors["A"].format_name == "trie"
