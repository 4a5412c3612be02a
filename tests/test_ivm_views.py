"""Materialized views, fine-grained catalog updates, and epoch discipline.

Covers the pieces the IVM subsystem (``docs/ivm.md``) is built from:

* :meth:`repro.storage.Catalog.update` — a sparse point-update is a
  *value-only* mutation: the data epoch moves, the schema epoch does not,
  so prepared statements and shared plans survive;
* the :meth:`repro.storage.Catalog.replace` refinement — a same-class,
  same-shape swap no longer bumps the schema epoch either (the historical
  over-invalidation), while a format-class change still does;
* :class:`repro.ivm.views.ViewRegistry` maintenance through
  :class:`~repro.session.Session` and :class:`~repro.serving.Server` —
  delta refreshes vs. cost-based and structural fallbacks, and the
  maintenance counters surfaced in :meth:`repro.serving.ServerStats
  .snapshot`.
"""

import logging

import numpy as np
import pytest

from repro.execution.buffers import BufferDict
from repro.execution.engine import result_to_dense
from repro.sdqlite.errors import StorageError
from repro.serving import Server
from repro.session import Session
from repro.storage import Catalog
from repro.storage.formats import COOFormat, CSRFormat, DenseFormat


def small_catalog():
    a = np.array([[1.0, 0.0, 2.0], [0.0, 3.0, 0.0], [4.0, 0.0, 5.0]])
    b = np.array([[1.0, 2.0], [0.0, 1.0], [3.0, 0.0]])
    catalog = Catalog()
    catalog.add(CSRFormat.from_dense("A", a))
    catalog.add(DenseFormat("B", b))
    return catalog, a, b

MMM = ("sum(<(i, j), a> in A, <(j2, k), b> in B) "
       "if (j == j2) then { (i, k) -> a * b }")


def dense_result(value, shape):
    return result_to_dense(value, shape)


# -- Catalog.update -----------------------------------------------------------


def test_catalog_update_bumps_only_the_data_epoch():
    catalog, a, _ = small_catalog()
    version, schema = catalog.epochs()
    catalog.update("A", [(0, 1), (2, 2)], [7.0, -5.0])
    assert catalog.version > version
    assert catalog.schema_version == schema
    expected = a.copy()
    expected[0, 1] += 7.0
    expected[2, 2] -= 5.0
    np.testing.assert_array_equal(catalog["A"].to_dense(), expected)


def test_catalog_update_cancellation_drops_the_entry():
    catalog, a, _ = small_catalog()
    nnz = catalog["A"].nnz
    catalog.update("A", [(1, 1)], [-3.0])   # a[1,1] == 3.0 -> exact zero
    assert catalog["A"].nnz == nnz - 1


def test_catalog_update_validates_its_arguments():
    catalog, _, _ = small_catalog()
    with pytest.raises(StorageError):
        catalog.update("missing", [(0, 0)], [1.0])
    with pytest.raises(StorageError):
        catalog.update("A", [(0, 99)], [1.0])
    with pytest.raises(StorageError):
        catalog.update("A", [(0, 0), (1, 1)], [1.0])


# -- the replace() refinement (epoch over-invalidation fix) -------------------


def test_same_class_replace_is_value_only():
    catalog, a, _ = small_catalog()
    version, schema = catalog.epochs()
    catalog.replace(CSRFormat.from_dense("A", a * 2))
    assert catalog.version > version
    assert catalog.schema_version == schema


def test_format_class_replace_still_bumps_the_schema_epoch():
    catalog, a, _ = small_catalog()
    _, schema = catalog.epochs()
    catalog.replace(COOFormat.from_dense("A", a * 2))
    assert catalog.schema_version > schema


def test_shape_change_still_bumps_the_schema_epoch():
    catalog, _, _ = small_catalog()
    _, schema = catalog.epochs()
    catalog.replace(CSRFormat.from_dense("A", np.eye(4)))
    assert catalog.schema_version > schema


def test_prepared_statements_survive_a_value_only_replace():
    catalog, a, b = small_catalog()
    with Server(catalog) as server:
        source = "sum(<(i, j), a> in A) { i -> a }"
        server.execute(source)
        server.replace_format(CSRFormat.from_dense("A", a * 2))
        result = server.execute(source)
        snapshot = server.stats.snapshot()
        # One miss for the first request; the post-replace request hits the
        # shared plan (same schema epoch -> same plan key, no re-prepare).
        assert snapshot["plan_misses"] == 1
        assert snapshot["plan_hits"] == 1
        assert snapshot["re_prepares"] == 0
        np.testing.assert_allclose([result.get(i, 0.0) for i in range(3)],
                                   (a * 2).sum(axis=1))


# -- session-level views ------------------------------------------------------


def test_session_view_maintains_through_updates(caplog):
    catalog, a, b = small_catalog()
    with Session(catalog, backend="interpret") as session:
        view = session.create_view("mmm", MMM)
        registry = session.views()
        registry.fallback_ratio = 1e9   # toy scale: force the delta path
        np.testing.assert_allclose(dense_result(view.value(), (3, 2)), a @ b)

        with caplog.at_level(logging.DEBUG, logger="repro.ivm"):
            session.update("A", [(0, 1), (1, 0)], [5.0, -1.0])
        # The interpreter's results are not typed buffers.
        assert "view 'mmm'" in caplog.text and "entry by entry" in caplog.text
        a2 = a.copy()
        a2[0, 1] += 5.0
        a2[1, 0] -= 1.0
        np.testing.assert_allclose(dense_result(view.value(), (3, 2)), a2 @ b)
        assert view.delta_refreshes == 1

        session.update("B", [(2, 1), (0, 0)], [1.5, -1.0])
        b2 = b.copy()
        b2[2, 1] += 1.5
        b2[0, 0] -= 1.0
        np.testing.assert_allclose(dense_result(view.value(), (3, 2)), a2 @ b2)
        assert view.delta_refreshes == 2
        assert view.full_refreshes == 1   # only the initial materialization


def test_session_update_without_views_is_a_plain_catalog_update():
    catalog, a, _ = small_catalog()
    with Session(catalog) as session:
        session.update("A", [(0, 0)], [1.0])
        assert session.run("sum(<(i, j), a> in A) a") == pytest.approx(
            a.sum() + 1.0)


def test_view_registry_rejects_duplicates_and_unknown_names():
    catalog, _, _ = small_catalog()
    with Session(catalog) as session:
        session.create_view("v", "sum(<(i, j), a> in A) a")
        with pytest.raises(StorageError):
            session.create_view("v", "sum(<(i, j), a> in A) a")
        with pytest.raises(StorageError):
            session.view("missing")
        session.drop_view("v")
        with pytest.raises(StorageError):
            session.drop_view("v")


def test_schema_change_triggers_full_refresh_on_next_read():
    catalog, a, b = small_catalog()
    with Session(catalog) as session:
        view = session.create_view("mmm", MMM)
        view.value()
        # A format-class change moves the schema epoch behind the registry's
        # back; the next read must fall back to full re-execution.
        session.replace_format(COOFormat.from_dense("A", a * 3))
        np.testing.assert_allclose(dense_result(view.value(), (3, 2)),
                                   (a * 3) @ b)
        assert view.full_refreshes == 2


def test_structural_fallback_for_nonlinear_programs(caplog):
    catalog, a, _ = small_catalog()
    with Session(catalog) as session:
        view = session.create_view(
            "sq", "sum(<(i, j), v> in A) v * v")
        registry = session.views()
        registry.fallback_ratio = 1e9
        assert view.delta_program("A") is None   # v*v is not linear in v
        with caplog.at_level(logging.DEBUG, logger="repro.ivm"):
            session.update("A", [(0, 0)], [2.0])
        assert "view 'sq': full refresh" in caplog.text
        assert "(no delta plan)" in caplog.text
        a2 = a.copy()
        a2[0, 0] += 2.0
        assert view.value() == pytest.approx((a2 * a2).sum())
        assert view.delta_refreshes == 0
        assert view.full_refreshes == 2


def test_large_deltas_fall_back_to_full_refresh(caplog):
    catalog, a, b = small_catalog()
    with Session(catalog) as session:
        view = session.create_view("mmm", MMM)
        registry = session.views()
        registry.fallback_ratio = 1e9
        registry.max_delta_fraction = 0.1   # any delta is "too large" here
        with caplog.at_level(logging.DEBUG, logger="repro.ivm"):
            session.update("A", [(0, 1)], [1.0])
        assert "(delta does not pay)" in caplog.text
        a2 = a.copy()
        a2[0, 1] += 1.0
        np.testing.assert_allclose(dense_result(view.value(), (3, 2)), a2 @ b)
        assert view.delta_refreshes == 0


def test_update_of_a_stale_view_refreshes_it_in_full(caplog):
    catalog, a, b = small_catalog()
    with Session(catalog) as session:
        view = session.create_view("mmm", MMM)
        session.views().fallback_ratio = 1e9
        catalog.update("A", [(0, 0)], [1.0])    # behind the registry's back
        with caplog.at_level(logging.DEBUG, logger="repro.ivm"):
            session.update("A", [(0, 1)], [1.0])
        assert "(stale view)" in caplog.text
        a2 = a.copy()
        a2[0, 0] += 1.0
        a2[0, 1] += 1.0
        np.testing.assert_allclose(dense_result(view.value(), (3, 2)), a2 @ b)
        assert (view.delta_refreshes, view.full_refreshes) == (0, 2)


def test_typed_views_stay_in_buffer_form_across_updates(caplog):
    """The result of a maintained view never decays to a Python dictionary:
    ``value()`` keeps its O(nnz) scatter and equals a fresh full refresh."""
    rng = np.random.default_rng(11)
    n = 24
    a = np.where(rng.random((n, n)) < 0.2, rng.integers(1, 5, (n, n)), 0).astype(float)
    b = np.where(rng.random((n, 6)) < 0.4, rng.integers(1, 5, (n, 6)), 0).astype(float)
    catalog = Catalog().add(CSRFormat.from_dense("A", a)).add(CSRFormat.from_dense("B", b))
    programs = {"mmm": (MMM, (n, 6)), "rowsum": ("sum(<(i, j), v> in A) { i -> v }", (n,))}
    with Session(catalog, backend="typed") as session:
        views = {name: session.create_view(name, source, dense_shape=shape)
                 for name, (source, shape) in programs.items()}
        session.views().fallback_ratio = 1e9
        with caplog.at_level(logging.DEBUG, logger="repro.ivm"):
            for step in range(6):
                coords = rng.integers(0, n, (3, 2))
                # Integer deltas keep every sum exact; one of them deletes an entry.
                values = rng.integers(1, 4, 3).astype(float)
                if step == 3:
                    stored = catalog["A"].to_coo()
                    coords, values = stored[0][:1], -stored[1][:1]
                session.update("A", coords, values)
                np.add.at(a, tuple(np.asarray(coords).T), values)
                for name, view in views.items():
                    assert type(view._result) is BufferDict
                    assert view.delta_refreshes == step + 1
                    maintained = view.value()
                    fresh = session.prepare(programs[name][0]).execute()
                    assert maintained.tobytes() == result_to_dense(
                        fresh, programs[name][1]).tobytes()
        assert not caplog.records               # no refresh, no entry-wise add
        np.testing.assert_array_equal(views["mmm"].value(), a @ b)
        np.testing.assert_array_equal(views["rowsum"].value(), a.sum(axis=1))


def test_merge_fallbacks_count_entry_by_entry_additions():
    """Typed MMM and rowsum views merge every delta in buffer form (the
    counter stays 0 across 50 updates); an interpreter-backed view, whose
    results are plain dictionaries, counts one fallback per update."""
    rng = np.random.default_rng(23)
    n = 16
    a = np.where(rng.random((n, n)) < 0.3, rng.integers(1, 5, (n, n)), 0).astype(float)
    b = rng.integers(1, 5, (n, 4)).astype(float)      # no empty row: no empty delta
    catalog = Catalog().add(CSRFormat.from_dense("A", a)).add(CSRFormat.from_dense("B", b))
    with Session(catalog, backend="typed") as session:
        typed = [session.create_view("mmm", MMM, dense_shape=(n, 4)),
                 session.create_view("rowsum", "sum(<(i, j), v> in A) { i -> v }",
                                     dense_shape=(n,))]
        interpreted = session.create_view("mmm_interpret", MMM, backend="interpret",
                                          dense_shape=(n, 4))
        session.views().fallback_ratio = 1e9
        for step in range(50):
            coords = rng.integers(0, n, (2, 2))
            values = rng.integers(1, 4, 2).astype(float)
            session.update("A", coords, values)
            np.add.at(a, tuple(coords.T), values)
            assert interpreted.merge_fallbacks == step + 1
        for view in typed + [interpreted]:
            assert view.delta_refreshes == 50
        assert [view.merge_fallbacks for view in typed] == [0, 0]
        np.testing.assert_array_equal(typed[0].value(), a @ b)
        np.testing.assert_array_equal(typed[1].value(), a.sum(axis=1))
        np.testing.assert_array_equal(interpreted.value(), a @ b)


def test_delta_plans_are_priced_once_per_statistics_fingerprint(monkeypatch):
    """The fallback decision's price of a delta plan depends only on the
    statistics of the symbols the plan names: MMM's delta names B and the
    delta, whose statistics repeat, so it is priced once; A @ A's delta also
    names A, whose entry count changes with every insert, so it is priced
    per update.  The memoized price always equals a fresh estimate."""
    from repro.core.cost import CostModel
    from repro.ivm.views import DeltaPlan

    priced = []
    price = DeltaPlan.price

    def checked(plan, stats):
        cost = price(plan, stats)
        assert cost == CostModel(stats).plan_cost(plan.optimization.plan)
        priced.append(plan.tensor)
        return cost

    monkeypatch.setattr(DeltaPlan, "price", checked)
    n = 12
    a = np.eye(n)
    b = np.ones((n, 3))
    square = MMM.replace("in B", "in A")
    catalog = Catalog().add(CSRFormat.from_dense("A", a)).add(CSRFormat.from_dense("B", b))
    with Session(catalog, backend="typed") as session:
        views = [session.create_view("mmm", MMM, dense_shape=(n, 3)),
                 session.create_view("square", square, dense_shape=(n, n))]
        session.views().fallback_ratio = 1e9
        for step in range(10):      # two new entries in distinct rows and columns
            coords = np.array([[step + 1, step], [step, step + 2]])
            session.update("A", coords, [1.0, 2.0])
            np.add.at(a, tuple(coords.T), [1.0, 2.0])
        assert len(priced) == 20
        assert [view.delta_refreshes for view in views] == [10, 10]
        assert len(views[0]._delta_plans["A"].costs) == 1
        assert len(views[1]._delta_plans["A"].costs) == 10
        np.testing.assert_allclose(views[0].value(), a @ b)
        np.testing.assert_allclose(views[1].value(), a @ a)


def test_trivial_delta_skips_execution_entirely():
    catalog, a, b = small_catalog()
    with Session(catalog) as session:
        view = session.create_view("asum", "sum(<(i, j), v> in A) v")
        before = view.value()
        session.update("B", [(0, 0)], [9.0])   # the view ignores B
        assert view.value() == before
        assert view.delta_refreshes == 1       # maintained, but for free
        assert view.full_refreshes == 1


# -- server-level views and maintenance counters ------------------------------


def test_server_views_and_maintenance_stats():
    catalog, a, b = small_catalog()
    with Server(catalog) as server:
        view = server.create_view("mmm", MMM, dense_shape=(3, 2))
        registry = server.views()
        registry.fallback_ratio = 1e9
        np.testing.assert_allclose(view.value(), a @ b)

        server.update("A", [(0, 1)], [5.0])
        a2 = a.copy()
        a2[0, 1] += 5.0
        np.testing.assert_allclose(server.view("mmm").value(), a2 @ b)

        snapshot = server.stats.snapshot()
        assert snapshot["views"] == 1
        assert snapshot["views_maintained"] == 1
        assert snapshot["delta_executions"] == 1
        assert snapshot["full_refreshes"] == 0
        assert snapshot["maintenance_count"] == 1
        assert snapshot["maintenance_mean_ms"] >= 0.0

        server.drop_view("mmm")
        server.update("A", [(0, 1)], [1.0])   # no views left: plain update
        assert server.stats.snapshot()["views_maintained"] == 1


def test_server_update_without_views_keeps_plans_warm():
    catalog, a, _ = small_catalog()
    with Server(catalog) as server:
        source = "sum(<(i, j), v> in A) v"
        first = server.execute(source)
        server.update("A", [(1, 0)], [2.5])
        second = server.execute(source)
        assert first == pytest.approx(a.sum())
        assert second == pytest.approx(a.sum() + 2.5)
        snapshot = server.stats.snapshot()
        assert snapshot["plan_misses"] == 1
        assert snapshot["re_prepares"] == 0
