"""Deterministic guard-matrix tests for the online advisor (repro.advisor.online).

The :class:`~repro.advisor.OnlineAdvisor` auto-applies format changes, which
is only safe because of its regression guard — so the guard is what these
tests pin, with **zero timing jitter**: the measurement function and the
clock are both injected.  The fake measure reads the catalog's current
format for the adapted tensor and returns whatever timing the scenario
prescribes; the fake clock is a plain counter the test advances by hand.

The matrix:

* a change that measures faster stays **applied**;
* a change that measures slower is **rolled back** on the spot (the catalog
  is byte-for-byte back on the previous formats);
* a rolled-back change is **not re-attempted** within its backoff window,
  and is re-attempted once the (fake) clock passes it;
* every apply/rollback is counted — on the advisor and, when attached, in
  :class:`~repro.serving.stats.ServerStats`.
"""

import numpy as np
import pytest

from repro.advisor import Advisor, OnlineAdvisor, Recommendation
from repro.serving import Server
from repro.serving.stats import ServerStats
from repro.session import Session
from repro.storage import DenseFormat, ShardedCSRFormat

SIZE = 64
SUM_AX = "sum(<i, Ai> in A) sum(<j, v> in Ai) v * X(j)"
#: The format the advisor recommends for ``A`` under ``SUM_AX``: column-major,
#: where the program runs as ``sum_j X(j) * (sum_i A(i)(j))``, one pass per column.
ADVISED = "csc"


def sparse_session():
    """A 5%-dense matrix registered as ``dense``: the advisor wants :data:`ADVISED`."""
    rng = np.random.default_rng(0)
    a = np.where(rng.random((SIZE, SIZE)) < 0.05, rng.random((SIZE, SIZE)), 0.0)
    session = Session()
    session.register(DenseFormat.from_dense("A", a))
    session.register(DenseFormat.from_dense("X", rng.random(SIZE)))
    return session


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def format_timed_measure(timings):
    """A measure function whose answer depends only on ``A``'s current format."""
    def measure(workload, catalog):
        return timings[catalog.tensors["A"].format_name]
    return measure


def make_advisor(session, timings, **kwargs):
    clock = FakeClock()
    kwargs.setdefault("measure", format_timed_measure(timings))
    kwargs.setdefault("clock", clock)
    kwargs.setdefault("backoff", 100.0)
    advisor = OnlineAdvisor(session, **kwargs)
    return advisor, clock


# ---------------------------------------------------------------------------
# the guard matrix
# ---------------------------------------------------------------------------


def test_faster_change_stays_applied():
    session = sparse_session()
    advisor, _ = make_advisor(session, {"dense": 1.0, ADVISED: 0.5})
    record = advisor.note(SUM_AX).step()
    assert record["action"] == "applied"
    assert record["changes"]["A"] == ("dense", ADVISED)
    assert session.catalog.tensors["A"].format_name == ADVISED
    assert (advisor.applies, advisor.rollbacks) == (1, 0)


def test_slower_change_is_rolled_back():
    session = sparse_session()
    advisor, _ = make_advisor(session, {"dense": 1.0, ADVISED: 2.0})
    record = advisor.note(SUM_AX).step()
    assert record["action"] == "rolled_back"
    assert record["candidate_s"] > record["baseline_s"]
    assert session.catalog.tensors["A"].format_name == "dense"
    assert (advisor.applies, advisor.rollbacks) == (1, 1)


def test_guard_ratio_tolerates_bounded_slowdown():
    session = sparse_session()
    advisor, _ = make_advisor(session, {"dense": 1.0, ADVISED: 1.2},
                              guard_ratio=1.5)
    assert advisor.note(SUM_AX).step()["action"] == "applied"
    assert session.catalog.tensors["A"].format_name == ADVISED


def test_rolled_back_change_is_not_retried_within_backoff():
    session = sparse_session()
    advisor, clock = make_advisor(session, {"dense": 1.0, ADVISED: 2.0},
                                  backoff=100.0)
    advisor.note(SUM_AX)
    assert advisor.step()["action"] == "rolled_back"
    clock.now = 50.0
    record = advisor.step()
    assert record["action"] == "skipped_backoff"
    assert record["retry_in"] == pytest.approx(50.0)
    assert advisor.rollbacks == 1          # the guard did not re-measure


def test_rolled_back_change_is_retried_after_backoff_expires():
    session = sparse_session()
    timings = {"dense": 1.0, ADVISED: 2.0}
    advisor, clock = make_advisor(session, timings, backoff=100.0)
    advisor.note(SUM_AX)
    assert advisor.step()["action"] == "rolled_back"
    # The regression that made csr slow goes away; the clock passes backoff.
    timings[ADVISED] = 0.5
    clock.now = 101.0
    assert advisor.step()["action"] == "applied"
    assert session.catalog.tensors["A"].format_name == ADVISED


def test_counts_mirror_into_server_stats():
    session = sparse_session()
    stats = ServerStats()
    advisor, clock = make_advisor(session, {"dense": 1.0, ADVISED: 2.0},
                                  server_stats=stats)
    advisor.note(SUM_AX).step()                    # apply + rollback
    clock.now = 1000.0
    advisor.step()                                 # retried: apply + rollback
    snapshot = stats.snapshot()
    assert snapshot["advisor_applies"] == advisor.applies == 2
    assert snapshot["advisor_rollbacks"] == advisor.rollbacks == 2


# ---------------------------------------------------------------------------
# the non-applying actions
# ---------------------------------------------------------------------------


def test_empty_window_is_idle():
    advisor, _ = make_advisor(sparse_session(), {"dense": 1.0, ADVISED: 0.5})
    assert advisor.step() == {"action": "idle"}


def test_already_optimal_formats_are_no_change():
    session = sparse_session()
    advisor, _ = make_advisor(session, {"dense": 1.0, ADVISED: 0.5})
    advisor.note(SUM_AX)
    assert advisor.step()["action"] == "applied"
    assert advisor.step()["action"] == "no_change"
    assert advisor.applies == 1


def test_small_estimated_wins_are_not_applied():
    session = sparse_session()
    advisor, _ = make_advisor(session, {"dense": 1.0, ADVISED: 0.5},
                              min_estimated_speedup=1e9)
    record = advisor.note(SUM_AX).step()
    assert record["action"] == "below_min_speedup"
    assert session.catalog.tensors["A"].format_name == "dense"
    assert advisor.applies == 0


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


def test_window_keeps_only_the_most_recent_entries():
    advisor, _ = make_advisor(sparse_session(), {"dense": 1.0, ADVISED: 0.5},
                              window=3)
    for weight in range(5):
        advisor.note(SUM_AX, weight=float(weight))
    assert [query.weight for query in advisor.window()] == [2.0, 3.0, 4.0]


def test_history_and_report_track_every_step():
    session = sparse_session()
    advisor, _ = make_advisor(session, {"dense": 1.0, ADVISED: 0.5})
    advisor.step()
    advisor.note(SUM_AX).step()
    assert [record["action"] for record in advisor.history] == ["idle", "applied"]
    report = advisor.report()
    assert report["steps"] == 2
    assert report["applies"] == 1
    assert report["last_action"] == "applied"


@pytest.mark.parametrize("kwargs", [{"window": 0}, {"rounds": 0},
                                    {"guard_ratio": 0.0}])
def test_constructor_rejects_degenerate_knobs(kwargs):
    with pytest.raises(ValueError):
        OnlineAdvisor(sparse_session(), **kwargs)


def test_a_recommendation_of_the_stored_sharded_spec_is_no_change(monkeypatch):
    """``sharded_csr@4`` advised for a tensor stored as ``sharded_csr@4`` is
    no change: nothing is applied or measured and no epoch moves."""
    rng = np.random.default_rng(0)
    session = Session()
    session.register(ShardedCSRFormat.from_dense("A", rng.random((SIZE, SIZE)), shards=4))
    session.register(DenseFormat.from_dense("X", rng.random(SIZE)))
    recommendation = Recommendation(formats={"A": "sharded_csr@4"}, baseline=None,
                                    ranked=[], candidates_per_tensor={})
    assert recommendation.changes(session.catalog) == {}
    monkeypatch.setattr(Advisor, "advise", lambda self, workload, **options: recommendation)
    measured = []
    advisor, _ = make_advisor(
        session, {}, measure=lambda workload, catalog: measured.append(catalog) or 1.0)
    before = session.catalog.epochs()
    assert advisor.note(SUM_AX).step()["action"] == "no_change"
    assert session.catalog.epochs() == before
    assert advisor.applies == 0 and measured == []


def test_real_measurement_path_runs_end_to_end():
    """Without injected measure/clock the advisor still works (no asserts on
    which way the guard goes — real timings — only on invariants)."""
    session = sparse_session()
    advisor = OnlineAdvisor(session, rounds=1)
    record = advisor.note(SUM_AX).step()
    assert record["action"] in ("applied", "rolled_back")
    expected = ADVISED if record["action"] == "applied" else "dense"
    assert session.catalog.tensors["A"].format_name == expected


def test_for_server_adapts_the_live_catalog_and_counts_into_server_stats():
    rng = np.random.default_rng(0)
    a = np.where(rng.random((SIZE, SIZE)) < 0.05, rng.random((SIZE, SIZE)), 0.0)
    x = rng.random(SIZE)
    with Server() as server:
        server.register(DenseFormat.from_dense("A", a))
        server.register(DenseFormat.from_dense("X", x))
        expected = server.execute(SUM_AX)
        advisor = OnlineAdvisor.for_server(
            server, measure=format_timed_measure({"dense": 1.0, ADVISED: 0.5}),
            clock=FakeClock())
        record = advisor.note(SUM_AX).step()
        assert record["action"] == "applied"
        assert server.catalog.tensors["A"].format_name == ADVISED
        assert server.stats.snapshot()["advisor_applies"] == 1
        # The adapted catalog serves the same result through the server path.
        assert server.execute(SUM_AX) == pytest.approx(expected)
        assert expected == pytest.approx(float(a.sum(axis=0) @ x))
