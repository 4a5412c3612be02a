"""One request pipeline: ``Session`` and ``Server`` run the same code.

``Server`` is a ``Session`` with an admission gate, counters and a snapshot
per request, so the same script of catalog mutations, statements, views,
feedback and failures must give equal results *and* equal plan-cache
traffic through either.  Also pinned here, on both entry points:

* a recommendation that names the format a tensor is already stored in —
  including a sharded spec like ``sharded_csr@4`` — moves no epoch;
* a plan over an unregistered tensor is refused with ``StorageError``
  before it is cached, and registering the tensor then serves the request.
"""

import numpy as np
import pytest

import repro.session
from repro.advisor import Recommendation
from repro.sdqlite.errors import StorageError
from repro.serving import Server
from repro.session import Session
from repro.storage import Catalog, CSRFormat, DenseFormat, ShardedCSRFormat

pytestmark = pytest.mark.timeout(120)

N = 6
SCALED = "sum(<(i, j), v> in A) {{ j -> {c} * beta * v * X(i) }}"
SQUARES = "sum(<(i, j), v> in A) v * v"


def _inputs():
    rng = np.random.default_rng(17)
    a = np.where(rng.random((N, N)) < 0.4, np.round(rng.random((N, N)), 3), 0.0)
    return a, np.round(rng.random(N), 3)


def _register(obj, state):
    a, x = state["inputs"]
    obj.register(CSRFormat.from_dense("A", a)).register(DenseFormat.from_dense("X", x))
    obj.set_scalar("beta", 2.0)


def _literal_and_param(obj, state):
    state["statement"] = obj.prepare(SCALED.format(c=3), dense_shape=(N,))
    return state["statement"].execute(beta=0.5)


def _another_literal_shares_the_plan(obj, state):
    result = obj.prepare(SCALED.format(c=7), dense_shape=(N,)).execute()
    assert obj.plans.misses == 1                 # 7 * ... reused 3 * ...'s plan
    return result


def _set_scalar(obj, state):
    obj.set_scalar("beta", 4.0)
    return state["statement"].execute()


def _replace_format(obj, state):
    obj.replace_format(DenseFormat.from_dense("A", state["inputs"][0]))
    return state["statement"].execute()


def _update_with_two_views(obj, state):
    obj.create_view("colsum", "sum(<(i, j), v> in A) { j -> v }", dense_shape=(N,))
    obj.create_view("total", "sum(<(i, j), v> in A) 2 * v", dense_shape=())
    obj.update("A", [(0, 1), (2, 3)], [1.5, -0.5])
    return [obj.view("colsum").value(), obj.view("total").value(),
            state["statement"].execute()]


def _drop(obj, state):
    obj.register(DenseFormat.from_dense("Y", state["inputs"][1]))
    obj.drop("Y")
    return state["statement"].execute()


def _feedback(obj, state):
    obj.enable_feedback(sample_every=1)
    results = [state["statement"].execute() for _ in range(3)]
    return results + [obj.feedback_report()["profiled_runs"]]


def _failing_build(obj, state):
    """An optimizer exception inside a single-flight build leaves no residue."""
    monkeypatch, entries = state["monkeypatch"], len(obj.plans)

    def exploding(*args, **kwargs):
        raise RuntimeError("optimizer exploded")

    monkeypatch.setattr(repro.session, "Optimizer", exploding)
    with pytest.raises(RuntimeError, match="exploded"):
        obj.run(SQUARES)
    monkeypatch.undo()
    assert len(obj.plans) == entries and not obj.plans._inflight
    return obj.run(SQUARES)                      # the next request succeeds


SCRIPT = [_register, _literal_and_param, _another_literal_shares_the_plan, _set_scalar,
          _replace_format, _update_with_two_views, _drop, _feedback, _failing_build]


def _assert_same(left, right, step):
    if isinstance(left, list):
        assert len(left) == len(right), step
        for one, other in zip(left, right):
            _assert_same(one, other, step)
    elif left is None:
        assert right is None, step
    else:
        np.testing.assert_array_equal(left, right, err_msg=step)


def test_session_and_server_run_one_script_alike(monkeypatch):
    traces = []
    for make in (Session, Server):
        obj, trace = make(), []
        state = {"inputs": _inputs(), "monkeypatch": monkeypatch}
        for step in SCRIPT:
            result = step(obj, state)
            trace.append((step.__name__, result, obj.plans.hits, obj.plans.misses))
        traces.append(trace)
    for (step, left, *left_counts), (_, right, *right_counts) in zip(*traces):
        _assert_same(left, right, step)
        assert left_counts == right_counts, f"{step}: plan cache hits/misses differ"
    a, x = _inputs()
    np.testing.assert_allclose(traces[0][1][1], 3 * 0.5 * (x @ a))


@pytest.mark.parametrize("make", [Session, Server])
def test_a_recommendation_of_the_stored_sharded_spec_moves_no_epoch(make):
    a, _ = _inputs()
    catalog = Catalog().add(ShardedCSRFormat.from_dense("A", a, shards=4))
    assert catalog["A"].spec_name == "sharded_csr@4"
    obj, before = make(catalog), catalog.epochs()
    obj.apply_recommendation(Recommendation(formats={"A": "sharded_csr@4"}, baseline=None,
                                            ranked=[], candidates_per_tensor={}))
    assert catalog.epochs() == before


@pytest.mark.parametrize("make", [Session, Server])
def test_an_unregistered_tensor_is_refused_before_its_plan_is_cached(make):
    a, x = _inputs()
    obj = make(Catalog().add(CSRFormat.from_dense("A", a)))
    run = obj.execute if isinstance(obj, Server) else obj.run
    text = "sum(<(i, j), v> in A, <k, z> in Z) if (j == k) then { i -> v * z }"
    with pytest.raises(StorageError, match=r"unbound symbol\(s\) \['Z'\]"):
        run(text, dense_shape=(N,))
    assert len(obj.plans) == 0
    obj.register(DenseFormat.from_dense("Z", x))
    np.testing.assert_allclose(run(text, dense_shape=(N,)), a @ x)
