"""The typed backend's dense sink against its eager path.

A caller that asks for a dense shape (``PreparedPlan.run(dense_shape=...)``,
and through it ``Statement`` / ``Server`` / ``StorelSystem``) gets the root
reduction summed straight into the output array.  It must be exactly what
densifying the ``BufferDict`` result gives — same values, NaNs and signs of
zero — and must step aside where the eager path behaves differently:
keys outside ``[0, shape)`` (negative keys wrap, oversized keys raise),
profiled runs, and views, which keep a dictionary to maintain.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import Session  # noqa: E402
from repro.baselines.base import output_shape  # noqa: E402
from repro.baselines.storel_system import StorelSystem  # noqa: E402
from repro.data.synthetic import random_sparse_matrix  # noqa: E402
from repro.execution import BufferDict, PreparedPlan, result_to_dense, typed_plan  # noqa: E402
from repro.execution.profile import ExecutionProfile  # noqa: E402
from repro.kernels import KERNELS  # noqa: E402
from repro.sdqlite import parse_expr, to_debruijn  # noqa: E402
from repro.serving import Server  # noqa: E402
from repro.storage import Catalog, CSRFormat  # noqa: E402

#: Values whose sums expose any change of order or starting value: signed
#: zeros, exact cancellations, overflow to infinity and NaN.
EDGE_VALUES = [0.0, -0.0, 1.5, -1.5, 0.1, 0.2, 0.3, 1e308, -1e308,
               np.inf, -np.inf, np.nan]

PROGRAMS = {
    1: "sum(<p, _> in 0:N) { I(p) -> V(p) }",
    2: "sum(<p, _> in 0:N) { I(p) -> { J(p) -> V(p) } }",
    3: "sum(<p, _> in 0:N) { I(p) -> { J(p) -> { K(p) -> V(p) } } }",
}


def both_paths(rank, env, shape):
    """``(eager, sunk, dense_sink)``: each side a dense array or the
    exception type it raised."""
    plan = to_debruijn(parse_expr(PROGRAMS[rank]))
    artifact = typed_plan(plan)
    try:
        eager = result_to_dense(artifact(env), shape)
    except Exception as error:      # noqa: BLE001 - compared by type below
        eager = type(error)
    stats = {}
    try:
        sunk = PreparedPlan(plan, env, artifact).run(stats=stats, dense_shape=shape)
    except Exception as error:      # noqa: BLE001
        sunk = type(error)
    return eager, sunk, stats.get("dense_sink")


@st.composite
def entry_bags(draw, inside_only=False):
    rank = draw(st.integers(1, 3))
    shape = tuple(draw(st.lists(st.integers(0 if not inside_only else 1, 4),
                                min_size=rank, max_size=rank)))
    n = draw(st.integers(0, 24))
    env = {"N": n, "V": np.array(draw(st.lists(st.sampled_from(EDGE_VALUES),
                                               min_size=n, max_size=n)), dtype=np.float64)}
    for name, extent in zip("IJK", shape):
        keys = st.integers(0, extent - 1) if inside_only else st.integers(-2, extent + 1)
        env[name] = np.array(draw(st.lists(keys, min_size=n, max_size=n)), dtype=np.int64)
    return rank, env, shape


@settings(max_examples=300, deadline=None)
@given(entry_bags())
def test_sink_equals_the_eager_path_bit_for_bit(same_dense, case):
    rank, env, shape = case
    eager, sunk, sank = both_paths(rank, env, shape)
    if isinstance(eager, type):
        assert sunk is eager            # same exception, e.g. IndexError
        assert sank == 0
        return
    same_dense(sunk, eager)
    inside = all(((env[name] >= 0) & (env[name] < extent)).all()
                 for name, extent in zip("IJK", shape))
    assert sank == (1 if inside and env["N"] else 0)   # an empty range reduces nothing


@settings(max_examples=100, deadline=None)
@given(entry_bags(inside_only=True))
def test_sink_takes_every_bag_inside_the_shape(same_dense, case):
    rank, env, shape = case
    eager, sunk, sank = both_paths(rank, env, shape)
    assert sank == (1 if env["N"] else 0)
    same_dense(sunk, eager)


def test_sink_on_fixed_edge_cases(same_dense):
    def run(keys, values, shape=(3,)):
        env = {"N": len(keys), "I": np.array(keys, dtype=np.int64),
               "V": np.array(values, dtype=np.float64)}
        eager, sunk, sank = both_paths(1, env, shape)
        if not isinstance(eager, type):
            same_dense(sunk, eager)
        return sunk, sank

    # -0.0 alone, -0.0 + -0.0 and x + -x all read as +0.0; NaN survives.
    sunk, sank = run([0, 1, 1, 2, 2], [-0.0, -0.0, -0.0, 2.5, -2.5])
    assert sank == 1 and sunk.tolist() == [0.0, 0.0, 0.0] and not np.signbit(sunk).any()
    sunk, _ = run([0, 0, 2], [np.nan, 1.0, np.inf])
    assert np.isnan(sunk[0]) and sunk[1] == 0.0 and sunk[2] == np.inf
    # Everything cancels: an all-zero array, like densifying the empty result.
    sunk, sank = run([1, 1], [0.1, -0.1])
    assert sank == 1 and sunk.tolist() == [0.0, 0.0, 0.0]
    # A negative key wraps as indexing does; the sink stays out of it.
    sunk, sank = run([-1, 0], [4.0, 1.0])
    assert sank == 0 and sunk.tolist() == [1.0, 0.0, 4.0]
    # An oversized key still raises.
    sunk, sank = run([3], [1.0])
    assert sunk is IndexError and sank == 0
    # No entries at all, and a zero-extent output.
    assert run([], [])[0].tolist() == [0.0, 0.0, 0.0]
    assert run([], [], shape=(0,))[0].shape == (0,)


def test_profiled_runs_keep_the_dictionary_result():
    env = {"N": 3, "I": np.array([2, 0, 2]), "V": np.array([1.0, 2.0, 3.0])}
    plan = to_debruijn(parse_expr(PROGRAMS[1]))
    prepared = PreparedPlan(plan, env, typed_plan(plan))
    stats, profile = {}, ExecutionProfile()
    dense = prepared.run(stats=stats, profile=profile, dense_shape=(3,))
    assert stats["dense_sink"] == 0 and dense.tolist() == [2.0, 0.0, 4.0]
    assert profile.loops                                    # the profile was filled
    stats = {}
    assert isinstance(prepared.run(stats=stats), BufferDict)   # no shape: as before
    assert stats["dense_sink"] == 0


def _mmm_catalog():
    return (Catalog()
            .add(CSRFormat.from_dense("A", random_sparse_matrix(12, 10, 0.3, seed=3)))
            .add(CSRFormat.from_dense("B", random_sparse_matrix(10, 9, 0.3, seed=4))))


def test_every_dense_caller_takes_the_sink(same_dense):
    catalog = _mmm_catalog()
    kernel = KERNELS["MMM"]
    shape = output_shape(kernel, catalog)
    expected = catalog["A"].to_dense() @ catalog["B"].to_dense()
    session = Session(catalog)
    statement = session.prepare(kernel.source, dense_shape=shape)
    stats = {}
    np.testing.assert_allclose(statement.execute_with_stats(stats), expected)
    assert stats["dense_sink"] == 1
    eager = result_to_dense(session.prepare(kernel.source).execute(), shape)
    for dense in (statement.execute(), *statement.execute_many([{}, {}]),
                  Server(catalog).execute(kernel.source, dense_shape=shape),
                  StorelSystem().prepare(kernel, catalog)()):
        same_dense(dense, eager)
    outcome = session.run_detailed(kernel.source, dense_shape=shape)
    assert "dense_sink" in outcome.explain() and "lookup_direct" in outcome.explain()


def test_views_keep_a_dictionary_to_maintain(same_dense):
    catalog = _mmm_catalog()
    kernel = KERNELS["MMM"]
    shape = output_shape(kernel, catalog)
    session = Session(catalog)
    view = session.create_view("product", kernel.source, dense_shape=shape)
    assert isinstance(view._result, BufferDict)
    same_dense(view.value(), session.prepare(kernel.source, dense_shape=shape).execute())
    session.update("A", np.array([[0, 0]]), np.array([1.25]))
    same_dense(view.value(), session.prepare(kernel.source, dense_shape=shape).execute())
