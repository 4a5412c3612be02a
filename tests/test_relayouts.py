"""Derived layouts built once per stored version on ``typed``.

A closed re-layout a plan iterates or probes (the transpose of a CSC
operand, say) is kept on the lowered plan with the inputs it read, and a
stored hash-map or trie levelizes itself once.  Both rest on the write
contract of ``docs/formats.md``: no write changes a published array or
container in place.  These tests pin that contract over every format, the
reuse rules and counters, and that an update is visible to the next read.
"""

import copy
import gc
import sys
import threading
import weakref

import numpy as np
import pytest

from repro.execution import typed_plan
from repro.execution.profile import ExecutionProfile
from repro.execution.typed_backend import _is_relayout
from repro.kernels import KERNELS
from repro.sdqlite import evaluate, parse_expr, to_debruijn, values_equal
from repro.serving import Server
from repro.session import Session
from repro.storage import (
    ALL_FORMATS,
    Catalog,
    CSCFormat,
    CSFFormat,
    CSRFormat,
    DenseFormat,
    DOKFormat,
    PhysicalHashMap,
    PhysicalTrie,
    TrieFormat,
)
from repro.storage.convert import reformat


def db(source):
    return to_debruijn(parse_expr(source))


#: ``A`` (CSC arrays) transposed into rows, then iterated row by row.
TRANSPOSE = ("sum(<c, _> in 0:A_len1) sum(<off, r> in A_idx2(A_pos2(c):A_pos2(c + 1))) "
             "{ r -> { c -> A_val(off) } }")
ITERATE_TRANSPOSE = f"sum(<i, row> in {TRANSPOSE}) sum(<j, v> in row) {{ i -> v * X(j) }}"


def csc_env(seed=0, n=6):
    rng = np.random.default_rng(seed)
    dense = np.where(rng.random((n, n)) < 0.4, rng.random((n, n)), 0.0)
    return {**CSCFormat.from_dense("A", dense).physical(), "X": rng.random(n)}


def run(lowered, env, **kwargs):
    stats = {}
    return lowered(env, stats, **kwargs), stats


# ---------------------------------------------------------------------------
# which closed sub-plans are re-layouts
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("source", [
    TRANSPOSE,
    "sum(<i, row> in T) sum(<j, v> in row) { j -> { i -> v } }",
    "sum(<p, _> in 0:N) let a = V(p) in if (0 <= p) then { I(p) + 1 -> a }",
])
def test_re_keying_sums_are_relayouts(source):
    assert _is_relayout(db(source))


@pytest.mark.parametrize("source", [
    "sum(<i, v> in V) c * beta * v",                      # a scalar reduction
    "sum(<i, v> in V) { i -> beta * v }",                 # arithmetic on values
    "sum(<i, v> in V + W) { i -> v }",                    # ... in the source
    "sum(<p, _> in 0:N) let a = 2 * V(p) in { p -> a }",  # ... through a let
    "sum(<i, v> in V) { sum(<k, w> in W) k -> v }",       # a reduction in a key
    "0:N",
])
def test_computing_sub_plans_are_not_relayouts(source):
    assert not _is_relayout(db(source))


# ---------------------------------------------------------------------------
# reuse across runs and its counters
# ---------------------------------------------------------------------------


def test_relayout_is_built_once_per_stored_version():
    env = csc_env()
    plan = db(ITERATE_TRANSPOSE)
    lowered = typed_plan(plan)
    first, stats = run(lowered, env)
    assert (stats["relayouts_built"], stats["relayouts_reused"]) == (1, 0)
    second, stats = run(lowered, env)
    assert (stats["relayouts_built"], stats["relayouts_reused"]) == (0, 1)
    assert values_equal(first, second) and values_equal(first, evaluate(plan, env))
    # A new stored version of one input rebuilds; a new dict over the same
    # containers does not.
    changed = {**env, "A_val": env["A_val"] * 2.0}
    third, stats = run(lowered, changed)
    assert (stats["relayouts_built"], stats["relayouts_reused"]) == (1, 0)
    assert values_equal(third, evaluate(plan, changed))
    _, stats = run(lowered, dict(changed))
    assert stats["relayouts_reused"] == 1


def test_scalar_inputs_must_match_in_value_and_type():
    env = csc_env()
    lowered = typed_plan(db(ITERATE_TRANSPOSE))
    run(lowered, env)
    _, stats = run(lowered, {**env, "A_len1": float(env["A_len1"])})
    assert stats["relayouts_built"] == 1
    _, stats = run(lowered, {**env, "A_len1": env["A_len1"] - 1})
    assert stats["relayouts_built"] == 1


def test_plain_dict_inputs_rebuild_every_run():
    plan = db("sum(<i, row> in (sum(<k, v> in D) { k -> { 0 -> v } })) row(0)")
    env = {"D": {0: 1.0, 2: 5.0}}
    lowered = typed_plan(plan)
    for _ in range(2):
        result, stats = run(lowered, env)
        assert (stats["relayouts_built"], stats["relayouts_reused"]) == (0, 0)
    assert values_equal(result, evaluate(plan, env))


def test_root_valued_relayout_is_never_kept():
    env = csc_env()
    lowered = typed_plan(db(TRANSPOSE))
    for _ in range(2):
        result, stats = run(lowered, env)
        assert (stats["relayouts_built"], stats["relayouts_reused"]) == (0, 0)
    assert not lowered.kept
    assert values_equal(result, evaluate(db(TRANSPOSE), env))


def test_closed_scalar_reduction_is_never_kept():
    # The shape of serve_mixed's dot / summm plans: a closed reduction
    # scaled by literals and parameters is a result, not a layout.
    plan = db("sum(<i, x> in X) (sum(<k, v> in V) { k -> c * beta * v })(i) * x "
              "+ sum(<k, v> in V) c * beta * v")
    env = {"X": np.arange(4.0), "V": np.array([1.0, 0.0, 2.0, 3.0]), "c": 3, "beta": 0.5}
    lowered = typed_plan(plan)
    for _ in range(2):
        result, stats = run(lowered, env)
        assert (stats["relayouts_built"], stats["relayouts_reused"]) == (0, 0)
    assert not lowered.kept
    assert values_equal(result, evaluate(plan, env))


def test_kept_entry_keeps_no_input_alive():
    env = csc_env()
    lowered = typed_plan(db(ITERATE_TRANSPOSE))
    versions = []
    for scale in (1.0, 2.0, 3.0):
        values = env["A_val"] * scale
        versions.append(weakref.ref(values))
        lowered({**env, "A_val": values})
        if scale < 3.0:
            del values
    gc.collect()
    assert [ref() is None for ref in versions] == [True, True, False]
    assert len(lowered.kept) == 1
    # The last version's entry (and the value it holds) goes with its input.
    del values
    gc.collect()
    assert versions[-1]() is None and not lowered.kept


def test_a_build_that_falls_back_is_not_kept():
    # A fractional key cannot be levelized: the re-layout runs as a Python
    # loop, and a loop that fell back is not worth keeping.
    plan = db("sum(<i, row> in (sum(<k, v> in H) { k -> { 0 -> v } })) row(0)")
    env = {"H": PhysicalHashMap("H", {0.5: 1.0, 3: 2.0}, (4,))}
    lowered = typed_plan(plan)
    for _ in range(2):
        result, stats = run(lowered, env)
        assert stats["relayouts_built"] == 1 and stats["fallback_sums"] >= 1
    assert not lowered.kept
    assert values_equal(result, evaluate(plan, env))


def test_profiled_run_sees_the_loops_of_a_reused_relayout():
    env = csc_env()
    lowered = typed_plan(db(ITERATE_TRANSPOSE))
    built, reused = ExecutionProfile(), ExecutionProfile()
    _, stats = run(lowered, env, profile=built)
    assert stats["relayouts_built"] == 1
    _, stats = run(lowered, env, profile=reused)
    assert stats["relayouts_reused"] == 1
    assert reused.loops == built.loops and reused.entries == built.entries


def test_stored_containers_are_levelized_once():
    dense = np.array([[0.0, 2.0, 0.0], [1.0, 0.0, 3.0]])
    plan = db("sum(<i, row> in H) sum(<j, v> in row) { j -> v }")
    for stored in (DOKFormat.from_dense("A", dense).hashmap,
                   TrieFormat.from_dense("A", dense).trie):
        lowered = typed_plan(plan)
        env = {"H": stored}
        first, stats = run(lowered, env)
        assert stats["levelized"] == 1
        second, stats = run(lowered, env)
        assert stats["levelized"] == 0
        assert values_equal(first, second) and values_equal(first, evaluate(plan, env))
    # A plain dictionary is walked on every run.
    env = {"H": {0: {1: 2.0}, 1: {0: 1.0, 2: 3.0}}}
    for _ in range(2):
        _, stats = run(typed_plan(plan), env)
        assert stats["levelized"] == 1


# ---------------------------------------------------------------------------
# the write contract the reuse rests on
# ---------------------------------------------------------------------------


def _contents(value):
    """A deep, bit-exact record of one physical value."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (PhysicalHashMap, PhysicalTrie)):
        buffers = {key: array.tobytes() for key, array in value.to_buffers().items()}
        return (type(value).__name__, buffers, copy.deepcopy(list(value.items())))
    return ("scalar", type(value), value)


def _format_data(kind):
    """Data every format can hold, a delta that keeps it so, and a new kind."""
    if kind == "csf":
        tensor = np.zeros((3, 4, 5))
        tensor[0, 1, 2], tensor[2, 3, 4], tensor[2, 0, 1] = 1.0, 2.0, 4.0
        return tensor, [[0, 1, 2], [2, 3, 4], [1, 1, 1]], [1.5, -2.0, 3.0], "coo"
    # Diagonal plus sub-diagonal: legal for the Sec. 4 layouts too.
    matrix = np.diag(np.arange(1.0, 9.0)) + np.diag(np.arange(1.0, 8.0) * 0.5, -1)
    matrix[4, 4] = 0.0
    # Overwrite (1,1), cancel (2,1) to zero, insert (4,4).
    return matrix, [[1, 1], [2, 1], [4, 4]], [1.0, -1.0, 3.0], "csr"


@pytest.mark.parametrize("kind", sorted(ALL_FORMATS))
def test_writes_leave_published_arrays_and_containers_untouched(kind):
    data, coords, values, other = _format_data(kind)
    session = Session(Catalog().add(ALL_FORMATS[kind].from_dense("A", data)))
    published = session.environment()
    before = {symbol: _contents(value) for symbol, value in published.items()}
    session.update("A", coords, values)
    session.replace_format(reformat(session.catalog["A"], other))
    session.replace_format(reformat(session.catalog["A"], kind))
    session.update("A", coords, values)
    after = {symbol: _contents(value) for symbol, value in published.items()}
    assert after == before
    expected = data.copy()
    for coordinate, value in zip(coords, values):
        expected[tuple(coordinate)] += 2 * value
    np.testing.assert_allclose(session.catalog["A"].to_dense(), expected)


# ---------------------------------------------------------------------------
# an update is visible to the next read, on Session and Server
# ---------------------------------------------------------------------------


def _sparse(rng, shape, density):
    return np.where(rng.random(shape) < density, rng.random(shape), 0.0)


def _batax_case(rng):
    a, x = _sparse(rng, (24, 24), 0.2), rng.random(24)
    catalog = (Catalog().add(CSCFormat.from_dense("A", a))
               .add(DenseFormat.from_dense("X", x)).add_scalar("beta", 0.5))
    return catalog, {"A": a}, lambda d: 0.5 * d["A"].T @ (d["A"] @ x)


def _mttkrp_case(rng):
    a, b, c = _sparse(rng, (6, 7, 8), 0.3), _sparse(rng, (7, 4), 0.5), _sparse(rng, (8, 4), 0.5)
    catalog = (Catalog().add(CSFFormat.from_dense("A", a))
               .add(CSRFormat.from_dense("B", b)).add(CSCFormat.from_dense("C", c)))
    return catalog, {"C": c}, lambda d: np.einsum("ikl,kj,lj->ij", a, b, d["C"])


def _mmm_case(fmt):
    def case(rng):
        a, b = _sparse(rng, (12, 10), 0.3), _sparse(rng, (10, 5), 0.4)
        catalog = Catalog().add(fmt.from_dense("A", a)).add(CSRFormat.from_dense("B", b))
        return catalog, {"A": a}, lambda d: d["A"] @ b
    return case


#: kernel, data builder, the counter a warm run must show at zero
CASES = {
    "BATAX/A-csc": ("BATAX", _batax_case, "relayouts_built"),
    "MTTKRP/C-csc": ("MTTKRP", _mttkrp_case, "relayouts_built"),
    "MMM/A-dok": ("MMM", _mmm_case(DOKFormat), "levelized"),
    "MMM/A-trie": ("MMM", _mmm_case(TrieFormat), "levelized"),
}


@pytest.mark.parametrize("host", [Session, Server])
@pytest.mark.parametrize("case", sorted(CASES))
def test_update_is_visible_to_the_next_read(case, host):
    kernel, build, counter = CASES[case]
    catalog, tensors, oracle = build(np.random.default_rng(7))
    (name, dense), = tensors.items()
    shape = oracle(tensors).shape
    session = host(catalog)
    statement = session.prepare(KERNELS[kernel].source, dense_shape=shape)
    for step in range(3):
        stats = {}
        result = statement.execute_with_stats(stats)
        np.testing.assert_allclose(result, oracle(tensors), rtol=1e-12, atol=1e-12)
        assert stats[counter] == 1 and stats["fallback_sums"] == 0
        warm = {}
        np.testing.assert_array_equal(statement.execute_with_stats(warm), result)
        assert warm[counter] == 0
        if counter == "relayouts_built":
            assert warm["relayouts_reused"] == 1
        # Overwrite one entry, insert one, cancel one.
        nz = np.argwhere(dense)
        zero = np.argwhere(dense == 0)[step]
        coords = np.array([nz[0], zero, nz[-1]])
        deltas = np.array([1.5, 2.0, -dense[tuple(nz[-1])]])
        session.update(name, coords, deltas)
        dense = dense.copy()
        np.add.at(dense, tuple(coords.T), deltas)
        tensors = {name: dense}
    if host is Server:
        np.testing.assert_allclose(
            session.execute(KERNELS[kernel].source, dense_shape=shape),
            oracle(tensors), rtol=1e-12, atol=1e-12)


def test_server_threads_share_a_kept_transpose():
    # More client threads than cores, switching often, while an update lands:
    # every result is the answer before or after it, never a mix of a stale
    # transpose with the new matrix.
    catalog, tensors, oracle = _batax_case(np.random.default_rng(11))
    server = Server(catalog)
    source, shape = KERNELS["BATAX"].source, (24,)
    before = server.execute(source, dense_shape=shape)
    coords = np.argwhere(tensors["A"])[:3]
    deltas = np.array([1.0, -0.5, 2.0])
    updated = tensors["A"].copy()
    np.add.at(updated, tuple(coords.T), deltas)
    after = oracle({"A": updated})
    results: list = [[] for _ in range(4)]
    started = threading.Barrier(len(results) + 1)

    def client(index):
        started.wait()
        for _ in range(30):
            results[index].append(server.execute(source, dense_shape=shape))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=client, args=(i,)) for i in range(len(results))]
        for thread in threads:
            thread.start()
        started.wait()
        server.update("A", coords, deltas)
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    np.testing.assert_allclose(before, oracle(tensors), rtol=1e-12)
    fresh = server.execute(source, dense_shape=shape)
    np.testing.assert_allclose(fresh, after, rtol=1e-12)
    assert all(len(rs) == 30 for rs in results)
    assert all(np.array_equal(r, before) or np.array_equal(r, fresh)
               for rs in results for r in rs)
    stats = {}
    server.prepare(source, dense_shape=shape).execute_with_stats(stats)
    assert stats["relayouts_reused"] == 1
