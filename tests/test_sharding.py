"""Sharded storage formats and out-of-core/parallel execution.

Covers the pieces of ``docs/sharding.md``:

* round-trip properties of the sharded formats (``from_dense``/``to_dense``,
  ``to_buffers``/``from_buffers``, duplicate summing, empty tensors),
  mirroring ``tests/test_buffers.py``;
* the value-only rebuild contract: ``Catalog.update`` on a sharded tensor
  preserves shard count, physical symbols and mapping text, so prepared
  plans survive;
* the shard-aware optimizer rewrites (``split_sharded_sum`` /
  ``lookup_over_add``) and their guards;
* kernel x sharded-format parity on every backend against the interpreter;
* the parallel shard executor: plan splitting, the buffer wire format, the
  worker pool, and the serial fallback — threaded through ``Session`` and
  ``Server``.
"""

import logging
import os

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro import storel  # noqa: E402
from repro.execution.engine import BACKENDS  # noqa: E402
from repro.execution import sharded as sharded_module  # noqa: E402
from repro.execution.sharded import (  # noqa: E402
    NOT_DISPATCHED,
    ShardExecutor,
    ShardWorkerError,
    catalog_payload,
    environment_from_payload,
    merge_partials,
    split_plan,
)
from repro.kernels.programs import get_kernel  # noqa: E402
from repro.serving import Server  # noqa: E402
from repro.session import Session  # noqa: E402
from repro.storage import (  # noqa: E402
    ALL_FORMATS,
    Catalog,
    COOFormat,
    CSRFormat,
    DenseFormat,
    MemmapDenseFormat,
    ShardedCOOFormat,
    ShardedCSRFormat,
)
from repro.storage.convert import parse_format_spec, reformat  # noqa: E402
from repro.storage.sharded import (  # noqa: E402
    SHARD_SYMBOL_RE,
    default_shard_count,
    shard_bounds,
)
from repro.sdqlite.ast import Add, Sum  # noqa: E402
from repro.sdqlite.errors import StorageError  # noqa: E402

#: kind -> ranks, mirroring each format's ``candidates_for``.
SHARDED_RANKS = {
    "sharded_coo": (1, 2, 3),
    "sharded_csr": (2,),
}


def _random_dense(seed, shape, density=0.4):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    return np.round(rng.standard_normal(shape), 3) * mask


def _roundtrip(fmt):
    rebuilt = type(fmt).from_buffers(fmt.name, fmt.to_buffers(), fmt.shape)
    np.testing.assert_allclose(rebuilt.to_dense(), fmt.to_dense())
    assert rebuilt.shape == fmt.shape
    if hasattr(fmt, "n_shards"):
        assert rebuilt.n_shards == fmt.n_shards


# ---------------------------------------------------------------------------
# round-trip properties (mirrors tests/test_buffers.py)
# ---------------------------------------------------------------------------


@st.composite
def sharded_case(draw):
    kind = draw(st.sampled_from(sorted(SHARDED_RANKS)))
    rank = draw(st.sampled_from(SHARDED_RANKS[kind]))
    shape = tuple(draw(st.integers(min_value=1, max_value=7))
                  for _ in range(rank))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))
    shards = draw(st.integers(min_value=1, max_value=4))
    return kind, _random_dense(seed, shape, density), shards


@settings(max_examples=60, deadline=None)
@given(sharded_case())
def test_sharded_dense_and_buffers_roundtrip(case):
    kind, dense, shards = case
    fmt = ALL_FORMATS[kind].from_dense("T", dense, shards=shards)
    np.testing.assert_allclose(fmt.to_dense(), dense)
    _roundtrip(fmt)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1),
       st.integers(min_value=1, max_value=4))
def test_sharded_duplicate_coordinates_are_summed(seed, shards):
    rng = np.random.default_rng(seed)
    coords = rng.integers(0, 5, size=(12, 2))
    values = np.round(rng.standard_normal(12), 3)
    dense = np.zeros((5, 5))
    np.add.at(dense, tuple(coords.T), values)
    for kind in SHARDED_RANKS:
        fmt = ALL_FORMATS[kind].from_coo("D", coords, values, (5, 5),
                                         shards=shards)
        np.testing.assert_allclose(fmt.to_dense(), dense, atol=1e-12)


@pytest.mark.parametrize("kind", sorted(SHARDED_RANKS))
def test_sharded_empty_matrix(kind):
    fmt = ALL_FORMATS[kind].from_coo(
        "E", np.empty((0, 2), dtype=np.int64), np.empty(0), (4, 4), shards=3)
    assert fmt.nnz == 0
    np.testing.assert_array_equal(fmt.to_dense(), np.zeros((4, 4)))
    _roundtrip(fmt)


def test_single_shard_is_legal_and_roundtrips():
    dense = _random_dense(7, (6, 5))
    for kind in SHARDED_RANKS:
        fmt = ALL_FORMATS[kind].from_dense("S", dense, shards=1)
        assert fmt.n_shards == 1
        np.testing.assert_allclose(fmt.to_dense(), dense)
        _roundtrip(fmt)


def test_memmap_dense_roundtrips_and_stays_mapped(tmp_path):
    dense = _random_dense(3, (6, 4))
    fmt = MemmapDenseFormat.from_dense("M", dense)
    assert isinstance(fmt.array, np.memmap)
    np.testing.assert_allclose(fmt.to_dense(), dense)
    coords, values = fmt.to_coo()
    np.testing.assert_array_equal(coords, np.argwhere(dense))
    rebuilt = MemmapDenseFormat.from_buffers("M", fmt.to_buffers(), fmt.shape)
    # The wire path adopts the memmap by reference: no copy, still file-backed.
    assert isinstance(rebuilt.array, np.memmap)
    np.testing.assert_allclose(rebuilt.to_dense(), dense)


def test_shard_bounds_are_deterministic_equal_row_splits():
    np.testing.assert_array_equal(shard_bounds(10, 4), [0, 2, 5, 8, 10])
    np.testing.assert_array_equal(shard_bounds(3, 8), [0, 1, 2, 3])  # clamped
    np.testing.assert_array_equal(shard_bounds(0, 3), [0, 0])  # one empty shard
    assert default_shard_count(100, 50) == 2
    assert default_shard_count(1 << 20, 1 << 30) == 16


def test_shard_symbol_regex_matches_physical_symbols():
    fmt = ShardedCOOFormat.from_dense("A", _random_dense(1, (5, 5)), shards=2)
    for symbol in fmt.physical():
        match = SHARD_SYMBOL_RE.match(symbol)
        assert match and match.group(1) == "A"


# ---------------------------------------------------------------------------
# format specs and the value-only rebuild contract
# ---------------------------------------------------------------------------


def test_parse_format_spec():
    assert parse_format_spec("csr") == ("csr", None)
    assert parse_format_spec("sharded_coo@4") == ("sharded_coo", 4)
    with pytest.raises(StorageError):
        parse_format_spec("sharded_coo@zero")
    with pytest.raises(StorageError):
        parse_format_spec("sharded_coo@0")


def test_reformat_spec_roundtrip_and_noop():
    dense = _random_dense(5, (8, 6))
    fmt = reformat(CSRFormat.from_dense("A", dense), "sharded_csr@3")
    assert fmt.spec_name == "sharded_csr@3" and fmt.n_shards == 3
    np.testing.assert_allclose(fmt.to_dense(), dense)
    assert reformat(fmt, "sharded_csr@3") is fmt  # spec-aware no-op
    with pytest.raises(StorageError):
        reformat(fmt, "csr@3")  # @k is only legal on sharded formats


@pytest.mark.parametrize("kind", sorted(SHARDED_RANKS))
def test_catalog_update_preserves_shard_layout(kind):
    dense = _random_dense(11, (9, 5))
    catalog = Catalog().add(ALL_FORMATS[kind].from_dense("A", dense, shards=3))
    before = catalog.tensors["A"]
    symbols = set(before.physical())
    mapping = before.mapping_source()
    epochs = catalog.epochs()
    catalog.update("A", np.array([[4, 2]]), np.array([2.5]))
    after = catalog.tensors["A"]
    assert after.n_shards == 3
    assert set(after.physical()) == symbols
    assert after.mapping_source() == mapping
    # value-only: version bumped, schema untouched
    assert catalog.epochs() == (epochs[0] + 1, epochs[1])
    dense[4, 2] += 2.5
    np.testing.assert_allclose(after.to_dense(), dense)


# ---------------------------------------------------------------------------
# optimizer rewrites
# ---------------------------------------------------------------------------


def _batax_catalog(A, X, fmt_cls=ShardedCOOFormat, shards=3, **kwargs):
    return (Catalog()
            .add(fmt_cls.from_dense("A", A, shards=shards, **kwargs))
            .add(DenseFormat.from_dense("X", X))
            .add_scalar("beta", 2.0))


def test_sharded_plan_splits_into_per_shard_sums():
    A = _random_dense(2, (12, 7))
    X = np.arange(7, dtype=float)
    outcome = storel.run_detailed(get_kernel("batax").source,
                                  _batax_catalog(A, X, shards=3))
    parts = split_plan(outcome.optimization.plan)
    assert len(parts) == 3
    assert all(not isinstance(part, Add) for part in parts)


def test_unsharded_plans_have_no_root_add_chain():
    A = _random_dense(2, (12, 7))
    X = np.arange(7, dtype=float)
    catalog = (Catalog().add(CSRFormat.from_dense("A", A))
               .add(DenseFormat.from_dense("X", X)).add_scalar("beta", 2.0))
    outcome = storel.run_detailed(get_kernel("batax").source, catalog)
    assert split_plan(outcome.optimization.plan) == []


def test_sum_over_two_sharded_tensors_does_not_split():
    # sum over A + B (two different sharded tensors) may share keys across
    # addends, so the split guard must refuse it — and the result must still
    # be correct through the unsplit path.
    dense_a = _random_dense(3, (6,))
    dense_b = _random_dense(4, (6,))
    catalog = (Catalog()
               .add(ShardedCOOFormat.from_dense("A", dense_a, shards=2))
               .add(ShardedCOOFormat.from_dense("B", dense_b, shards=2)))
    program = "sum(<k, v> in (A + B)) v"
    result = storel.run(program, catalog)
    assert result == pytest.approx(dense_a.sum() + dense_b.sum())


# ---------------------------------------------------------------------------
# kernel x format parity, every backend vs the interpreter
# ---------------------------------------------------------------------------

#: (kernel, sharded tensor, other tensors, scalars, result shape)
PARITY_CASES = [
    ("batax", ("A", (11, 6)), {"X": (6,)}, {"beta": 2.0}, (6,)),
    ("mttkrp", ("A", (5, 4, 3)), {"B": (4, 2), "C": (3, 2)}, {}, (5, 2)),
]


def _parity_catalog(sharded_kind, shards, case, seed=9):
    _, (name, shape), others, scalars, _ = case
    rng = np.random.default_rng(seed)
    catalog = Catalog()
    dense = _random_dense(seed, shape, density=0.5)
    if sharded_kind is None:
        catalog.add(COOFormat.from_dense(name, dense))
    else:
        catalog.add(ALL_FORMATS[sharded_kind].from_dense(name, dense,
                                                         shards=shards))
    for other, other_shape in others.items():
        catalog.add(DenseFormat.from_dense(other, rng.random(other_shape)))
    for scalar, value in scalars.items():
        catalog.add_scalar(scalar, value)
    return catalog


@pytest.mark.parametrize("case", PARITY_CASES, ids=[c[0] for c in PARITY_CASES])
@pytest.mark.parametrize("backend", BACKENDS)
def test_kernel_parity_sharded_vs_interpreter(case, backend):
    kernel, (_, shape), _, _, out_shape = case
    source = get_kernel(case[0]).source
    reference = storel.run(source, _parity_catalog(None, 1, case),
                           backend="interpret", dense_shape=out_shape)
    for kind, ranks in SHARDED_RANKS.items():
        if len(shape) not in ranks:
            continue
        for shards in (1, 3):
            got = storel.run(source, _parity_catalog(kind, shards, case),
                             backend=backend, dense_shape=out_shape)
            np.testing.assert_allclose(got, reference, atol=1e-9,
                                       err_msg=f"{kernel}/{kind}@{shards}/{backend}")


# ---------------------------------------------------------------------------
# the parallel executor
# ---------------------------------------------------------------------------


def test_split_plan_flattens_nested_chains():
    from repro.sdqlite.ast import Const
    chain = Add(Add(Const(1), Const(2)), Add(Const(3), Const(4)))
    assert split_plan(chain) == [Const(1), Const(2), Const(3), Const(4)]
    assert split_plan(Const(1)) == []


def test_merge_partials_is_semiring_addition():
    assert merge_partials([2.0, 3.0]) == 5.0
    merged = merge_partials([{0: 1.0}, {0: 2.0, 1: 4.0}, {}])
    assert dict(merged.items()) == {0: 3.0, 1: 4.0}
    assert merge_partials([]) == 0


def test_catalog_payload_roundtrips_environment(tmp_path):
    A = _random_dense(6, (10, 4))
    catalog = _batax_catalog(A, np.arange(4, dtype=float), shards=2,
                             memmap_dir=str(tmp_path))
    env = environment_from_payload(catalog_payload(catalog))
    reference = catalog.globals()
    assert set(env) == set(reference)
    assert env["beta"] == 2.0
    for symbol, value in reference.items():
        if isinstance(value, np.ndarray):
            np.testing.assert_array_equal(np.asarray(env[symbol]),
                                          np.asarray(value))


def test_shard_executor_matches_serial_and_retires_on_mutation():
    A = _random_dense(8, (16, 6))
    X = np.arange(6, dtype=float)
    catalog = _batax_catalog(A, X, shards=4)
    session = Session(catalog)
    statement = session.prepare(get_kernel("batax").source, dense_shape=(6,))
    serial = statement.execute()
    executor = ShardExecutor(workers=2)
    try:
        parts = split_plan(statement._prepared.plan)
        assert len(parts) == 4
        merged = executor.run_parts(parts, catalog, "typed")
        from repro.execution.engine import result_to_dense
        np.testing.assert_allclose(result_to_dense(merged, (6,)), serial)
        first_key = executor._key
        catalog.update("A", np.array([[0, 0]]), np.array([1.0]))
        merged = executor.run_parts(parts, catalog, "typed")
        assert executor._key != first_key  # pool retired on the version bump
    finally:
        executor.close()
    session.close()


@pytest.mark.parametrize("backend", BACKENDS)
def test_session_shard_workers_parity(backend):
    A = _random_dense(10, (14, 5))
    X = np.arange(5, dtype=float)
    serial = Session(_batax_catalog(A, X, shards=3), backend=backend)
    parallel = Session(_batax_catalog(A, X, shards=3), backend=backend,
                       shard_workers=2)
    try:
        program = get_kernel("batax").source
        expected = serial.prepare(program, dense_shape=(5,)).execute()
        statement = parallel.prepare(program, dense_shape=(5,))
        np.testing.assert_allclose(statement.execute(), expected)
        # scalar re-binding ships per-call, not in the pooled environment
        np.testing.assert_allclose(statement.execute(beta=4.0), 2 * expected)
        np.testing.assert_allclose(statement.execute(), expected)
    finally:
        serial.close()
        parallel.close()


def test_server_shard_workers_parity():
    A = _random_dense(12, (14, 5))
    X = np.arange(5, dtype=float)
    program = get_kernel("batax").source
    expected = storel.run(program, _batax_catalog(A, X, shards=3),
                          dense_shape=(5,))
    with Server(_batax_catalog(A, X, shards=3), shard_workers=2) as server:
        statement = server.session().prepare(program, dense_shape=(5,))
        np.testing.assert_allclose(statement.execute(), expected)
        # a catalog mutation retires the pool and the next request still serves
        server.update("A", np.array([[0, 0]]), np.array([3.0]))
        bumped = A.copy()
        bumped[0, 0] += 3.0
        np.testing.assert_allclose(
            statement.execute(),
            storel.run(program, _batax_catalog(bumped, X, shards=3),
                       dense_shape=(5,)))


def test_shard_workers_zero_never_spawns():
    executor = ShardExecutor(workers=0)
    assert not executor.available()
    executor = ShardExecutor(workers=1)
    assert not executor.available()


def test_session_falls_back_when_pool_fails(monkeypatch):
    A = _random_dense(10, (14, 5))
    X = np.arange(5, dtype=float)
    session = Session(_batax_catalog(A, X, shards=3), shard_workers=2)
    try:
        statement = session.prepare(get_kernel("batax").source, dense_shape=(5,))
        expected = storel.run(get_kernel("batax").source,
                              _batax_catalog(A, X, shards=3), dense_shape=(5,))

        def boom(*args, **kwargs):
            raise RuntimeError("pool down")

        monkeypatch.setattr(session._shard_executor, "run_parts", boom)
        np.testing.assert_allclose(statement.execute(), expected)
    finally:
        session.close()


def _failing_part(part, backend, overrides):
    """Stands in for the worker entry point: a worker that raises."""
    raise ValueError("injected worker fault")


SCALED_BATAX = ("sum(<i, Ai> in A) sum(<j, Aij> in Ai) sum(<k, Aik> in Ai) "
                "{ j -> 3 * beta * Aij * Aik * X(k) }")


def test_server_literal_bindings_reach_the_shard_workers():
    A = _random_dense(12, (14, 5))
    X = np.arange(5, dtype=float)
    expected = storel.run(SCALED_BATAX, _batax_catalog(A, X, shards=3), dense_shape=(5,))
    with Server(_batax_catalog(A, X, shards=3), shard_workers=2) as server:
        # The shared plan reads its literal from the $0 slot; a worker that
        # did not receive the binding would raise "unknown global symbol".
        np.testing.assert_allclose(
            server.execute(SCALED_BATAX, dense_shape=(5,)), expected)
        np.testing.assert_allclose(
            server.execute(SCALED_BATAX.replace("3 *", "6 *"), dense_shape=(5,), beta=1.0),
            expected)
        stats = server.stats.snapshot()
        assert stats["shard_fallbacks"] == 0 and stats["plan_misses"] == 1
        assert server._shard_executor._pool is not None      # it really was dispatched


def test_server_serves_in_process_when_a_worker_raises(monkeypatch, caplog):
    A = _random_dense(12, (14, 5))
    X = np.arange(5, dtype=float)
    expected = storel.run(SCALED_BATAX, _batax_catalog(A, X, shards=3), dense_shape=(5,))
    monkeypatch.setattr(sharded_module, "_run_part", _failing_part)
    with Server(_batax_catalog(A, X, shards=3), shard_workers=2) as server:
        with caplog.at_level(logging.WARNING, logger="repro.serving"):
            for _ in range(3):
                np.testing.assert_allclose(
                    server.execute(SCALED_BATAX, dense_shape=(5,)), expected)
        assert server.stats.snapshot()["shard_fallbacks"] == 3
        assert server.stats.errors == 0
    records = [record for record in caplog.records if record.name == "repro.serving"]
    assert len(records) == 1                                 # once per cause, not per request
    assert "ValueError" in records[0].getMessage()
    assert "injected worker fault" in records[0].getMessage()
    assert isinstance(records[0].exc_info[1], ShardWorkerError)


def test_session_logs_the_pool_fallback_once_per_cause(monkeypatch, caplog):
    A = _random_dense(10, (14, 5))
    X = np.arange(5, dtype=float)
    session = Session(_batax_catalog(A, X, shards=3), shard_workers=2)
    try:
        statement = session.prepare(get_kernel("batax").source, dense_shape=(5,))
        expected = storel.run(get_kernel("batax").source,
                              _batax_catalog(A, X, shards=3), dense_shape=(5,))
        causes = iter([OSError("no more processes"), OSError("no more processes"),
                       RuntimeError("pool down")])

        def boom(*args, **kwargs):
            raise next(causes)

        monkeypatch.setattr(session._shard_executor, "run_parts", boom)
        with caplog.at_level(logging.WARNING, logger="repro.execution"):
            for _ in range(3):
                np.testing.assert_allclose(statement.execute(), expected)
        assert session._shard_executor.fallbacks == 3
        messages = [record.getMessage() for record in caplog.records
                    if record.name == "repro.execution"]
        assert len(messages) == 2
        assert "OSError" in messages[0] and "RuntimeError" in messages[1]
    finally:
        session.close()


def test_programming_errors_in_dispatch_propagate(monkeypatch):
    A = _random_dense(10, (14, 5))
    X = np.arange(5, dtype=float)
    session = Session(_batax_catalog(A, X, shards=3), shard_workers=2)
    try:
        statement = session.prepare(get_kernel("batax").source, dense_shape=(5,))

        def typo(*args, **kwargs):
            raise TypeError("run_parts() got an unexpected keyword argument")

        monkeypatch.setattr(session._shard_executor, "run_parts", typo)
        with pytest.raises(TypeError, match="unexpected keyword"):
            statement.execute()
        assert session._shard_executor.fallbacks == 0
    finally:
        session.close()


def test_run_plan_does_not_dispatch_what_is_not_a_shard_chain():
    A = _random_dense(10, (14, 5))
    X = np.arange(5, dtype=float)
    catalog = _batax_catalog(A, X, shards=3)
    statement = Session(catalog).prepare("sum(<i, x> in X) x")
    assert ShardExecutor(0).run_plan(statement.plan, catalog, "typed") is NOT_DISPATCHED
    executor = ShardExecutor(2)
    assert executor.run_plan(statement._prepared.plan, catalog, "typed") is NOT_DISPATCHED
    assert executor._pool is None and executor.fallbacks == 0


# ---------------------------------------------------------------------------
# out-of-core: memmap-backed shards stream without densifying
# ---------------------------------------------------------------------------


def test_memmap_backed_shards_stream_a_huge_sparse_tensor(tmp_path):
    # Dense volume is 2^40 cells (8 TiB) — any densifying path would die.
    n = 1 << 20
    rng = np.random.default_rng(0)
    nnz = 5000
    coords = np.column_stack([rng.integers(0, n, nnz), rng.integers(0, n, nnz)])
    values = rng.random(nnz)
    fmt = ShardedCOOFormat.from_coo("A", coords, values, (n, n), shards=4,
                                    memmap_dir=str(tmp_path))
    assert any(isinstance(block["val"], np.memmap)
               for block in fmt.shard_arrays)
    catalog = Catalog().add(fmt)
    result = storel.run("sum(<i, row> in A) sum(<j, v> in row) v", catalog)
    deduped = COOFormat.from_coo("D", coords, values, (n, n))
    assert result == pytest.approx(deduped.values.sum())
    # spill files live in the requested directory
    assert any(name.endswith(".mm") for name in os.listdir(tmp_path))
