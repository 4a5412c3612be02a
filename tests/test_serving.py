"""Concurrency stress suite for the serving layer (``repro.serving``).

Covers the four server guarantees (shared preparation, snapshot isolation,
admission control, observability) plus the two concurrency fixes this layer
forced in the core:

* ``PlanCache`` operations are atomic (the multi-threaded regression test
  here fails against the unlocked implementation);
* ``Catalog`` mutations bump their epochs in the same locked region as the
  data change (the pausing/windowed catalog tests pin both the fix and the
  failure mode it prevents).

Every thread-spawning test carries a ``timeout`` marker: in CI the
``pytest-timeout`` plugin enforces it, offline the SIGALRM fallback in
``conftest.py`` does, so a deadlock regression fails fast instead of
hanging the run.
"""

import sys
import threading
import time

import numpy as np
import pytest

from repro.execution.engine import BACKENDS, PlanCache
from repro.sdqlite.errors import ExecutionError, StorageError
from repro.serving import (
    AdmissionGate,
    LatencyRecorder,
    RequestTimeout,
    Server,
    ServerBusy,
    ServerClosed,
    ServerConfig,
    ServerStats,
    SharedPlan,
    SharedPlanCache,
    base_key,
    catalog_fingerprint,
    percentile,
    plan_key,
)
from repro.session import Session
from repro.storage import Catalog, CatalogSnapshot, CSRFormat, DenseFormat

pytestmark = pytest.mark.timeout(120)

SIZE = 16
BATAX_PROGRAM = (
    "sum(<i, Ai> in A) sum(<j, Aij> in Ai) sum(<k, Aik> in Ai) "
    "{ j -> beta * Aij * Aik * X(k) }"
)


def make_inputs(seed=3):
    rng = np.random.default_rng(seed)
    a = np.where(rng.random((SIZE, SIZE)) < 0.3, rng.random((SIZE, SIZE)), 0.0)
    x = rng.random(SIZE)
    return a, x


def make_catalog(a, x, beta=2.0):
    return (Catalog()
            .add(CSRFormat.from_dense("A", a))
            .add(DenseFormat.from_dense("X", x))
            .add_scalar("beta", beta))


def batax_oracle(a, x, beta):
    return beta * (a.T @ (a @ x))


def run_threads(workers):
    """Start every callable on its own thread and join them all."""
    threads = [threading.Thread(target=worker, daemon=True) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90.0)
    assert not any(thread.is_alive() for thread in threads), "worker deadlocked"


# ---------------------------------------------------------------------------
# satellite regression 1: PlanCache operations are atomic
# ---------------------------------------------------------------------------


@pytest.mark.timeout(60)
def test_plan_cache_concurrent_mixed_ops_keep_invariants():
    """Hammer one PlanCache from many threads; counters and size stay exact.

    Against the pre-lock implementation this test fails: interleaved
    ``get``/``put``/``discard`` raced on the OrderedDict (KeyError out of
    ``move_to_end`` after a concurrent eviction) and on the unlocked
    ``hits += 1`` / ``misses += 1`` read-modify-writes, so the final
    counters under-counted.  With atomic operations, every ``get`` is
    classified exactly once: hits + misses == total gets.
    """
    cache = PlanCache(maxsize=4)
    keys = [("typed", ("plan", i), ("sig",)) for i in range(8)]
    threads, ops_per_thread = 8, 2_000
    gets = [0] * threads
    errors = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        def worker(index):
            def run():
                rng = np.random.default_rng(index)
                try:
                    for step in range(ops_per_thread):
                        key = keys[int(rng.integers(len(keys)))]
                        op = step % 3
                        if op == 0:
                            cache.put(key, f"artifact-{index}-{step}")
                        elif op == 1:
                            cache.get(key)
                            gets[index] += 1
                        else:
                            cache.discard(key)
                except BaseException as exc:  # noqa: BLE001 - collected for assert
                    errors.append(exc)
            return run

        run_threads([worker(i) for i in range(threads)])
    finally:
        sys.setswitchinterval(old_interval)

    assert not errors, f"concurrent cache ops raised: {errors[:3]}"
    assert len(cache) <= cache.maxsize
    assert cache.hits + cache.misses == sum(gets)


@pytest.mark.timeout(60)
def test_plan_cache_concurrent_puts_never_exceed_maxsize():
    cache = PlanCache(maxsize=2)

    def worker(index):
        def run():
            for step in range(1_000):
                cache.put(("k", index, step % 5), object())
                assert len(cache) <= cache.maxsize
        return run

    run_threads([worker(i) for i in range(6)])
    assert len(cache) <= cache.maxsize


# ---------------------------------------------------------------------------
# satellite regression 2: catalog epoch bumps are atomic with their mutation
# ---------------------------------------------------------------------------


class PausingCatalog(Catalog):
    """A catalog whose epoch bump dawdles, widening any mutation/bump window.

    ``_bump`` runs inside the mutator's locked region, so the sleep is
    invisible to readers — unless a regression moves the bump (or the data
    change) outside the lock, in which case the widened window makes
    ``test_catalog_snapshot_never_tears_under_replace`` fail immediately
    instead of once in a blue moon.
    """

    def _bump(self, *, schema: bool) -> None:
        time.sleep(0.002)
        super()._bump(schema=schema)


class _NullLock:
    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        return False


class WindowedCatalog(Catalog):
    """Simulates the pre-fix bug: data mutation and epoch bump separately
    locked, with an event-sized window in between (deterministic tearing)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.window_open = threading.Event()
        self.proceed = threading.Event()

    def replace(self, fmt):
        with self._lock:
            if fmt.name not in self.tensors:
                raise StorageError(f"tensor {fmt.name!r} is not registered")
            self.tensors[fmt.name] = fmt
        self.window_open.set()         # data changed, epoch not yet bumped
        assert self.proceed.wait(10.0)
        with self._lock:
            self._bump(schema=True)
        return self


@pytest.mark.timeout(60)
def test_catalog_snapshot_never_tears_under_replace():
    """Every snapshot pairs its data with its epoch, even mid-replace.

    A writer alternates ``A`` between two formats while readers snapshot
    continuously; each observed schema epoch must correspond to exactly one
    fingerprint.  Fails (via :class:`PausingCatalog`'s widened window) if
    mutation and bump ever stop being one atomic step.
    """
    a, x = make_inputs()
    catalog = PausingCatalog()
    catalog.add(CSRFormat.from_dense("A", a))
    catalog.add(DenseFormat.from_dense("X", x))
    catalog.add_scalar("beta", 2.0)

    stop = threading.Event()
    seen: dict[int, set] = {}
    seen_lock = threading.Lock()
    errors = []

    def writer():
        try:
            for round_ in range(40):
                fmt = CSRFormat if round_ % 2 else DenseFormat
                catalog.replace(fmt.from_dense("A", a))
        finally:
            stop.set()

    def reader():
        try:
            while not stop.is_set():
                snap = catalog.snapshot()
                fingerprint = catalog_fingerprint(snap)
                with seen_lock:
                    seen.setdefault(snap.schema_version, set()).add(fingerprint)
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    run_threads([writer] + [reader] * 3)
    assert not errors, errors[:3]
    torn = {epoch: prints for epoch, prints in seen.items() if len(prints) > 1}
    assert not torn, f"snapshots paired one epoch with several states: {torn}"


@pytest.mark.timeout(60)
def test_windowed_catalog_demonstrates_the_tear_this_suite_detects():
    """The detector has teeth: with mutation and bump separately locked
    (the simulated pre-fix catalog), a reader in the window deterministically
    observes new data under the old epoch."""
    a, x = make_inputs()
    catalog = WindowedCatalog()
    catalog.add(DenseFormat.from_dense("A", a))
    catalog.add(DenseFormat.from_dense("X", x))

    before_epoch = catalog.schema_version
    before_print = catalog_fingerprint(catalog.snapshot())

    writer = threading.Thread(
        target=lambda: catalog.replace(CSRFormat.from_dense("A", a)), daemon=True)
    writer.start()
    assert catalog.window_open.wait(10.0)

    snap = catalog.snapshot()
    assert snap.schema_version == before_epoch          # epoch not bumped yet...
    assert catalog_fingerprint(snap) != before_print    # ...but data changed: torn

    catalog.proceed.set()
    writer.join(timeout=10.0)
    assert catalog.schema_version == before_epoch + 1


def test_catalog_epochs_read_atomically():
    a, x = make_inputs()
    catalog = make_catalog(a, x)
    version, schema = catalog.epochs()
    assert (version, schema) == (catalog.version, catalog.schema_version)


def test_value_only_scalar_rebind_keeps_schema_epoch():
    a, x = make_inputs()
    catalog = make_catalog(a, x)
    version, schema = catalog.epochs()
    catalog.set_scalar("beta", 9.0)
    assert catalog.version == version + 1
    assert catalog.schema_version == schema
    catalog.add_scalar("gamma", 1.0)     # a *new* scalar is a schema change
    assert catalog.schema_version == schema + 1


def test_catalog_snapshot_is_read_only_and_stable():
    a, x = make_inputs()
    catalog = make_catalog(a, x)
    snap = catalog.snapshot()
    assert isinstance(snap, CatalogSnapshot)
    assert snap.snapshot() is snap
    with pytest.raises(StorageError, match="read-only"):
        snap.set_scalar("beta", 5.0)
    with pytest.raises(StorageError, match="read-only"):
        snap.replace(DenseFormat.from_dense("A", a))
    with pytest.raises(StorageError, match="read-only"):
        snap.drop("X")
    before = catalog_fingerprint(snap)
    catalog.replace(DenseFormat.from_dense("A", a))
    catalog.set_scalar("beta", 7.0)
    assert catalog_fingerprint(snap) == before
    assert snap.scalars["beta"] == 2.0


# ---------------------------------------------------------------------------
# the shared plan cache
# ---------------------------------------------------------------------------


def _dummy_plan(key, epoch=0):
    return SharedPlan(key=key, optimization=None, prepared=None,
                      schema_version=epoch)


def test_shared_cache_lru_eviction_and_counters():
    cache = SharedPlanCache(maxsize=2)
    cache.put(("a",), _dummy_plan(("a",)))
    cache.put(("b",), _dummy_plan(("b",)))
    assert cache.get(("a",)) is not None      # refresh "a": "b" is now LRU
    cache.put(("c",), _dummy_plan(("c",)))
    assert ("b",) not in cache
    assert cache.evictions == 1
    assert cache.get(("b",)) is None
    assert (cache.hits, cache.misses) == (1, 1)
    cache.discard(("a",))
    assert ("a",) not in cache
    assert (cache.hits, cache.misses) == (1, 1)  # discard is counter-neutral


def test_shared_cache_purge_stale_drops_only_old_epochs():
    cache = SharedPlanCache()
    cache.put(("old",), _dummy_plan(("old",), epoch=1))
    cache.put(("new",), _dummy_plan(("new",), epoch=2))
    assert cache.purge_stale(current_schema_version=2) == 1
    assert cache.keys() == [("new",)]


def test_shared_cache_rejects_degenerate_maxsize():
    with pytest.raises(ValueError):
        SharedPlanCache(maxsize=0)


@pytest.mark.timeout(60)
def test_shared_cache_single_flight_coalesces_waiters():
    """One slow build, many concurrent callers: built exactly once."""
    cache = SharedPlanCache()
    building = threading.Event()
    release = threading.Event()
    builds = []

    def build():
        building.set()
        assert release.wait(30.0)
        builds.append(1)
        return _dummy_plan(("k",))

    results = []

    def caller():
        entry, was_hit = cache.get_or_prepare(("k",), build)
        results.append((entry, was_hit))

    leader = threading.Thread(target=caller, daemon=True)
    leader.start()
    assert building.wait(30.0)       # leader is inside build()
    waiters = [threading.Thread(target=caller, daemon=True) for _ in range(5)]
    for thread in waiters:
        thread.start()
    time.sleep(0.05)                 # let waiters reach the in-flight wait
    release.set()
    leader.join(timeout=30.0)
    for thread in waiters:
        thread.join(timeout=30.0)

    assert len(builds) == 1
    assert len(results) == 6
    assert sum(1 for _, was_hit in results if not was_hit) == 1
    assert cache.misses == 1 and cache.hits == 5
    assert cache.coalesced == 5


@pytest.mark.timeout(60)
def test_shared_cache_failed_build_propagates_and_leaves_no_residue():
    cache = SharedPlanCache()
    building = threading.Event()
    release = threading.Event()

    def failing_build():
        building.set()
        assert release.wait(30.0)
        raise ValueError("optimizer exploded")

    outcomes = []

    def caller():
        try:
            cache.get_or_prepare(("k",), failing_build)
            outcomes.append("ok")
        except ValueError:
            outcomes.append("failed")

    leader = threading.Thread(target=caller, daemon=True)
    leader.start()
    assert building.wait(30.0)
    waiter = threading.Thread(target=caller, daemon=True)
    waiter.start()
    time.sleep(0.05)
    release.set()
    leader.join(timeout=30.0)
    waiter.join(timeout=30.0)

    assert outcomes == ["failed", "failed"]
    assert ("k",) not in cache and len(cache) == 0
    # the failure left no residue: a later build succeeds cleanly
    entry, was_hit = cache.get_or_prepare(("k",), lambda: _dummy_plan(("k",)))
    assert not was_hit and ("k",) in cache


# ---------------------------------------------------------------------------
# server basics: correctness, parameters, lifecycle
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_server_matches_session_results(backend):
    a, x = make_inputs()
    server = Server(make_catalog(a, x), backend=backend)
    result = server.execute(BATAX_PROGRAM, dense_shape=(SIZE,))
    np.testing.assert_allclose(result, batax_oracle(a, x, 2.0))

    session_result = (Session(catalog=make_catalog(a, x))
                      .run(BATAX_PROGRAM, backend=backend, dense_shape=(SIZE,)))
    np.testing.assert_allclose(result, session_result)


def test_server_scalar_params_override_per_request():
    a, x = make_inputs()
    server = Server(make_catalog(a, x, beta=2.0))
    statement = server.session().prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
    np.testing.assert_allclose(statement.execute(beta=5.0), batax_oracle(a, x, 5.0))
    # the override is per-execution: catalog value and plain executes untouched
    assert server.catalog.scalars["beta"] == 2.0
    np.testing.assert_allclose(statement.execute(), batax_oracle(a, x, 2.0))
    with pytest.raises(StorageError, match="gamma"):
        statement.execute(gamma=1.0)


def test_server_rejects_unknown_backend():
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    with pytest.raises(ExecutionError, match="unknown execution backend 'llvm'"):
        server.execute(BATAX_PROGRAM, backend="llvm")
    assert server.stats.requests == 0        # rejected before admission


def test_server_config_and_overrides_are_mutually_exclusive():
    with pytest.raises(ValueError):
        Server(config=ServerConfig(), max_concurrency=2)


def test_closed_server_refuses_sessions_and_requests():
    a, x = make_inputs()
    with Server(make_catalog(a, x)) as server:
        statement = server.session().prepare(BATAX_PROGRAM)
        statement.execute()
    with pytest.raises(ServerClosed):
        server.session()
    with pytest.raises(ServerClosed):
        statement.execute()
    assert len(server.plans) == 0        # close() drops cached plans


def test_closed_client_session_refuses_prepare():
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    with server.connect() as client:
        client.execute(BATAX_PROGRAM)
    with pytest.raises(ServerClosed):
        client.prepare(BATAX_PROGRAM)
    assert server.stats.sessions == 1


def test_statement_explain_names_the_plan():
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    explanation = server.session().prepare(BATAX_PROGRAM).explain()
    assert isinstance(explanation, str) and explanation.strip()


def test_execution_errors_are_counted_and_reraised():
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    with pytest.raises(Exception):
        server.execute("sum(<i, v> in NO_SUCH_TENSOR) v")
    assert server.stats.errors == 1
    assert server.stats.in_flight == 0   # the slot was released on the way out


# ---------------------------------------------------------------------------
# shared preparation: hits, re-prepares, invalidation
# ---------------------------------------------------------------------------


def test_identical_queries_share_one_preparation_across_sessions():
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    for _ in range(4):
        server.session().execute(BATAX_PROGRAM)
    assert server.stats.plan_misses == 1
    assert server.stats.plan_hits == 3
    assert server.stats.hit_rate == pytest.approx(0.75)


def test_whitespace_variants_share_one_cache_entry():
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    server.execute("sum(<i, v> in X) v")
    server.execute("sum( <i, v>   in X )    v")
    assert server.stats.plan_misses == 1 and server.stats.plan_hits == 1


def test_distinct_backends_prepare_separately():
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    server.execute(BATAX_PROGRAM, backend="typed")
    server.execute(BATAX_PROGRAM, backend="interpret")
    assert server.stats.plan_misses == 2


def test_value_only_rebind_keeps_the_shared_plan():
    a, x = make_inputs()
    server = Server(make_catalog(a, x, beta=2.0))
    first = server.execute(BATAX_PROGRAM, dense_shape=(SIZE,))
    server.set_scalar("beta", 4.0)       # value-only: no schema bump
    second = server.execute(BATAX_PROGRAM, dense_shape=(SIZE,))
    assert server.stats.plan_misses == 1 and server.stats.re_prepares == 0
    np.testing.assert_allclose(first, batax_oracle(a, x, 2.0))
    np.testing.assert_allclose(second, batax_oracle(a, x, 4.0))


def test_format_change_re_prepares_and_is_counted():
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    first = server.execute(BATAX_PROGRAM, dense_shape=(SIZE,))
    server.replace_format(DenseFormat.from_dense("A", a))
    second = server.execute(BATAX_PROGRAM, dense_shape=(SIZE,))
    assert server.stats.plan_misses == 2
    assert server.stats.re_prepares == 1
    np.testing.assert_allclose(first, second)
    # the stale-epoch entry is unreachable; purge frees its memory
    assert server.purge_stale_plans() == 1
    assert len(server.plans) == 1


@pytest.mark.timeout(60)
def test_concurrent_first_touch_prepares_exactly_once():
    """8 clients racing the same cold query: one optimizer run, 7 coalesced."""
    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    barrier = threading.Barrier(8)
    results = []
    results_lock = threading.Lock()

    def client():
        session = server.session()
        barrier.wait()
        value = session.execute(BATAX_PROGRAM, dense_shape=(SIZE,))
        with results_lock:
            results.append(value)

    run_threads([client] * 8)
    assert len(results) == 8
    for value in results:
        np.testing.assert_allclose(value, batax_oracle(a, x, 2.0))
    assert server.stats.plan_misses == 1
    assert server.stats.plan_hits == 7
    assert server.stats.requests == 8


# ---------------------------------------------------------------------------
# admission control and back-pressure
# ---------------------------------------------------------------------------


def test_admission_gate_sheds_when_queue_full():
    gate = AdmissionGate(max_concurrency=1, max_queue=0, timeout=None)
    gate.acquire()
    with pytest.raises(ServerBusy):
        gate.acquire()
    gate.release()
    gate.acquire()     # slot usable again after release
    gate.release()


def test_admission_gate_times_out_waiting_for_a_slot():
    gate = AdmissionGate(max_concurrency=1, max_queue=4, timeout=0.05)
    gate.acquire()
    start = time.perf_counter()
    with pytest.raises(RequestTimeout):
        gate.acquire()
    assert time.perf_counter() - start < 5.0
    assert gate.waiting == 0           # the waiter cleaned up after itself
    gate.release()


def test_admission_gate_validates_configuration():
    with pytest.raises(ValueError):
        AdmissionGate(max_concurrency=0, max_queue=1, timeout=None)
    with pytest.raises(ValueError):
        AdmissionGate(max_concurrency=1, max_queue=-1, timeout=None)


def test_server_sheds_load_and_counts_rejections():
    a, x = make_inputs()
    server = Server(make_catalog(a, x), max_concurrency=1, max_queue=0)
    server.execute(BATAX_PROGRAM)               # warm: the plan is cached
    recorded = server.stats.latency.count
    server._gate.acquire()                      # occupy the only slot
    try:
        with pytest.raises(ServerBusy):
            server.execute(BATAX_PROGRAM)
    finally:
        server._gate.release()
    assert server.stats.rejected_full == 1
    assert server.stats.latency.count == recorded   # rejects don't skew latency
    server.execute(BATAX_PROGRAM)               # recovered


def test_server_times_out_queued_requests():
    a, x = make_inputs()
    server = Server(make_catalog(a, x), max_concurrency=1, max_queue=2,
                    queue_timeout=0.05)
    server.execute(BATAX_PROGRAM)
    server._gate.acquire()
    try:
        with pytest.raises(RequestTimeout):
            server.execute(BATAX_PROGRAM)
    finally:
        server._gate.release()
    assert server.stats.rejected_timeout == 1


@pytest.mark.timeout(60)
def test_peak_in_flight_respects_max_concurrency():
    a, x = make_inputs()
    server = Server(make_catalog(a, x), max_concurrency=2, max_queue=64)
    barrier = threading.Barrier(6)

    def client():
        session = server.session()
        barrier.wait()
        for _ in range(5):
            session.execute(BATAX_PROGRAM)

    run_threads([client] * 6)
    assert server.stats.requests == 30
    assert 1 <= server.stats.peak_in_flight <= 2
    assert server.stats.in_flight == 0


# ---------------------------------------------------------------------------
# snapshot isolation under concurrent updates (serial equivalence)
# ---------------------------------------------------------------------------


@pytest.mark.timeout(90)
def test_results_match_some_serial_state_under_format_and_data_races():
    """Readers racing replace(): every result is a serial-state result.

    The writer alternates ``A`` between csr(a1) and dense(a2) — different
    *data*, not just different formats — so a torn snapshot (or a plan
    served across epochs against the wrong environment) would produce a
    value matching neither expected result.
    """
    a1, x = make_inputs(seed=3)
    a2 = a1 * 2.0
    server = Server(make_catalog(a1, x))
    expected = [batax_oracle(a1, x, 2.0), batax_oracle(a2, x, 2.0)]
    barrier = threading.Barrier(5)
    errors = []
    executed = [0]

    def writer():
        barrier.wait()
        for round_ in range(25):
            time.sleep(0.001)
            if round_ % 2:
                server.replace_format(CSRFormat.from_dense("A", a1))
            else:
                server.replace_format(DenseFormat.from_dense("A", a2))

    def reader():
        session = server.session()
        statement = session.prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
        barrier.wait()
        try:
            for _ in range(15):
                value = statement.execute()
                executed[0] += 1         # GIL-atomic enough for a lower bound
                if not any(np.allclose(value, want) for want in expected):
                    errors.append(value)
                    return
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    run_threads([writer] + [reader] * 4)
    assert not errors, f"observed non-serial state: {errors[:1]}"
    assert executed[0] == 60             # every reader really ran every request


@pytest.mark.timeout(90)
def test_results_match_some_serial_state_under_scalar_races():
    a, x = make_inputs()
    betas = [2.0, 3.0, 5.0, 7.0]
    server = Server(make_catalog(a, x, beta=betas[0]))
    expected = [batax_oracle(a, x, beta) for beta in betas]
    barrier = threading.Barrier(5)
    errors = []

    def writer():
        barrier.wait()
        for _ in range(10):
            for beta in betas:
                time.sleep(0.0005)
                server.set_scalar("beta", beta)

    def reader():
        statement = server.session().prepare(BATAX_PROGRAM, dense_shape=(SIZE,))
        barrier.wait()
        try:
            for _ in range(15):
                value = statement.execute()
                if not any(np.allclose(value, want) for want in expected):
                    errors.append(value)
                    return
        except BaseException as exc:  # noqa: BLE001 - collected for assert
            errors.append(exc)

    run_threads([writer] + [reader] * 4)
    assert not errors, f"observed non-serial state: {errors[:1]}"
    assert server.stats.requests == 60
    assert server.stats.plan_misses == 1     # value churn never re-prepared


# ---------------------------------------------------------------------------
# observability: percentiles, recorder, stats snapshot
# ---------------------------------------------------------------------------


def test_percentile_interpolates_linearly():
    values = [10.0, 20.0, 30.0, 40.0]
    assert percentile(values, 0.0) == 10.0
    assert percentile(values, 1.0) == 40.0
    assert percentile(values, 0.5) == 25.0
    assert percentile([], 0.5) == 0.0
    assert percentile([7.0], 0.99) == 7.0


def test_latency_recorder_window_wraps_but_count_keeps_growing():
    recorder = LatencyRecorder(window=4)
    for value in [100.0, 100.0, 100.0, 100.0, 1.0, 2.0, 3.0, 4.0]:
        recorder.record(value)
    assert recorder.count == 8
    p50, p99 = recorder.percentiles(0.50, 0.99)
    assert p50 <= 4.0 and p99 <= 4.0     # the 100s aged out of the window
    with pytest.raises(ValueError):
        LatencyRecorder(window=0)


def test_server_stats_snapshot_is_json_ready():
    import json

    a, x = make_inputs()
    server = Server(make_catalog(a, x))
    server.execute(BATAX_PROGRAM)
    server.execute(BATAX_PROGRAM)
    snapshot = server.stats.snapshot()
    json.dumps(snapshot)                 # plain types only
    assert snapshot["requests"] == 2
    assert snapshot["plan_hits"] == 1 and snapshot["plan_misses"] == 1
    assert snapshot["hit_rate"] == pytest.approx(0.5)
    assert snapshot["latency_count"] == 2
    assert snapshot["latency_p99_ms"] >= snapshot["latency_p50_ms"] >= 0.0
    assert snapshot["plan_cache_entries"] == 1
    assert snapshot["plan_cache_evictions"] == 0


def test_server_stats_peak_tracking():
    stats = ServerStats()
    stats.enter()
    stats.enter()
    stats.leave()
    stats.enter()
    assert stats.requests == 3
    assert stats.peak_in_flight == 2
    assert stats.in_flight == 2


# ---------------------------------------------------------------------------
# the concurrent fuzz oracle (serial-equivalence campaign)
# ---------------------------------------------------------------------------


def test_generate_updates_is_deterministic_and_applicable():
    import random

    from repro.fuzz import generate_case, generate_updates
    from repro.fuzz.oracle import apply_update_state

    case = generate_case(11)
    first = generate_updates(case, random.Random(5), 6)
    second = generate_updates(case, random.Random(5), 6)
    assert [u.as_dict() for u in first] == [u.as_dict() for u in second]
    state = case
    for update in first:
        state = apply_update_state(state, update)    # applies without raising
    assert set(state.tensors) == set(case.tensors)


def test_catalog_update_round_trips_through_dicts():
    from repro.fuzz import CatalogUpdate

    update = CatalogUpdate("replace", "T0", value=1.5, fmt="csr")
    assert CatalogUpdate.from_dict(update.as_dict()) == update


@pytest.mark.timeout(90)
def test_fixed_seed_concurrent_fuzz_case_is_divergence_free():
    import random

    from repro.fuzz import check_concurrent_case, generate_case, generate_updates

    case = generate_case(7)
    updates = generate_updates(case, random.Random(case.seed ^ 0x5EEDC0DE), 5)
    divergence = check_concurrent_case(case, updates, readers=3, executions=3)
    assert divergence is None, divergence.describe()
