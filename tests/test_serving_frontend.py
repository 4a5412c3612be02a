"""A served request costs its kernel: front-end memo, literal-shared plans, serial execution.

* the front-end memo is bounded, LRU and thread-safe, and a request for a
  text seen before runs neither the parser, the De Bruijn conversion nor the
  pretty printer;
* texts that differ only in liftable literals share one plan and still get
  their own literal's result; texts that differ in a 0/1 or a range bound
  do not share;
* a stream of never-seen literals and never-seen query shapes leaves every
  server-side map at or under its configured size;
* by default one request executes at a time, ``max_concurrency=2`` still
  admits two, and the concurrent fuzz campaign holds on the default;
* parse-time fresh names are numbered per parse, so plan text is
  reproducible raw, across processes.
"""

import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import repro.core.optimizer
import repro.execution.engine
import repro.sdqlite.frontend
import repro.serving.server
from repro.fuzz import campaign
from repro.sdqlite import FRONT_END, FrontEndMemo, front_end, parse_expr, to_source
from repro.sdqlite.ast import Sum, postorder
from repro.sdqlite.frontend import FRONT_END_MEMO_SIZE
from repro.serving import Server, plan_key
from repro.session import Session
from repro.storage import Catalog, DenseFormat

pytestmark = pytest.mark.timeout(120)

SIZE = 12
SCALE = "sum(<i, x> in X) {{ i -> {c} * beta * x }}"


def make_server(**config) -> tuple[Server, np.ndarray]:
    x = np.random.default_rng(5).uniform(0.1, 1.0, SIZE)
    catalog = (Catalog().add(DenseFormat.from_dense("X", x))
               .add_scalar("beta", 2.0))
    return Server(catalog, backend="typed", **config), x


def run_threads(workers):
    threads = [threading.Thread(target=worker, daemon=True) for worker in workers]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=90.0)
    assert not any(thread.is_alive() for thread in threads), "worker deadlocked"


# ---------------------------------------------------------------------------
# the front-end memo
# ---------------------------------------------------------------------------


def test_memo_is_bounded_and_evicts_least_recently_used():
    memo = FrontEndMemo(maxsize=3)
    texts = [SCALE.format(c=c) for c in (2, 3, 4, 5)]
    for text in texts[:3]:
        assert memo.lookup(text)[1] is False
    assert memo.lookup(texts[0])[1] is True          # texts[0] is now the freshest
    memo.get(texts[3])                               # evicts texts[1], the stalest
    assert len(memo) == 3
    assert texts[1] not in memo and texts[0] in memo and texts[2] in memo
    assert (memo.hits, memo.misses) == (1, 4)
    with pytest.raises(ValueError):
        FrontEndMemo(maxsize=0)


def test_memo_product_is_the_parse_the_nameless_query_and_the_literal_vector():
    text = SCALE.format(c=7)
    product = FrontEndMemo().get(text)
    assert product.program == parse_expr(text)
    assert product.literals == (7,) and dict(product.bindings) == {"$0": 7}
    assert product.query == front_end(parse_expr(SCALE.format(c=8))).query
    assert hash(product.query) == hash(front_end(parse_expr(text)).query)
    with pytest.raises(TypeError):
        product.bindings["$0"] = 9               # shared across threads: read-only


def test_memo_does_not_remember_texts_that_fail_to_parse():
    memo = FrontEndMemo()
    for _ in range(2):
        with pytest.raises(Exception, match="unexpected"):
            memo.get("sum(<i, x> in X) $ x")
    assert len(memo) == 0 and memo.misses == 2


def test_process_wide_memo_capacity_is_a_small_constant():
    assert FRONT_END.maxsize == FRONT_END_MEMO_SIZE <= 256


@pytest.mark.timeout(90)
def test_memo_survives_eight_threads_hammering_500_texts():
    memo = FrontEndMemo(maxsize=64)
    texts = [SCALE.format(c=c) for c in range(2, 502)]
    lookups_per_thread = 1500
    barrier = threading.Barrier(8)
    wrong: list[str] = []
    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)

    def hammer(index: int):
        rng = np.random.default_rng(index)
        barrier.wait()
        # a hot set of 32 texts (fits the memo) plus a cold tail of all 500
        for pick in rng.integers(0, 500, lookups_per_thread):
            text = texts[pick % 32 if pick % 3 else pick]
            product = memo.get(text)
            if product.literals != (int(text.split("->")[1].split("*")[0]),):
                wrong.append(text)

    try:
        run_threads([lambda i=i: hammer(i) for i in range(8)])
    finally:
        sys.setswitchinterval(old_interval)
    assert not wrong
    assert len(memo) <= 64
    # no lost update: every lookup was counted exactly once
    assert memo.hits + memo.misses == 8 * lookups_per_thread
    assert memo.hits > memo.misses              # the hot set stayed resident


def test_session_text_entry_points_go_through_the_memo():
    x = np.arange(1.0, 5.0)
    session = Session(Catalog().add(DenseFormat.from_dense("X", x)))
    text = "sum(<i, x> in X) 41 * x"
    FRONT_END.clear()
    assert session.run(text) == pytest.approx(41 * x.sum())
    session.prepare(text)
    session.explain(text)
    assert (FRONT_END.hits, FRONT_END.misses) == (2, 1)


# ---------------------------------------------------------------------------
# a hit does no front-end work
# ---------------------------------------------------------------------------


def test_a_hit_neither_parses_nor_converts_nor_pretty_prints(monkeypatch):
    server, x = make_server()
    text = SCALE.format(c=3)
    first = server.execute(text, dense_shape=(SIZE,))

    def refuse(*args, **kwargs):
        raise AssertionError("front-end work on a hit")

    monkeypatch.setattr(repro.sdqlite.frontend, "parse_expr", refuse)
    monkeypatch.setattr(repro.sdqlite.frontend, "to_debruijn_safe", refuse)
    monkeypatch.setattr(repro.sdqlite.frontend, "lift_literals", refuse)
    monkeypatch.setattr(repro.core.optimizer, "to_debruijn_safe", refuse)
    monkeypatch.setattr(repro.execution.engine, "to_debruijn_safe", refuse)
    monkeypatch.setattr(repro.serving.server, "to_source", refuse)
    statement = server.session().prepare(text, dense_shape=(SIZE,))
    np.testing.assert_allclose(statement.execute(), first)
    np.testing.assert_allclose(server.execute(text, dense_shape=(SIZE,), beta=4.0), 2 * first)
    stats = server.stats.snapshot()
    assert (stats["text_hits"], stats["text_misses"]) == (2, 1)
    with pytest.raises(AssertionError, match="front-end work"):
        statement.source                         # rendered only on demand
    monkeypatch.undo()
    assert statement.source == to_source(parse_expr(text))


# ---------------------------------------------------------------------------
# literal-parameterised shared plans
# ---------------------------------------------------------------------------


def test_texts_differing_in_liftable_literals_share_one_plan():
    server, x = make_server()
    snapshot = server.catalog.snapshot()
    keys = set()
    for literal in (2, 3, 0.37, 41):
        statement = server.session().prepare(SCALE.format(c=literal), dense_shape=(SIZE,))
        np.testing.assert_allclose(statement.execute(), literal * 2.0 * x, rtol=1e-12)
        np.testing.assert_allclose(statement.execute(beta=0.5), literal * 0.5 * x, rtol=1e-12)
        keys.add(plan_key(statement._front.query, method="greedy", backend="typed",
                          optimizer_options={}, snapshot=snapshot))
    stats = server.stats.snapshot()
    assert len(keys) == 1
    assert (stats["plan_misses"], stats["plan_hits"]) == (1, 7)
    assert stats["literal_shared"] == 6          # all but the first literal's two
    assert stats["plan_cache_entries"] == 1 and len(server.lowered) == 1


def test_integer_and_float_literals_bind_their_own_arithmetic():
    server, x = make_server()
    as_int = server.execute("sum(<i, x> in X) 7 / 2", dense_shape=())
    as_float = server.execute("sum(<i, x> in X) 7.5 / 2", dense_shape=())
    assert (as_int, as_float) == (SIZE * 3.5, SIZE * 3.75)
    assert server.stats.plan_misses == 1


@pytest.mark.parametrize("first, second", [
    ("sum(<i, x> in X) 0 * x", "sum(<i, x> in X) 2 * x"),              # a 0
    ("sum(<i, x> in X) 1 * x", "sum(<i, x> in X) 2 * x"),              # a 1
    ("sum(<i, _> in 0:4) X(i)", "sum(<i, _> in 0:5) X(i)"),            # a range bound
    ("sum(<i, x> in X) { i + 2 -> x }", "sum(<i, x> in X) { i + 3 -> x }"),   # a key
    ("sum(<i, x> in X) if (x > 0.5) then x", "sum(<i, x> in X) if (x > 0.6) then x"),
])
def test_texts_differing_in_a_protected_literal_do_not_share(first, second):
    server, x = make_server()
    oracle = Session(server.catalog, backend="interpret")
    for text in (first, second):
        served = server.session().prepare(text, backend="interpret").execute()
        assert served == oracle.run(text)
    assert server.stats.plan_misses == 2 and server.stats.literal_shared == 0


def test_explain_shows_the_instantiated_plan_and_its_slots():
    server, _ = make_server()
    server.execute(SCALE.format(c=2))
    explanation = server.session().prepare(SCALE.format(c=0.37)).explain()
    plan_text, _, parameters = explanation.partition("literal parameters")
    assert "0.37" in plan_text and "$" not in plan_text
    assert "$0 = 0.37" in parameters
    assert server.stats.plan_misses == 1         # explained from the shared plan
    assert "literal parameters" not in server.session().prepare(
        "sum(<i, x> in X) beta * x").explain()


# ---------------------------------------------------------------------------
# bounded server-side state
# ---------------------------------------------------------------------------


@pytest.mark.timeout(300)
def test_fresh_literals_and_fresh_shapes_leave_every_map_bounded():
    server, x = make_server(plan_cache_size=32, lowered_cache_size=32)
    FRONT_END.clear()

    def within_bounds():
        assert len(server.plans) <= 32 and len(server.plans._latest) <= len(server.plans)
        assert len(server.lowered) <= 32
        assert server._env[0] == server.catalog.version          # one memo: the current
        assert server._stats_version == server.catalog.version   # version's, nothing older
        assert len(FRONT_END) <= FRONT_END_MEMO_SIZE

    for literal in range(2, 10_002):             # fresh literals: one plan serves all
        server.execute(SCALE.format(c=literal))
    within_bounds()
    stats = server.stats.snapshot()
    assert stats["plan_misses"] == 1 and stats["plan_cache_entries"] == 1
    assert stats["text_misses"] == 10_000

    for shape in range(2_000):                   # fresh shapes: each its own plan
        server.execute(f"sum(<i, x> in X) {{ i + {shape} -> x }}", backend="interpret")
        if shape % 500 == 0:
            within_bounds()
    within_bounds()
    stats = server.stats.snapshot()
    assert stats["plan_misses"] == 2_001
    assert stats["plan_cache_entries"] == 32 and stats["plan_cache_evictions"] == 2_001 - 32
    # the re-prepare signal still works from the bounded bookkeeping
    server.execute(SCALE.format(c=2))
    server.set_scalar("gamma", 1.0)              # a schema change
    server.execute(SCALE.format(c=3))
    assert server.stats.re_prepares == 1


# ---------------------------------------------------------------------------
# one executing request at a time
# ---------------------------------------------------------------------------


@pytest.mark.timeout(90)
def test_default_config_never_executes_two_requests_at_once():
    server, x = make_server()
    assert server.config.max_concurrency == 1
    barrier = threading.Barrier(8)
    failures: list[str] = []

    def client(index: int):
        barrier.wait()
        for request in range(25):
            literal = 2 + (index * 25 + request) % 5
            result = server.execute(SCALE.format(c=literal), dense_shape=(SIZE,))
            if not np.allclose(result, literal * 2.0 * x):
                failures.append(f"client {index} literal {literal}")

    run_threads([lambda i=i: client(i) for i in range(8)])
    stats = server.stats.snapshot()
    assert not failures
    assert stats["requests"] == 200 and stats["peak_in_flight"] == 1
    assert stats["rejected_full"] == stats["rejected_timeout"] == 0
    assert stats["queue_wait_ms_p99"] >= stats["queue_wait_ms_p50"] >= 0.0
    assert server.stats.queue_wait.count == 200


@pytest.mark.timeout(60)
def test_max_concurrency_two_still_admits_two(monkeypatch):
    server, _ = make_server(max_concurrency=2)
    server.execute(SCALE.format(c=2))
    both_inside = threading.Barrier(2)
    env_for = server.environment

    def meet_inside(snapshot):
        both_inside.wait(timeout=30.0)           # only passes with two requests in flight
        return env_for(snapshot)

    monkeypatch.setattr(server, "environment", meet_inside)
    run_threads([lambda: server.execute(SCALE.format(c=3))] * 2)
    assert server.stats.peak_in_flight == 2 and server.stats.errors == 0


@pytest.mark.timeout(120)
def test_concurrent_fuzz_campaign_is_divergence_free_on_the_default_config():
    assert Server().config.max_concurrency == 1      # what the campaign's servers get
    report = campaign(seed=21, cases=6, concurrent=True, readers=3, executions=3)
    assert report.ok, report.summary()


# ---------------------------------------------------------------------------
# determinism: fresh names are numbered per parse
# ---------------------------------------------------------------------------

NESTED = ("sum(<(i, j), a> in A, <(i, k), b> in A) "
          "sum(<(m, _), c> in B, <m, _> in X) a * b * c")


def test_one_text_always_parses_to_the_same_named_ast():
    first, second = parse_expr(NESTED), parse_expr(NESTED)
    assert to_source(first) == to_source(second)
    parse_expr("sum(<(p, q), _> in A) 1")             # an unrelated parse in between
    assert to_source(parse_expr(NESTED)) == to_source(first)


def test_binders_within_one_parse_still_get_distinct_names():
    sums = [node for node in postorder(parse_expr(NESTED)) if isinstance(node, Sum)]
    names = [name for node in sums for name in (node.key_name, node.val_name)]
    assert len(sums) == 7
    assert len(set(names)) == len(names)             # wildcards, rows, duplicates: all distinct
    assert sum(name.startswith(("_i_dup", "_m_dup")) for name in names) == 2
    assert sum(name.startswith("_w") for name in names) == 2


EXPLAIN_SCRIPT = """
import sys
import numpy as np
from repro.serving import Server
from repro.session import Session
from repro.storage import Catalog, CSRFormat, DenseFormat
rng = np.random.default_rng(11)
a = np.where(rng.random((12, 12)) < 0.3, rng.random((12, 12)), 0.0)
catalog = (Catalog().add(CSRFormat.from_dense("A", a))
           .add(DenseFormat.from_dense("X", rng.random(12))).add_scalar("beta", 2.0))
text = ("sum(<(i,j), a1> in A, <(i2,k), a2> in A, <k2, x> in X) if (i == i2) then "
        "if (k == k2) then { j -> 3 * beta * a1 * a2 * x }")
for _ in range(int(sys.argv[1])):         # however many parses came before must not matter
    Session(catalog).explain("sum(<(i, j), a> in A, <_, _> in X) { j -> a }")
print(Session(catalog).explain(text))
print(Server(catalog).session().prepare(text).explain())
"""


@pytest.mark.timeout(120)
def test_two_fresh_processes_print_identical_explain_text():
    src = Path(__file__).resolve().parents[1] / "src"
    outputs = []
    for hash_seed, earlier_parses in (("1", "0"), ("2", "3")):
        done = subprocess.run(
            [sys.executable, "-c", EXPLAIN_SCRIPT, earlier_parses], text=True,
            capture_output=True,
            env={"PYTHONPATH": str(src), "PYTHONHASHSEED": hash_seed, "PATH": ""},
            timeout=100)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert "_w1" in outputs[0] and "== chosen plan ==" in outputs[0]   # fresh names are in the text
