"""A cached structural hash is only valid in the process that computed it.

``str`` hashes are salted per process, so the hash an AST node keeps in its
``_hash`` slot must not travel with the node: plans are pickled to
``ShardExecutor`` workers, and under ``spawn`` / ``forkserver`` (or any
worker with another ``PYTHONHASHSEED``) a leaked cache would make equal terms
miss in dicts and sets on the other side.
"""

import copy
import os
import pickle
import subprocess
import sys

import pytest

from repro.egraph import EGraph
from repro.kernels import KERNELS
from repro.sdqlite import parse_expr
from repro.sdqlite.ast import Const, Mul, Sym
from repro.sdqlite.debruijn import to_debruijn
from repro.sdqlite.frontend import FRONT_END, Query, front_end
from repro.serving.cache import plan_key

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
TEXT = KERNELS["MTTKRP"].source

CHILD = """
import pickle, sys
from repro.sdqlite import parse_expr
from repro.sdqlite.debruijn import to_debruijn
from repro.sdqlite.frontend import front_end
named = parse_expr(sys.argv[1])
nameless = to_debruijn(named)
query = front_end(named).query
# Fill every hash cache before pickling: a leak needs something to leak.
assert len({named, nameless, query}) == 3
sys.stdout.buffer.write(pickle.dumps((named, nameless, query)))
"""


def pickled_in_another_process(hash_seed: str):
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": hash_seed}
    done = subprocess.run([sys.executable, "-c", CHILD, TEXT], env=env,
                          capture_output=True, check=True, timeout=120)
    return pickle.loads(done.stdout)


@pytest.mark.parametrize("hash_seed", ["1", "4242"])
def test_a_plan_pickled_under_another_hash_seed_is_found_locally(hash_seed):
    # Two child seeds: whatever seed this process runs under, at least one
    # child salted its string hashes differently.
    named, nameless, query = pickled_in_another_process(hash_seed)
    local_named = parse_expr(TEXT)
    local_nameless = to_debruijn(local_named)
    assert named == local_named and hash(named) == hash(local_named)
    assert {local_named: "named", local_nameless: "nameless"}[named] == "named"
    assert {local_named, local_nameless} == {named, nameless}
    assert to_debruijn(named) == local_nameless
    assert nameless in {local_nameless}
    # The e-graph's term memo finds it (no second insertion).
    egraph = EGraph()
    root = egraph.add_expr(local_nameless)
    nodes = egraph.num_nodes
    assert egraph.has_term(nameless)
    assert egraph.add_expr(nameless) == root and egraph.num_nodes == nodes
    # Plan keys and the front-end memo treat the two as one query.
    local_query = FRONT_END.get(TEXT).query
    assert query == local_query and hash(query) == hash(local_query)
    assert front_end(named).query == local_query

    def key(q):
        return plan_key(q, method="egraph", backend="typed", optimizer_options={},
                        snapshot=_Snapshot())

    assert {key(local_query): "plan"}[key(query)] == "plan"


class _Snapshot:
    tensors: dict = {}
    scalars: dict = {}
    schema_version = 0


def test_the_cache_is_left_out_of_pickles_and_copies():
    term = Mul(Sym("A"), Sym("beta"))
    hash(term)
    for clone in (pickle.loads(pickle.dumps(term)), copy.copy(term), copy.deepcopy(term)):
        assert clone == term and hash(clone) == hash(term)
        assert type(clone) is Mul and clone.left == Sym("A")
    state = pickle.dumps(term)
    assert b"_hash" not in state
    query = Query(term)
    assert b"_hash" not in pickle.dumps(query)
    assert pickle.loads(pickle.dumps(query)) == query


def test_equal_numeric_constants_still_share_one_class():
    # 1 == True == 1.0 in Python, so the three constants are equal nodes,
    # hash alike and hashcons to a single e-class.
    constants = [Const(1), Const(True), Const(1.0)]
    assert len(set(constants)) == 1
    assert len({hash(constant) for constant in constants}) == 1
    egraph = EGraph()
    assert len({egraph.add_expr(constant) for constant in constants}) == 1
    assert egraph.num_nodes == 1
    assert Const(0) != Const(1) and Const(2) != Const(2.5)
