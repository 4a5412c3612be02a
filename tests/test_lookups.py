"""Properties of the typed backend's batched lookups (``repro.execution.buffers``).

:func:`lookup_sorted` chooses a regime from its input — a position table and
one gather when the haystack's key range is dense, ``np.searchsorted``
otherwise — and :meth:`BufferLevels.lookup_level` turns a per-segment lookup
into one :func:`lookup_sorted` over composite (parent, key) integers.  Both
are checked against references that know nothing of regimes: a pinned
``searchsorted`` and a walk over the nested dictionary itself.
"""

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.execution import typed_plan  # noqa: E402
from repro.execution.buffers import (  # noqa: E402
    LOOKUP_REGIMES,
    levels_from_mapping,
    lookup_sorted,
)
from repro.sdqlite import evaluate, parse_expr, to_debruijn  # noqa: E402
from repro.sdqlite.values import to_plain  # noqa: E402
from repro.storage.formats import _DENSE_CELLS_PER_ENTRY  # noqa: E402

INT64_MIN, INT64_MAX = -(1 << 63), (1 << 63) - 1


def searchsorted_reference(haystack, queries):
    """``found`` and the hit positions as a plain ``np.searchsorted`` finds them."""
    if haystack.size == 0:
        return np.zeros(queries.shape[0], dtype=bool), np.empty(0, dtype=np.int64)
    pos = np.searchsorted(haystack, queries)
    found = (pos < haystack.size) & (haystack[np.minimum(pos, haystack.size - 1)] == queries)
    return found, pos[found]


@st.composite
def haystack_and_queries(draw):
    """A strictly ascending int64 haystack — dense or spread out, anchored
    anywhere in the int64 range — and queries hitting it, just missing it,
    outside its range and at the int64 extremes."""
    spread = draw(st.sampled_from([1, 2, 8, 1 << 20, 1 << 62]))
    n = draw(st.integers(0, 12))
    offsets = sorted(draw(st.sets(st.integers(0, min(spread * 16, INT64_MAX)),
                                  min_size=n, max_size=n)))
    top = offsets[-1] if offsets else 0
    base = draw(st.one_of(st.integers(INT64_MIN, INT64_MAX - top),
                          st.sampled_from([INT64_MIN, INT64_MAX - top, -5, 0])))
    haystack = [base + offset for offset in offsets]
    near = [key + delta for key in haystack for delta in (-1, 0, 1)
            if INT64_MIN <= key + delta <= INT64_MAX]
    pool = near + [INT64_MIN, INT64_MAX, 0, -1, base]
    queries = draw(st.lists(st.one_of(st.sampled_from(pool),
                                      st.integers(INT64_MIN, INT64_MAX)), max_size=20))
    return (np.array(haystack, dtype=np.int64).reshape(-1),
            np.array(queries, dtype=np.int64).reshape(-1))


@settings(max_examples=300, deadline=None)
@given(haystack_and_queries())
def test_lookup_sorted_matches_searchsorted_in_both_regimes(case):
    haystack, queries = case
    pos, found, regime = lookup_sorted(haystack, queries)
    expected_found, expected_pos = searchsorted_reference(haystack, queries)
    assert found.dtype == np.bool_ and found.shape == queries.shape
    np.testing.assert_array_equal(found, expected_found)
    np.testing.assert_array_equal(pos[found], expected_pos)
    assert regime in LOOKUP_REGIMES
    if haystack.size:
        width = int(haystack[-1]) - int(haystack[0])
        dense = width < _DENSE_CELLS_PER_ENTRY * (haystack.size + queries.size)
        assert regime == ("direct" if dense else "search")


def test_lookup_sorted_regimes_on_fixed_inputs():
    dense = np.arange(10, 20, dtype=np.int64)
    queries = np.array([9, 10, 15, 19, 20, INT64_MIN, INT64_MAX], dtype=np.int64)
    pos, found, regime = lookup_sorted(dense, queries)
    assert regime == "direct"
    assert found.tolist() == [False, True, True, True, False, False, False]
    assert pos[found].tolist() == [0, 5, 9]
    sparse = np.array([INT64_MIN, 0, INT64_MAX], dtype=np.int64)
    pos, found, regime = lookup_sorted(sparse, queries)
    assert regime == "search"
    assert found.tolist() == [False] * 5 + [True, True]
    assert pos[found].tolist() == [0, 2]
    # A single key, and a haystack at the top of the int64 range.
    for single in ([7], [INT64_MAX - 1, INT64_MAX]):
        haystack = np.array(single, dtype=np.int64)
        pos, found, regime = lookup_sorted(haystack, np.array(single + [INT64_MIN]))
        assert regime == "direct" and found.tolist() == [True] * len(single) + [False]
        assert pos[found].tolist() == list(range(len(single)))
    # No queries, no haystack.
    assert lookup_sorted(dense, np.empty(0, dtype=np.int64))[1].size == 0
    pos, found, _ = lookup_sorted(np.empty(0, dtype=np.int64), queries)
    assert not found.any() and pos.shape == queries.shape


# ---------------------------------------------------------------------------
# lookup_level: composite keys against the nested dictionary itself
# ---------------------------------------------------------------------------


@st.composite
def nested_and_lanes(draw):
    """A two-level dictionary whose entries may have no children at all — a
    tail of them included — with keys anywhere from dense to the edge of the
    composite's int64 bound, plus per-lane (owner, key) probes."""
    scale = draw(st.sampled_from([1, 1000, 1 << 40, 1 << 61, 1 << 62]))
    child_keys = st.one_of(st.integers(-3, 6),
                           st.integers(-3, 6).map(lambda k: k * scale).filter(
                               lambda k: INT64_MIN <= k <= INT64_MAX),
                           st.sampled_from([INT64_MIN, INT64_MAX, (1 << 61) - 1,
                                            (1 << 60) - 1, -(1 << 60)]))
    with_children = draw(st.integers(1, 4))
    parents = with_children + draw(st.integers(0, 4))   # the tail has no children
    nested = {}
    for parent in range(parents):
        keys = draw(st.sets(child_keys, max_size=4)) if parent < with_children else ()
        nested[parent] = {key: float(i + 1) for i, key in enumerate(sorted(keys))}
    if not any(nested.values()):
        nested[0] = {0: 1.0}
    all_keys = sorted({key for row in nested.values() for key in row})
    lanes = draw(st.integers(0, 16))
    owners = draw(st.lists(st.one_of(st.integers(-2, parents + 3),
                                     st.sampled_from([1 << 61, 1 << 62, INT64_MAX, INT64_MIN])),
                           min_size=lanes, max_size=lanes))
    keys = draw(st.lists(st.one_of(st.sampled_from(all_keys), child_keys),
                         min_size=lanes, max_size=lanes))
    valid = draw(st.one_of(st.none(), st.lists(st.booleans(), min_size=lanes,
                                               max_size=lanes)))
    return nested, owners, keys, valid


@settings(max_examples=300, deadline=None)
@given(nested_and_lanes())
def test_lookup_level_finds_exactly_the_children_of_each_owner(case):
    nested, owners, keys, valid = case
    levels = levels_from_mapping(nested)
    owner = np.array(owners, dtype=np.int64)
    query = np.array(keys, dtype=np.int64)
    mask = None if valid is None else np.array(valid, dtype=bool)
    hit = levels.lookup_level(1, owner, query, mask)
    children = levels.keys[1]
    kmin, kmax = int(children.min()), int(children.max())
    span = int(levels.parents(1)[-1]) + 1
    if span * (kmax - kmin + 1) >= 1 << 62:
        assert hit is None          # no int64 composite: the backend loops in Python
        return
    pos, found, regime = hit
    assert regime in LOOKUP_REGIMES
    seg = levels.seg[1]
    for lane, (o, k) in enumerate(zip(owners, keys)):
        row = nested.get(o, {})
        expected = k in row and (valid is None or valid[lane])
        assert found[lane] == expected, (lane, o, k)
        if expected:
            assert int(children[pos[lane]]) == k
            assert seg[o] <= pos[lane] < seg[o + 1]


def test_lookup_level_owner_past_the_last_parent_with_children_misses():
    """An owner at or past the composite's span used to form ``owner * big``
    past int64 and wrap onto a real entry: here 8 * 2**61 wrapped to the
    composite of (parent 0, key 0)."""
    nested = {i: ({0: 1.0, (1 << 61) - 1: 2.0} if i == 0 else {}) for i in range(9)}
    levels = levels_from_mapping(nested)
    assert levels.composite(1)[-1] == 1        # only parent 0 has children
    owner = np.arange(9, dtype=np.int64)
    pos, found, _ = levels.lookup_level(1, owner, np.zeros(9, dtype=np.int64))
    assert found.tolist() == [True] + [False] * 8
    assert pos[0] == 0
    pos, found, _ = levels.lookup_level(
        1, owner, np.full(9, (1 << 61) - 1, dtype=np.int64))
    assert found.tolist() == [True] + [False] * 8 and pos[0] == 1


def test_typed_lookup_past_the_last_parent_with_children_matches_interpreter():
    nested = {i: ({0: 1.0, (1 << 61) - 1: 2.0} if i == 0 else {}) for i in range(9)}
    env = {"D": nested, "K": np.ones(9)}
    plan = to_debruijn(parse_expr("sum(<i, v> in K) { i -> D(i)(0) }"))
    assert to_plain(typed_plan(plan)(env)) == to_plain(evaluate(plan, env)) == {0: 1.0}
