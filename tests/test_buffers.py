"""Property tests for the typed-buffer export of every storage format.

The typed backend consumes flat columnar buffers; each format exports its
physical arrays via :meth:`StorageFormat.to_buffers` and can be rebuilt via
:meth:`StorageFormat.from_buffers`.  The load-bearing invariant is the
round trip

    ``from_buffers(name, fmt.to_buffers(), fmt.shape).to_dense() == fmt.to_dense()``

for every format, on arbitrary tensors — including tensors built from
duplicate coordinates (which the constructors must sum), empty tensors
(zero non-zeros must survive the trip without shape loss), and
single-element tensors (the smallest non-trivial segment structure).
"""

import logging

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.execution.buffers import BufferLevels, levels_from_mapping  # noqa: E402
from repro.storage import FORMATS, SPECIAL_FORMATS, build_format  # noqa: E402
from repro.storage.physical import (  # noqa: E402
    PhysicalArray,
    PhysicalHashMap,
    PhysicalTrie,
)

#: kind -> ranks the format accepts (mirrors each ``candidates_for``).
FORMAT_RANKS = {
    "dense": (1, 2, 3),
    "coo": (1, 2, 3),
    "csr": (2,),
    "csc": (2,),
    "dcsr": (2,),
    "csf": (3,),
    "dok": (1, 2, 3),
    "trie": (1, 2, 3),
}


def _roundtrip(fmt):
    rebuilt = type(fmt).from_buffers(fmt.name, fmt.to_buffers(), fmt.shape)
    np.testing.assert_allclose(rebuilt.to_dense(), fmt.to_dense())
    assert rebuilt.shape == fmt.shape


def _random_dense(seed, shape, density=0.4):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < density
    return np.round(rng.standard_normal(shape), 3) * mask


@st.composite
def kind_and_dense(draw):
    kind = draw(st.sampled_from(sorted(FORMAT_RANKS)))
    rank = draw(st.sampled_from(FORMAT_RANKS[kind]))
    shape = tuple(draw(st.integers(min_value=1, max_value=7))
                  for _ in range(rank))
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    density = draw(st.sampled_from((0.0, 0.2, 0.6, 1.0)))
    return kind, _random_dense(seed, shape, density)


@settings(max_examples=60, deadline=None)
@given(kind_and_dense())
def test_buffers_roundtrip_random(case):
    kind, dense = case
    _roundtrip(build_format(kind, "T", dense))


@st.composite
def kind_and_duplicate_coo(draw):
    """Coordinate data with intentional duplicates (constructors must sum)."""
    kind = draw(st.sampled_from(sorted(FORMAT_RANKS)))
    rank = draw(st.sampled_from(FORMAT_RANKS[kind]))
    shape = tuple(draw(st.integers(min_value=1, max_value=5))
                  for _ in range(rank))
    base = draw(st.lists(
        st.tuples(*(st.integers(min_value=0, max_value=dim - 1)
                    for dim in shape)),
        min_size=1, max_size=8))
    coords = np.array(base + base, dtype=np.int64).reshape(-1, rank)
    values = np.arange(1.0, coords.shape[0] + 1)
    return kind, coords, values, shape


@settings(max_examples=60, deadline=None)
@given(kind_and_duplicate_coo())
def test_buffers_roundtrip_duplicate_coords(case):
    kind, coords, values, shape = case
    _roundtrip(FORMATS[kind].from_coo("T", coords, values, shape))


@pytest.mark.parametrize("kind", sorted(FORMAT_RANKS))
def test_buffers_roundtrip_empty(kind):
    for rank in FORMAT_RANKS[kind]:
        _roundtrip(build_format(kind, "E", np.zeros((3,) * rank)))


@pytest.mark.parametrize("kind", sorted(FORMAT_RANKS))
def test_buffers_roundtrip_single_element(kind):
    for rank in FORMAT_RANKS[kind]:
        dense = np.zeros((4,) * rank)
        dense[(2,) * rank] = 1.5
        _roundtrip(build_format(kind, "S", dense))


def test_special_formats_roundtrip_via_base_export():
    lower = np.tril(np.arange(16.0).reshape(4, 4))
    band = np.diag(np.arange(1.0, 6.0)) + np.diag(np.arange(1.0, 5.0), k=-1)
    square = _random_dense(7, (4, 4))
    for kind, dense in [("lower_triangular", lower), ("band", band),
                        ("zorder", square)]:
        _roundtrip(SPECIAL_FORMATS[kind].from_dense("T", dense))


def test_physical_array_export_is_flat_view():
    arr = PhysicalArray("a", np.arange(5.0))
    buffers = arr.to_buffers()
    assert list(buffers) == ["val"]
    np.testing.assert_array_equal(buffers["val"], np.arange(5.0))


def test_physical_hashmap_export_is_sorted_coo():
    hm = PhysicalHashMap("h", {(2, 0): 4.0, (0, 1): 2.0, (2, 2): 0.0}, (3, 3))
    buffers = hm.to_buffers()
    np.testing.assert_array_equal(buffers["idx1"], [0, 2])
    np.testing.assert_array_equal(buffers["idx2"], [1, 0])
    np.testing.assert_array_equal(buffers["val"], [2.0, 4.0])


def test_physical_trie_export_matches_buffer_levels():
    entries = {(0, 1): 2.0, (2, 0): 4.0, (2, 2): 5.0}
    trie = PhysicalTrie.from_entries("t", entries, (3, 3))
    buffers = trie.to_buffers()
    levels = BufferLevels(
        [buffers["keys1"], buffers["keys2"]],
        [buffers["seg1"], buffers["seg2"]],
        buffers["val"])
    coords = levels.leaf_coords()
    rebuilt = {tuple(map(int, c)): v
               for c, v in zip(coords, levels.values)}
    assert rebuilt == entries


# ---------------------------------------------------------------------------
# BufferLevels.from_sorted_columns against the builder it replaced
# ---------------------------------------------------------------------------


def reference_levels(coords, values):
    """``BufferLevels.from_sorted_coords`` as it was (pinned): one pass per
    level over entry ids, segment counts by ``np.add.at``."""
    n, depth = coords.shape
    keys_levels, segs = [], []
    prev_ids = np.zeros(n, dtype=np.int64)
    prev_count = 1
    for d in range(depth):
        if n:
            new = np.empty(n, dtype=bool)
            new[0] = True
            new[1:] = (prev_ids[1:] != prev_ids[:-1]) | (coords[1:, d] != coords[:-1, d])
            starts = np.flatnonzero(new)
            ids = np.cumsum(new) - 1
        else:
            starts = np.empty(0, dtype=np.int64)
            ids = prev_ids
        keys_d = coords[starts, d] if n else np.empty(0, dtype=np.int64)
        seg = np.zeros(prev_count + 1, dtype=np.int64)
        if starts.size:
            np.add.at(seg, prev_ids[starts] + 1, 1)
        keys_levels.append(keys_d)
        segs.append(np.cumsum(seg))
        prev_ids, prev_count = ids, keys_d.shape[0]
    return keys_levels, segs


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_levels_from_sorted_columns_match_the_old_builder(data):
    depth = data.draw(st.integers(1, 4))
    rows = sorted(data.draw(st.sets(
        st.tuples(*[st.integers(-2, 3)] * depth), max_size=30)))
    coords = np.array(rows, dtype=np.int64).reshape(-1, depth)
    values = np.arange(1.0, len(rows) + 1)
    levels = BufferLevels.from_sorted_coords(coords, values)
    keys, segs = reference_levels(coords, values)
    assert levels.depth == depth
    for d in range(depth):
        np.testing.assert_array_equal(levels.keys[d], keys[d])
        np.testing.assert_array_equal(levels.seg[d], segs[d])
        assert levels.keys[d].dtype == levels.seg[d].dtype == np.int64
    np.testing.assert_array_equal(levels.values, values)
    np.testing.assert_array_equal(levels.leaf_coords(), coords)
    # The leaf coordinates kept by the builder are the ones the levels imply.
    rebuilt = BufferLevels(levels.keys, levels.seg, levels.values)
    np.testing.assert_array_equal(rebuilt.leaf_coords(), coords)


# -- levelizing runtime collections: which failures mean "run untyped" ---------


class _Triples:
    """A dictionary-like value whose ``items()`` yields key/value/extra triples."""

    def items(self):
        return [(0, 1.0, "extra")]


class _Unreadable:
    """A dictionary-like value whose ``items()`` fails for its own reasons."""

    def items(self):
        raise RuntimeError("backing store vanished")


@pytest.mark.parametrize("value, error", [
    (3.5, "EvaluationError"),                  # a non-zero scalar is not a dict
    ({0: {1: 2.0}, 1: object()}, "EvaluationError"),
    (_Triples(), "ValueError"),                # items() that are not pairs
])
def test_a_non_levelizable_value_falls_back_untyped_and_says_so(caplog, value, error):
    with caplog.at_level(logging.DEBUG, logger="repro.execution"):
        assert levels_from_mapping(value) is None
    messages = [r.getMessage() for r in caplog.records if r.name == "repro.execution"]
    assert len(messages) == 1 and error in messages[0] and "untyped" in messages[0]


def test_levelizing_propagates_failures_that_are_not_about_the_shape():
    with pytest.raises(RuntimeError, match="vanished"):
        levels_from_mapping({0: _Unreadable()})
