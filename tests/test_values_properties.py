"""Hypothesis property tests for the canonical value layer (sdqlite.values).

The differential oracle's comparison layer (and every backend's runtime)
rests on ``normalize_key`` / ``truthy`` / ``merge_hashable`` and friends —
the one definition of SDQLite's coercion rules shared by the interpreter
and the typed backend.  A comparison layer that is itself wrong
would silently validate divergent backends, so these invariants are checked
property-style over arbitrary scalars and nested dictionaries.
"""

import math

import numpy as np
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from repro.sdqlite.errors import EvaluationError  # noqa: E402
from repro.sdqlite.values import (  # noqa: E402
    RangeDict,
    SemiringDict,
    integral_index,
    is_zero,
    lookup,
    merge_hashable,
    normalize_key,
    to_plain,
    truthy,
    v_add,
    v_mul,
)

finite_floats = st.floats(allow_nan=False, allow_infinity=False, width=64)
scalars = st.one_of(
    st.integers(min_value=-2**53, max_value=2**53),
    finite_floats,
    st.booleans(),
    st.integers(min_value=-1000, max_value=1000).map(np.int64),
    finite_floats.map(np.float64),
)

#: Nested dictionaries with integer keys and scalar leaves (max depth 3).
nested_dicts = st.recursive(
    st.dictionaries(st.integers(min_value=-8, max_value=8), finite_floats, max_size=4),
    lambda children: st.dictionaries(st.integers(min_value=-8, max_value=8),
                                     children, max_size=3),
    max_leaves=12,
)


# ---------------------------------------------------------------------------
# normalize_key
# ---------------------------------------------------------------------------


@given(scalars)
def test_normalize_key_is_idempotent(value):
    once = normalize_key(value)
    assert normalize_key(once) == once


@given(scalars)
def test_normalize_key_preserves_numeric_equality(value):
    # The normalized key compares equal to (and hashes with) the original,
    # so `d[normalize_key(k)]` and `d[k]` can never land in different slots.
    key = normalize_key(value)
    assert key == value
    assert hash(key) == hash(value)


@given(scalars)
def test_normalize_key_types(value):
    key = normalize_key(value)
    as_float = float(value)
    if as_float.is_integer():
        assert isinstance(key, int) and not isinstance(key, bool)
    else:
        assert isinstance(key, float)


@given(st.integers(min_value=-10**6, max_value=10**6), finite_floats)
def test_normalize_key_agreement_across_representations(int_value, _):
    # 2, 2.0 and np.float64(2.0) must normalize identically.
    assert normalize_key(int_value) == normalize_key(float(int_value)) \
        == normalize_key(np.float64(int_value))


def test_normalize_key_rejects_non_scalars():
    with pytest.raises(EvaluationError):
        normalize_key({1: 2})
    with pytest.raises(EvaluationError):
        normalize_key("zero")


# ---------------------------------------------------------------------------
# integral_index (positional-container key guard)
# ---------------------------------------------------------------------------


@given(scalars)
def test_integral_index_matches_is_integer(value):
    index = integral_index(value)
    if float(value).is_integer():
        assert index == int(value)
    else:
        assert index is None


@given(st.floats(min_value=-3, max_value=3).filter(lambda f: not f.is_integer()))
def test_non_integral_keys_miss_positional_containers(key):
    array = np.array([10.0, 20.0, 30.0])
    assert lookup(array, key) == 0
    assert lookup(RangeDict(0, 3), key) == 0


# ---------------------------------------------------------------------------
# truthy / is_zero
# ---------------------------------------------------------------------------


@given(scalars)
def test_truthy_matches_python_bool_for_scalars(value):
    assert truthy(value) == bool(value)


@given(nested_dicts)
def test_truthy_of_dicts_is_nonzeroness(data):
    wrapped = SemiringDict(data)
    assert truthy(wrapped) == (not is_zero(wrapped))
    assert truthy(wrapped) == bool(to_plain(wrapped))


@given(nested_dicts)
def test_semiring_dict_prunes_exact_zeros(data):
    plain = to_plain(SemiringDict(data))

    def no_zeros(node):
        if isinstance(node, dict):
            return all(no_zeros(item) for item in node.values())
        return node != 0

    assert no_zeros(plain)


# ---------------------------------------------------------------------------
# merge_hashable (the grouping key of ``merge``)
# ---------------------------------------------------------------------------


@given(scalars, scalars)
def test_merge_hashable_groups_scalars_numerically(left, right):
    same = float(left) == float(right)
    if same:
        assert merge_hashable(left) == merge_hashable(right)
    elif not (math.isnan(float(left)) or math.isnan(float(right))):
        assert merge_hashable(left) != merge_hashable(right)


def test_merge_hashable_groups_dicts_by_identity():
    left, right = SemiringDict({1: 2.0}), SemiringDict({1: 2.0})
    assert merge_hashable(left) == merge_hashable(left)
    assert merge_hashable(left) != merge_hashable(right)


# ---------------------------------------------------------------------------
# semiring laws the oracle leans on (spot-check with small structures)
# ---------------------------------------------------------------------------


def _dicts_of_depth(depth: int):
    """Well-typed dictionaries: every leaf at the same nesting depth.

    (``v_add`` deliberately rejects rank-mismatched additions, so the
    algebraic laws only apply to uniform-depth operands.)
    """
    keys = st.integers(min_value=-8, max_value=8)
    strategy = st.dictionaries(keys, finite_floats, max_size=4)
    for _ in range(depth - 1):
        strategy = st.dictionaries(keys, strategy, max_size=3)
    return strategy


@settings(max_examples=60)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda depth: st.tuples(_dicts_of_depth(depth), _dicts_of_depth(depth))))
def test_v_add_commutes_on_plain_dicts(pair):
    left, right = pair
    forward = to_plain(v_add(SemiringDict(left), SemiringDict(right)))
    backward = to_plain(v_add(SemiringDict(right), SemiringDict(left)))
    assert forward == backward


@settings(max_examples=60)
@given(st.dictionaries(st.integers(min_value=-4, max_value=4), finite_floats,
                       max_size=4),
       st.dictionaries(st.integers(min_value=-4, max_value=4), finite_floats,
                       max_size=4))
def test_v_mul_intersects_keys(left, right):
    product = to_plain(v_mul(SemiringDict(left), SemiringDict(right)))
    if not isinstance(product, dict):
        assert product == 0  # one side was the semiring zero
    else:
        assert set(product) <= (set(left) & set(right))
