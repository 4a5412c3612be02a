"""Tests for storage formats: construction, round-trips, and semantic mappings.

The central invariant of Sec. 4 of the paper is that the Tensor Storage
Mapping, evaluated over the physical symbols, reproduces the logical tensor.
These tests check that invariant for every format, on hand-built and random
inputs, using the reference interpreter.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sdqlite import evaluate, to_plain
from repro.sdqlite.errors import StorageError
from repro.storage import (
    BandFormat,
    COOFormat,
    CSCFormat,
    CSFFormat,
    CSRFormat,
    DCSRFormat,
    DenseFormat,
    DOKFormat,
    FORMATS,
    LowerTriangularFormat,
    TrieFormat,
    ZOrderFormat,
    build_format,
    morton_index,
)
from repro.data.synthetic import random_sparse_matrix, random_sparse_tensor3
from repro.execution import buffers as buffers_module
from repro.execution.buffers import BufferLevels
from repro.session import Session
from repro.storage import splice as splice_module

#: The matrix from Fig. 1(b) of the paper.
PAPER_MATRIX = np.array([
    [6.0, 0.0, 9.0, 8.0],
    [0.0, 0.0, 0.0, 0.0],
    [5.0, 0.0, 0.0, 7.0],
])


def dense_from_mapping(fmt):
    """Evaluate the storage mapping with the interpreter and densify the result."""
    logical = evaluate(fmt.mapping(), fmt.physical())
    dense = np.zeros(fmt.shape, dtype=np.float64)
    plain = to_plain(logical) if not isinstance(logical, (int, float)) else {}
    _fill(dense, plain, ())
    return dense


def _fill(dense, nested, prefix):
    for key, value in nested.items():
        if isinstance(value, dict):
            _fill(dense, value, prefix + (int(key),))
        else:
            dense[prefix + (int(key),)] = value


MATRIX_FORMATS = ["dense", "coo", "csr", "csc", "dcsr", "dok", "trie"]


@pytest.mark.parametrize("kind", MATRIX_FORMATS)
def test_matrix_format_dense_roundtrip(kind):
    fmt = build_format(kind, "C", PAPER_MATRIX)
    np.testing.assert_allclose(fmt.to_dense(), PAPER_MATRIX)


@pytest.mark.parametrize("kind", MATRIX_FORMATS)
def test_matrix_format_mapping_semantics(kind):
    fmt = build_format(kind, "C", PAPER_MATRIX)
    np.testing.assert_allclose(dense_from_mapping(fmt), PAPER_MATRIX)


def test_csr_matches_paper_figure():
    fmt = CSRFormat.from_dense("C", PAPER_MATRIX)
    physical = fmt.physical()
    assert physical["C_len1"] == 3
    np.testing.assert_array_equal(physical["C_pos2"], [0, 3, 3, 5])
    np.testing.assert_array_equal(physical["C_idx2"], [0, 2, 3, 0, 3])
    np.testing.assert_array_equal(physical["C_val"], [6, 9, 8, 5, 7])


def test_dcsr_matches_paper_figure():
    fmt = DCSRFormat.from_dense("C", PAPER_MATRIX)
    physical = fmt.physical()
    np.testing.assert_array_equal(physical["C_pos1"], [0, 2])
    np.testing.assert_array_equal(physical["C_idx1"], [0, 2])
    np.testing.assert_array_equal(physical["C_pos2"], [0, 3, 5])
    np.testing.assert_array_equal(physical["C_idx2"], [0, 2, 3, 0, 3])
    np.testing.assert_array_equal(physical["C_val"], [6, 9, 8, 5, 7])


def test_coo_vector_matches_paper_example():
    v = np.array([9.0, 0.0, 7.0, 5.0])
    fmt = COOFormat.from_dense("v", v)
    physical = fmt.physical()
    np.testing.assert_array_equal(physical["v_idx1"], [0, 2, 3])
    np.testing.assert_array_equal(physical["v_val"], [9, 7, 5])
    np.testing.assert_allclose(dense_from_mapping(fmt), v)


def test_csc_stores_by_column():
    fmt = CSCFormat.from_dense("C", PAPER_MATRIX)
    physical = fmt.physical()
    assert physical["C_len1"] == 4  # number of columns
    np.testing.assert_allclose(fmt.to_dense(), PAPER_MATRIX)
    np.testing.assert_allclose(dense_from_mapping(fmt), PAPER_MATRIX)


def test_rank_checks():
    with pytest.raises(StorageError):
        CSRFormat.from_dense("X", np.zeros((2, 2, 2)))
    with pytest.raises(StorageError):
        CSFFormat.from_dense("X", np.zeros((2, 2)))
    with pytest.raises(StorageError):
        build_format("nonexistent", "X", np.zeros((2, 2)))


def test_csf_rank3_roundtrip_and_mapping():
    coords, values = random_sparse_tensor3(6, 5, 7, 0.05, seed=3)
    fmt = CSFFormat.from_coo("B", coords, values, (6, 5, 7))
    dense = np.zeros((6, 5, 7))
    for (i, k, l), v in zip(coords, values):
        dense[i, k, l] = v
    np.testing.assert_allclose(fmt.to_dense(), dense)
    np.testing.assert_allclose(dense_from_mapping(fmt), dense)
    # segmented structure is consistent
    physical = fmt.physical()
    assert physical["B_pos2"][-1] == len(physical["B_idx2"])
    assert physical["B_pos3"][-1] == len(physical["B_idx3"])


def test_dok_and_trie_rank3():
    coords, values = random_sparse_tensor3(5, 4, 6, 0.08, seed=9)
    dense = np.zeros((5, 4, 6))
    for (i, k, l), v in zip(coords, values):
        dense[i, k, l] = v
    for cls in (DOKFormat, TrieFormat):
        fmt = cls.from_coo("T", coords, values, (5, 4, 6))
        np.testing.assert_allclose(fmt.to_dense(), dense)
        np.testing.assert_allclose(dense_from_mapping(fmt), dense)


@settings(max_examples=25, deadline=None)
@given(
    kind=st.sampled_from(MATRIX_FORMATS),
    rows=st.integers(min_value=1, max_value=8),
    cols=st.integers(min_value=1, max_value=8),
    density=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=1000),
)
def test_property_mapping_reproduces_matrix(kind, rows, cols, density, seed):
    matrix = random_sparse_matrix(rows, cols, density, seed=seed)
    fmt = build_format(kind, "A", matrix)
    np.testing.assert_allclose(fmt.to_dense(), matrix)
    np.testing.assert_allclose(dense_from_mapping(fmt), matrix)


def test_lower_triangular_format():
    matrix = np.tril(np.arange(1, 17, dtype=np.float64).reshape(4, 4))
    fmt = LowerTriangularFormat.from_dense("A", matrix)
    np.testing.assert_allclose(fmt.to_dense(), matrix)
    np.testing.assert_allclose(dense_from_mapping(fmt), matrix)
    assert len(fmt.physical()["A_val"]) == 10
    with pytest.raises(StorageError):
        LowerTriangularFormat.from_dense("A", np.ones((3, 3)))


def test_band_format():
    n = 5
    matrix = np.zeros((n, n))
    for i in range(n):
        matrix[i, i] = 2.0
        if i < n - 1:
            matrix[i, i + 1] = -1.0
            matrix[i + 1, i] = -1.5
    fmt = BandFormat.from_dense("B", matrix)
    np.testing.assert_allclose(fmt.to_dense(), matrix)
    np.testing.assert_allclose(dense_from_mapping(fmt), matrix)
    with pytest.raises(StorageError):
        BandFormat.from_dense("B", np.ones((4, 4)))


def test_zorder_format():
    matrix = np.arange(16, dtype=np.float64).reshape(4, 4) + 1
    fmt = ZOrderFormat.from_dense("Z", matrix)
    np.testing.assert_allclose(fmt.to_dense(), matrix)
    np.testing.assert_allclose(dense_from_mapping(fmt), matrix)
    # The physical value array really is laid out along the Morton curve.
    physical = fmt.physical()
    for d in range(16):
        i, j = int(physical["Z_i"][d]), int(physical["Z_j"][d])
        assert morton_index(i, j) == d
        assert physical["Z_val"][d] == matrix[i, j]
    with pytest.raises(StorageError):
        ZOrderFormat.from_dense("Z", np.ones((3, 3)))


def test_profiles_and_kinds():
    fmt = CSRFormat.from_dense("C", PAPER_MATRIX)
    profile = fmt.profile()
    assert profile[0] == 3.0
    assert profile[1][0] == pytest.approx(5 / 3)
    kinds = fmt.physical_kinds()
    assert kinds["C_val"] == "array"
    assert kinds["C_len1"] == "scalar"
    trie = TrieFormat.from_dense("T", PAPER_MATRIX)
    assert trie.physical_kinds()["T_trie"] == "trie"
    dok = DOKFormat.from_dense("D", PAPER_MATRIX)
    assert dok.physical_kinds()["D_hash"] == "hash"
    assert fmt.segment_profiles()["C_idx2"] == pytest.approx(5 / 3)


@pytest.mark.parametrize("shape,coords,values", [
    ((3, 4), [], []),
    ((3, 4), [(1, 2)], [5.0]),
    ((2, 3, 4), [], []),
    ((2, 3, 4), [(1, 2, 3), (0, 0, 1), (1, 0, 2)], [1.0, -2.0, 3.0]),
], ids=["empty", "single", "empty-rank3", "rank3"])
def test_the_two_trie_exports_agree(shape, coords, values):
    """A trie exports one key and one segment array per dimension, empty or
    not, whether asked through its format or its stored trie; a non-empty one
    as the levels the typed backend walks it into."""
    fmt = TrieFormat.from_coo("T", np.array(coords, dtype=np.int64).reshape(-1, len(shape)),
                              np.array(values, dtype=np.float64), shape)
    declared, stored = fmt.to_buffers(), fmt.trie.to_buffers()
    rank = len(shape)
    names = {f"keys{d}" for d in range(1, rank + 1)} | {f"seg{d}" for d in range(1, rank + 1)}
    assert set(declared) == set(stored) == names | {"val"}
    for name, array in declared.items():
        assert array.dtype == stored[name].dtype and np.array_equal(array, stored[name]), name
    if coords:
        levels = fmt.trie.level_view().levels
        for d in range(rank):
            assert np.array_equal(stored[f"keys{d + 1}"], levels.keys[d])
            assert np.array_equal(stored[f"seg{d + 1}"], levels.seg[d])
        assert np.array_equal(stored["val"], levels.values)


def test_declarations_text():
    fmt = CSRFormat.from_dense("C", PAPER_MATRIX)
    ddl = fmt.declarations()
    assert "CREATE TENSOR C AS" in ddl
    assert "CREATE real ARRAY C_val(5);" in ddl
    assert "CREATE int ARRAY C_idx2(5);" in ddl


def test_format_registry_complete():
    assert set(FORMATS) == {"dense", "coo", "csr", "csc", "dcsr", "csf", "dok", "trie"}
    assert FORMATS["csr"] is CSRFormat
    assert FORMATS["dense"] is DenseFormat


# ---------------------------------------------------------------------------
# from_coo edge cases: empty tensors, single elements, duplicate coordinates
# ---------------------------------------------------------------------------

#: Rank-2 formats that can store a 4x4 matrix with entries on/below the
#: diagonal and inside the tridiagonal band (so every special format is
#: legal too).  See docs/formats.md, "Duplicate-coordinate semantics".
RANK2_KINDS = ["dense", "coo", "csr", "csc", "dcsr", "dok", "trie",
               "lower_triangular", "band", "zorder"]
RANK3_KINDS = ["dense", "coo", "csf", "dok", "trie"]
RANK1_KINDS = ["dense", "coo", "dok", "trie"]

from repro.storage import ALL_FORMATS, sum_duplicates  # noqa: E402


class TestFromCooEdgeCases:
    """The documented ``from_coo`` semantics, pinned across every format."""

    empty2 = (np.empty((0, 2), dtype=np.int64), np.empty(0))
    empty3 = (np.empty((0, 3), dtype=np.int64), np.empty(0))

    @pytest.mark.parametrize("kind", RANK2_KINDS)
    def test_empty_matrix(self, kind):
        fmt = ALL_FORMATS[kind].from_coo("E", *self.empty2, (4, 4))
        assert fmt.nnz == 0
        np.testing.assert_array_equal(fmt.to_dense(), np.zeros((4, 4)))

    @pytest.mark.parametrize("kind", RANK3_KINDS)
    def test_empty_rank3(self, kind):
        fmt = ALL_FORMATS[kind].from_coo("E", *self.empty3, (3, 3, 3))
        assert fmt.nnz == 0
        np.testing.assert_array_equal(fmt.to_dense(), np.zeros((3, 3, 3)))

    @pytest.mark.parametrize("kind", RANK1_KINDS)
    def test_empty_vector(self, kind):
        fmt = ALL_FORMATS[kind].from_coo(
            "E", np.empty((0, 1), dtype=np.int64), np.empty(0), (5,))
        assert fmt.nnz == 0
        np.testing.assert_array_equal(fmt.to_dense(), np.zeros(5))

    @pytest.mark.parametrize("kind", RANK2_KINDS)
    def test_single_element_matrix(self, kind):
        # (1, 0) is on the sub-diagonal: legal for every special format too.
        fmt = ALL_FORMATS[kind].from_coo("S", np.array([[1, 0]]), np.array([5.0]),
                                         (4, 4))
        expected = np.zeros((4, 4))
        expected[1, 0] = 5.0
        np.testing.assert_array_equal(fmt.to_dense(), expected)
        assert fmt.nnz == 1

    @pytest.mark.parametrize("kind", RANK3_KINDS)
    def test_single_element_rank3(self, kind):
        fmt = ALL_FORMATS[kind].from_coo("S", np.array([[1, 2, 0]]),
                                         np.array([3.5]), (3, 3, 3))
        expected = np.zeros((3, 3, 3))
        expected[1, 2, 0] = 3.5
        np.testing.assert_array_equal(fmt.to_dense(), expected)

    @pytest.mark.parametrize("kind", RANK2_KINDS)
    def test_duplicate_coordinates_are_summed(self, kind):
        coords = np.array([[0, 0], [0, 0], [1, 1], [0, 0]])
        values = np.array([1.0, 2.0, 3.0, 4.0])
        fmt = ALL_FORMATS[kind].from_coo("D", coords, values, (4, 4))
        expected = np.zeros((4, 4))
        expected[0, 0] = 7.0
        expected[1, 1] = 3.0
        np.testing.assert_array_equal(fmt.to_dense(), expected)

    @pytest.mark.parametrize("kind", RANK3_KINDS)
    def test_duplicate_coordinates_rank3(self, kind):
        coords = np.array([[0, 1, 2], [0, 1, 2], [2, 2, 2]])
        values = np.array([1.5, 2.5, -1.0])
        fmt = ALL_FORMATS[kind].from_coo("D", coords, values, (3, 3, 3))
        expected = np.zeros((3, 3, 3))
        expected[0, 1, 2] = 4.0
        expected[2, 2, 2] = -1.0
        np.testing.assert_array_equal(fmt.to_dense(), expected)

    def test_duplicates_coalesce_in_coo_storage(self):
        coords = np.array([[0, 0], [0, 0], [1, 1]])
        fmt = COOFormat.from_coo("D", coords, np.array([1.0, 2.0, 3.0]), (2, 2))
        # Stored coordinates are unique and row-major sorted.
        assert fmt.nnz == 2
        np.testing.assert_array_equal(fmt.coords, [[0, 0], [1, 1]])
        np.testing.assert_array_equal(fmt.values, [3.0, 3.0])

    @pytest.mark.parametrize("kind", ["coo", "csr", "dok", "trie"])
    def test_duplicates_summing_to_zero(self, kind):
        coords = np.array([[0, 0], [0, 0], [1, 1]])
        values = np.array([2.0, -2.0, 3.0])
        fmt = ALL_FORMATS[kind].from_coo("Z", coords, values, (2, 2))
        expected = np.zeros((2, 2))
        expected[1, 1] = 3.0
        np.testing.assert_array_equal(fmt.to_dense(), expected)
        # Entries summing to zero are dropped uniformly, so nnz does not
        # depend on the format (or on the conversion path taken later).
        assert fmt.nnz == 1

    @pytest.mark.parametrize("kind", ["coo", "csr", "dok", "trie"])
    def test_mapping_semantics_with_duplicates(self, kind):
        coords = np.array([[0, 0], [0, 0], [2, 3], [2, 3], [1, 2]])
        values = np.array([1.0, 1.0, 2.0, 5.0, 4.0])
        fmt = ALL_FORMATS[kind].from_coo("D", coords, values, (3, 4))
        expected = np.zeros((3, 4))
        np.add.at(expected, tuple(coords.T), values)
        np.testing.assert_allclose(dense_from_mapping(fmt), expected)

    def test_sum_duplicates_helper(self):
        coords, values = sum_duplicates(
            np.array([[2, 0], [0, 1], [2, 0]]), np.array([1.0, 2.0, 3.0]), 2)
        np.testing.assert_array_equal(coords, [[0, 1], [2, 0]])
        np.testing.assert_array_equal(values, [2.0, 4.0])
        # Empty input stays empty (and keeps its shape).
        coords, values = sum_duplicates(np.empty((0, 2)), np.empty(0), 2)
        assert coords.shape == (0, 2) and values.shape == (0,)


# ---------------------------------------------------------------------------
# O(nnz) interchange: coo_arrays / scipy exports must never densify
# ---------------------------------------------------------------------------

import tracemalloc  # noqa: E402

from repro.storage import coo_arrays  # noqa: E402
from repro.storage.convert import to_scipy_csc, to_scipy_csr  # noqa: E402

#: A huge-but-sparse matrix: 2^30 dense cells (8 GiB as float64), 1000 nnz.
#: Any conversion path that materializes the dense array blows the ceiling
#: (and likely the machine) instantly.
_HUGE = 1 << 15
#: Generous allocation ceiling for an O(nnz) conversion of 1000 entries.
_CEILING_BYTES = 8 << 20


def _huge_sparse_coo(rank=2, seed=0):
    rng = np.random.default_rng(seed)
    dim = _HUGE if rank == 2 else 1 << 10
    coords = rng.integers(0, dim, size=(1000, rank))
    return coords, rng.random(1000), (dim,) * rank


@pytest.mark.parametrize("kind", ["coo", "csr", "csc", "dcsr", "dok", "trie"])
def test_coo_arrays_is_o_nnz(kind):
    coords, values, shape = _huge_sparse_coo()
    fmt = ALL_FORMATS[kind].from_coo("H", coords, values, shape)
    expected_coords, expected_values = sum_duplicates(coords, values, 2)
    tracemalloc.start()
    try:
        got_coords, got_values = coo_arrays(fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _CEILING_BYTES, f"{kind}: coo_arrays allocated {peak} bytes"
    np.testing.assert_array_equal(got_coords, expected_coords)
    np.testing.assert_allclose(got_values, expected_values)


@pytest.mark.parametrize("kind", ["coo", "csf", "dok", "trie"])
def test_coo_arrays_is_o_nnz_rank3(kind):
    coords, values, shape = _huge_sparse_coo(rank=3)
    fmt = ALL_FORMATS[kind].from_coo("H", coords, values, shape)
    expected_coords, expected_values = sum_duplicates(coords, values, 3)
    tracemalloc.start()
    try:
        got_coords, got_values = coo_arrays(fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < _CEILING_BYTES, f"{kind}: coo_arrays allocated {peak} bytes"
    np.testing.assert_array_equal(got_coords, expected_coords)
    np.testing.assert_allclose(got_values, expected_values)


class TestScipyExports:
    """`to_scipy_csr` / `to_scipy_csc` build from coordinates, never densify."""

    scipy_sparse = pytest.importorskip("scipy.sparse")

    @pytest.mark.parametrize("kind", ["coo", "csr", "csc", "dcsr", "dok", "trie"])
    def test_csr_and_csc_match_on_huge_sparse(self, kind):
        coords, values, shape = _huge_sparse_coo()
        fmt = ALL_FORMATS[kind].from_coo("H", coords, values, shape)
        expected_coords, expected_values = sum_duplicates(coords, values, 2)
        tracemalloc.start()
        try:
            csr = to_scipy_csr(fmt)
            csc = to_scipy_csc(fmt)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < _CEILING_BYTES, f"{kind}: scipy export allocated {peak}"
        assert csr.shape == shape and csc.shape == shape
        for matrix in (csr.tocoo(), csc.tocoo()):
            order = np.lexsort((matrix.col, matrix.row))
            np.testing.assert_array_equal(
                np.column_stack([matrix.row[order], matrix.col[order]]),
                expected_coords)
            np.testing.assert_allclose(matrix.data[order], expected_values)

    @pytest.mark.parametrize("kind", ["coo", "csr", "csc", "dcsr", "dok", "trie"])
    def test_empty_matrix_exports(self, kind):
        fmt = ALL_FORMATS[kind].from_coo(
            "E", np.empty((0, 2), dtype=np.int64), np.empty(0), (4, 5))
        csr = to_scipy_csr(fmt)
        csc = to_scipy_csc(fmt)
        assert csr.shape == (4, 5) and csr.nnz == 0
        assert csc.shape == (4, 5) and csc.nnz == 0

    def test_csc_of_csc_is_built_from_native_arrays(self):
        dense = np.array([[1.0, 0.0], [0.0, 2.0], [3.0, 0.0]])
        fmt = ALL_FORMATS["csc"].from_dense("C", dense)
        csc = to_scipy_csc(fmt)
        assert csc.format == "csc"
        np.testing.assert_array_equal(csc.toarray(), dense)
        # native value array is reused, not rebuilt through a COO detour
        # (scipy downcasts the int64 index arrays, so only data is shared)
        assert np.shares_memory(csc.data, fmt.values)


# ---------------------------------------------------------------------------
# The write path: sum_duplicates and apply_delta against pinned references
# ---------------------------------------------------------------------------

import logging  # noqa: E402

from repro.storage import Catalog  # noqa: E402
from repro.storage import convert as convert_module  # noqa: E402
from repro.storage.convert import apply_delta  # noqa: E402
from repro.storage import formats as formats_module  # noqa: E402
from repro.storage.formats import StorageFormat  # noqa: E402


def reference_sum_duplicates(coords, values, rank):
    """``sum_duplicates`` as it was before the sorted-key write path (pinned)."""
    coords = np.asarray(coords, dtype=np.int64).reshape(-1, rank or 1)
    values = np.asarray(values, dtype=np.float64).reshape(-1)
    if coords.shape[0] == 0:
        return coords, values
    unique, inverse = np.unique(coords, axis=0, return_inverse=True)
    if unique.shape[0] == coords.shape[0]:
        order = np.lexsort(tuple(coords[:, axis]
                                 for axis in range(coords.shape[1] - 1, -1, -1)))
        coords, values = coords[order], values[order]
    else:
        summed = np.zeros(unique.shape[0], dtype=np.float64)
        np.add.at(summed, inverse.reshape(-1), values)
        coords, values = unique, summed
    nonzero = values != 0
    return coords[nonzero], values[nonzero]


def assert_bit_equal(got, expected):
    got, expected = np.asarray(got), np.asarray(expected)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def assert_same_buffers(got, expected):
    got, expected = got.to_buffers(), expected.to_buffers()
    assert got.keys() == expected.keys()
    for key in got:
        assert_bit_equal(got[key], expected[key])


#: Values whose sums depend on the order of addition, cancel exactly, or vanish.
AWKWARD = [0.1, 0.2, 0.3, -0.3, 1e16, -1e16, 1.0, -1.0, 0.0, 3.0]
float_values = st.one_of(
    st.sampled_from(AWKWARD),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


@st.composite
def entry_lists(draw, shape, max_size=12, seeds=()):
    """``(coords, values)`` inside ``shape``; ``seeds`` are coordinates to re-hit."""
    coordinate = st.tuples(*(st.integers(0, extent - 1) for extent in shape))
    if seeds:
        coordinate = st.one_of(coordinate, st.sampled_from(seeds))
    coords = draw(st.lists(coordinate, max_size=max_size))
    values = draw(st.lists(float_values, min_size=len(coords), max_size=len(coords)))
    return (np.array(coords, dtype=np.int64).reshape(-1, len(shape)),
            np.array(values, dtype=np.float64))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_property_sum_duplicates_matches_the_old_implementation(data):
    rank = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 3)) for _ in range(rank))
    coords, values = data.draw(entry_lists(shape, max_size=24))
    got = sum_duplicates(coords, values, rank)
    expected = reference_sum_duplicates(coords, values, rank)
    assert_bit_equal(got[0], expected[0])
    assert_bit_equal(got[1], expected[1])


def test_sum_duplicates_without_an_int64_key():
    """A bounding box of 2**93 cells: the lexsort fallback, same answers."""
    top = (1 << 31) - 1
    coords = np.array([[top, top, top], [0, 0, 0], [top, 0, top], [0, 0, 0],
                       [top, top, top], [0, top, 0]])
    values = np.array([0.1, 0.2, 1.0, 0.3, -0.1, 2.0])
    assert formats_module._key_space([coords.T]) is None
    got = sum_duplicates(coords, values, 3)
    expected = reference_sum_duplicates(coords, values, 3)
    assert_bit_equal(got[0], expected[0])
    assert_bit_equal(got[1], expected[1])


def _formats_for(shape):
    """Every ``(class, from_coo kwargs)`` of ``ALL_FORMATS`` legal for ``shape``."""
    rank_ok = {"csr": 2, "csc": 2, "dcsr": 2, "sharded_csr": 2, "csf": 3}
    for kind, cls in ALL_FORMATS.items():
        if rank_ok.get(kind, len(shape)) != len(shape):
            continue
        if kind in ("lower_triangular", "band", "zorder"):
            continue                    # structural: see the special-format test
        if kind.startswith("sharded"):
            for shards in (1, 2, 3):
                yield cls, {"shards": shards}
        else:
            yield cls, {}


def assert_same_physical(got, expected):
    """Every physical symbol equal: arrays bit for bit, scalars by value."""
    got, expected = got.physical(), expected.physical()
    assert got.keys() == expected.keys()
    for symbol, value in got.items():
        if isinstance(value, np.ndarray):
            assert_bit_equal(value, expected[symbol])
        else:
            assert value == expected[symbol]


def check_apply_delta(cls, kwargs, shape, base, delta):
    """``apply_delta`` equals ``from_coo`` of base-then-delta, buffer for
    buffer, and leaves every array of the old format as it was."""
    fmt = cls.from_coo("T", *base, shape, **kwargs)
    base_coords, base_values = convert_module.coo_arrays(fmt)
    expected = cls.from_coo("T", np.concatenate([base_coords, delta[0]]),
                            np.concatenate([base_values, delta[1]]), shape,
                            **fmt.from_coo_kwargs())
    before = {key: np.array(value) for key, value in fmt.to_buffers().items()}
    stored = {symbol: np.array(value) if isinstance(value, np.ndarray) else value
              for symbol, value in fmt.physical().items()}
    got = apply_delta(fmt, *delta)
    assert type(got) is cls and got.shape == fmt.shape
    assert got.from_coo_kwargs() == fmt.from_coo_kwargs()
    assert got.spec_name == fmt.spec_name
    assert got.mapping_source() == fmt.mapping_source()
    assert got.nnz == expected.nnz
    assert_same_buffers(got, expected)
    if fmt._sort_axes is not None:      # the stored arrays themselves
        assert_same_physical(got, expected)
    for key, value in fmt.to_buffers().items():     # the old format is untouched
        assert_bit_equal(value, before[key])
    for symbol, value in fmt.physical().items():
        if isinstance(value, np.ndarray):
            assert_bit_equal(value, stored[symbol])
        else:
            assert value == stored[symbol]


def test_apply_delta_edge_cases_equal_rebuild():
    """Empty base, empty delta, duplicates hitting one entry, exact
    cancellation, and inserts into the last row and the last column."""
    shape = (3, 4)
    base = (np.array([[0, 0], [1, 2], [2, 3]]), np.array([1.0, 0.1, 4.0]))
    empty = (np.empty((0, 2), dtype=np.int64), np.empty(0))
    deltas = [
        empty,
        # (0.1 + 0.2) + 0.3 != 0.1 + (0.2 + 0.3): the order of additions is pinned
        (np.array([[1, 2], [1, 2], [0, 0]]), np.array([0.2, 0.3, -1.0])),
        (np.array([[2, 0], [0, 3], [2, 3], [2, 0]]), np.array([1.0, 2.0, 0.5, -1.0])),
    ]
    for cls, kwargs in _formats_for(shape):
        for start in (base, empty):
            for delta in deltas:
                check_apply_delta(cls, kwargs, shape, start, delta)
        fmt = cls.from_coo("T", *base, shape, **kwargs)
        assert apply_delta(fmt, *empty) is fmt


def test_apply_delta_grows_and_prunes_levels_like_a_rebuild():
    """New top-level keys, new rows and fibers under existing keys, and
    cancellations that empty a fiber, a row or a whole top-level entry —
    CSF's and DCSR's interior levels grow and shrink with the leaves."""
    shape3 = (4, 3, 5)
    base3 = (np.array([[0, 0, 1], [0, 0, 3], [0, 2, 2], [2, 1, 0], [2, 1, 4], [3, 0, 0]]),
             np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0]))
    deltas3 = [
        (np.array([[1, 2, 2], [1, 0, 4]]), np.array([7.0, 8.0])),         # a new i
        (np.array([[0, 1, 0], [2, 2, 4], [2, 2, 1]]), np.array([1.0, 2.0, 3.0])),  # new fibers
        (np.array([[0, 2, 2]]), np.array([-3.0])),                         # empties fiber (0, 2)
        (np.array([[2, 1, 0], [2, 1, 4]]), np.array([-4.0, -5.0])),        # empties i = 2
        (np.array([[3, 0, 0], [3, 1, 1]]), np.array([-6.0, 0.5])),         # i = 3 survives
        (np.array([[3, 0, 0], [1, 1, 1], [1, 1, 1]]), np.array([-6.0, 0.3, -0.3])),  # nothing new
    ]
    shape2 = (5, 4)
    base2 = (np.array([[0, 1], [0, 3], [2, 2], [4, 0]]), np.array([1.0, 2.0, 3.0, 4.0]))
    deltas2 = [
        (np.array([[3, 1], [1, 0], [3, 0]]), np.array([1.0, 2.0, 3.0])),   # new rows
        (np.array([[2, 2], [0, 1], [0, 3]]), np.array([-3.0, -1.0, -2.0])),  # empties rows 0, 2
        (np.array([[4, 0], [4, 1], [4, 0]]), np.array([-4.0, 1.0, 0.0])),  # row 4 re-keyed
    ]
    for shape, base, deltas in ((shape3, base3, deltas3), (shape2, base2, deltas2)):
        empty = (np.empty((0, len(shape)), dtype=np.int64), np.empty(0))
        for cls, kwargs in _formats_for(shape):
            for start in (base, empty):
                for delta in deltas:
                    check_apply_delta(cls, kwargs, shape, start, delta)
    got = apply_delta(CSFFormat.from_coo("T", *base3, shape3), *deltas3[3])
    np.testing.assert_array_equal(got.physical()["T_idx1"], [0, 3])
    got = apply_delta(DCSRFormat.from_coo("T", *base2, shape2), *deltas2[1])
    np.testing.assert_array_equal(got.physical()["T_idx1"], [4])


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_property_apply_delta_equals_rebuild(data):
    rank = data.draw(st.integers(1, 3))
    shape = tuple(data.draw(st.integers(1, 4)) for _ in range(rank))
    base = data.draw(entry_lists(shape))
    stored = sum_duplicates(*base, rank)
    seeds = [tuple(int(c) for c in row) for row in stored[0]]
    delta = data.draw(entry_lists(shape, seeds=seeds))
    if seeds and data.draw(st.booleans()):      # exact cancellation of a stored entry
        delta = (np.concatenate([delta[0], stored[0][:1]]),
                 np.concatenate([delta[1], -stored[1][:1]]))
    if seeds and data.draw(st.booleans()):      # cancel a whole row / fiber / top key
        prefix = data.draw(st.integers(1, rank))
        victim = stored[0][data.draw(st.integers(0, len(seeds) - 1)), :prefix]
        doomed = (stored[0][:, :prefix] == victim).all(axis=1)
        delta = (np.concatenate([delta[0], stored[0][doomed]]),
                 np.concatenate([delta[1], -stored[1][doomed]]))
    for cls, kwargs in _formats_for(shape):
        check_apply_delta(cls, kwargs, shape, base, delta)


@pytest.mark.parametrize("n", [0, 7, 3000])
def test_edit_equals_delete_then_insert_on_both_sides_of_the_slice_cutoff(n):
    """Below its cutoff the splice's array edit copies slices, at and above
    it calls ``np.insert``; both give the same array."""
    rng = np.random.default_rng(n)
    array = rng.standard_normal(n)
    cutoff = splice_module._sliced_inserts(n)
    for k in (0, 1, cutoff - 1, cutoff, 3 * cutoff):
        at = np.sort(rng.integers(0, n + 1, k))
        items = rng.standard_normal(k)
        for delete in (np.empty(0, dtype=np.int64), np.unique(rng.integers(0, max(n, 1), 3))):
            delete = delete[delete < n]
            before = array.copy()
            got = splice_module._edit(array, delete, at, items)
            expected = np.insert(np.delete(array, delete), at - np.searchsorted(delete, at), items)
            assert got.tobytes() == expected.tobytes()
            assert array.tobytes() == before.tobytes()


@pytest.mark.parametrize("kind", ["lower_triangular", "band", "zorder"])
def test_apply_delta_special_formats_equal_rebuild(kind):
    # Diagonal and sub-diagonal of a 4x4: legal for all three layouts.
    base = (np.array([[0, 0], [1, 0], [2, 2], [3, 2]]), np.array([1.0, 0.1, 3.0, 4.0]))
    delta = (np.array([[1, 0], [3, 3], [1, 0], [2, 2], [2, 1]]),
             np.array([0.2, 5.0, 0.3, -3.0, 7.0]))
    check_apply_delta(ALL_FORMATS[kind], {}, (4, 4), base, delta)
    if kind != "zorder":
        with pytest.raises(StorageError):
            apply_delta(ALL_FORMATS[kind].from_coo("T", *base, (4, 4)),
                        np.array([[0, 3]]), np.array([1.0]))


def test_apply_delta_splices_where_no_int64_key_spans_the_coordinates(caplog):
    """A (2**31)**3 bounding box has no int64 linear key; the splice needs
    none, so the write stays a splice and logs no rebuild."""
    top = (1 << 31) - 1
    shape = (1 << 31,) * 3
    fmt = COOFormat("T", np.array([[0, 0, 0], [top, top, top]]),
                    np.array([0.1, 1.0]), shape)
    delta = (np.array([[top, top, top], [0, top, 0], [0, 0, 0], [0, 0, 0]]),
             np.array([-1.0, 2.0, 0.2, 0.3]))
    with caplog.at_level(logging.DEBUG, logger="repro.storage"):
        got = apply_delta(fmt, *delta)
    assert not caplog.records
    expected = COOFormat("T", np.concatenate([fmt.coords, delta[0]]),
                         np.concatenate([fmt.values, delta[1]]), shape)
    assert_same_buffers(got, expected)
    np.testing.assert_array_equal(got.coords, [[0, 0, 0], [0, top, 0]])


def test_apply_delta_logs_the_rebuild_path_only_where_it_is_taken(caplog):
    dense = np.arange(12.0).reshape(3, 4)
    with caplog.at_level(logging.DEBUG, logger="repro.storage"):
        for kind in ("dense", "coo", "csr", "csc", "dcsr", "sharded_coo",
                     "sharded_csr"):
            apply_delta(ALL_FORMATS[kind].from_dense("M", dense), [(2, 3)], [1.0])
        assert not caplog.records
        for kind in ("dok", "trie"):
            apply_delta(ALL_FORMATS[kind].from_dense("M", dense), [(2, 3)], [1.0])
    assert [record.args[0] for record in caplog.records] == ["dok", "trie"]


def _forbidden(what):
    def call(*args, **kwargs):
        raise AssertionError(f"the write path reached {what}")
    return call


@pytest.mark.parametrize("kind", ["coo", "csr", "csc", "csf", "dcsr"])
def test_catalog_update_never_normalizes_the_base(kind, monkeypatch):
    """The O(nnz) rebuilds cannot silently come back.  ``Session.update`` on
    a sorted-array tensor with two typed views maintained by delta hands
    ``sum_duplicates`` at most the delta, and neither the storage write nor
    the view merges reach a coordinate read-out or a rebuild from one."""
    rng = np.random.default_rng(7)
    rank3 = kind == "csf"
    shape = (20, 30, 10) if rank3 else (40, 50)
    coords = np.column_stack([rng.integers(0, extent, 400) for extent in shape])
    values = rng.random(400)
    catalog = Catalog().add(ALL_FORMATS[kind].from_coo("A", coords, values, shape))
    catalog.add(CSRFormat.from_dense("B", rng.random((shape[-1], 6))))
    session = Session(catalog)
    if rank3:
        product = ("sum(<(i,j,l), a> in A, <(l2,k), b> in B) "
                   "if (l == l2) then { (i, j, k) -> a * b }", shape[:2] + (6,))
        rowsum = ("sum(<(i,j,l), a> in A) { i -> a }", shape[:1])
    else:
        product = ("sum(<(i,j), a> in A, <(j2,k), b> in B) "
                   "if (j == j2) then { (i, k) -> a * b }", (shape[0], 6))
        rowsum = ("sum(<(i,j), a> in A) { i -> a }", shape[:1])
    views = [session.create_view(name, program, dense_shape=dense_shape)
             for name, (program, dense_shape) in (("product", product), ("rowsum", rowsum))]
    k = 6
    delta = np.column_stack([rng.integers(0, extent, k) for extent in shape])
    delta_values = rng.random(k)
    delta[-1], delta_values[-1] = coords[0], -catalog["A"].to_dense()[tuple(coords[0])]
    expected = ALL_FORMATS[kind].from_coo(
        "A", np.concatenate([coords, delta]), np.concatenate([values, delta_values]), shape)
    sizes = []
    original = formats_module.sum_duplicates

    def recording(coords, values, rank):
        sizes.append(len(np.asarray(values).reshape(-1)))
        return original(coords, values, rank)

    # The typed backend builds every delta result with from_sorted_columns;
    # only a view merge must not.
    merging = []
    merge, build = BufferLevels.merge, BufferLevels.from_sorted_columns

    def tracked_merge(self, other):
        merging.append(True)
        try:
            return merge(self, other)
        finally:
            merging.pop()

    def guarded_build(cls, cols, values):
        if merging:
            raise AssertionError("a view merge rebuilt its levels")
        return build(cols, values)

    with monkeypatch.context() as patch:
        for module in (formats_module, convert_module):
            patch.setattr(module, "sum_duplicates", recording)
        for module in (formats_module, convert_module, buffers_module):
            patch.setattr(module, "merge_coo", _forbidden("merge_coo"), raising=False)
        patch.setattr(StorageFormat, "_from_canonical", _forbidden("_from_canonical"),
                      raising=False)
        for cls in (COOFormat, CSRFormat, CSCFormat, DCSRFormat, CSFFormat):
            patch.setattr(cls, "to_coo", _forbidden(f"{cls.__name__}.to_coo"))
        patch.setattr(BufferLevels, "leaf_coords", _forbidden("leaf_coords"))
        patch.setattr(BufferLevels, "merge", tracked_merge)
        patch.setattr(BufferLevels, "from_sorted_columns", classmethod(guarded_build))
        session.update("A", delta, delta_values)
    assert max(sizes, default=0) <= k
    np.testing.assert_allclose(catalog["A"].to_dense(), expected.to_dense())
    for view in views:
        assert (view.delta_refreshes, view.full_refreshes, view.merge_fallbacks) == (1, 1, 0)
        maintained = view.value()
        np.testing.assert_allclose(maintained, view.refresh().value())


# ---------------------------------------------------------------------------
# group_sum: the one order-aware group-by behind from_coo and the typed backend
# ---------------------------------------------------------------------------

from hypothesis import event  # noqa: E402

from repro.storage.formats import GROUP_REGIMES, group_sum  # noqa: E402


def reference_group_sum_sorted(cols, vals):
    """The typed backend's ``group_sum_sorted`` as it was before (pinned):
    a ``np.lexsort`` over every column, whatever the order of the input."""
    n = vals.shape[0]
    if n == 0:
        return np.empty((0, len(cols)), dtype=np.int64), np.empty(0, dtype=np.float64)
    order = np.lexsort(tuple(reversed(cols)))
    sorted_cols = [np.ascontiguousarray(c[order]) for c in cols]
    sorted_vals = vals[order]
    boundary = np.zeros(n, dtype=bool)
    boundary[0] = True
    for column in sorted_cols:
        boundary[1:] |= column[1:] != column[:-1]
    starts = np.flatnonzero(boundary)
    with np.errstate(invalid="ignore"):       # inf - inf
        sums = np.add.reduceat(sorted_vals, starts)
    coords = np.stack([column[starts] for column in sorted_cols], axis=1)
    nonzero = sums != 0
    if not np.all(nonzero):
        coords, sums = coords[nonzero], sums[nonzero]
    return coords, sums


def reference_sequential_sums(rows, vals):
    """Per key, the values added one by one in input order; zero sums dropped."""
    sums = {}
    for row, value in zip(rows, vals):
        sums[row] = sums.get(row, 0.0) + value
    return sorted((row, value) for row, value in sums.items() if value != 0)


def grouped(cols, vals):
    take, sums, regime = group_sum(cols, vals)
    assert regime in GROUP_REGIMES
    coords = np.stack([col if take is None else col[take] for col in cols], axis=1)
    return coords, sums, regime


@st.composite
def key_rows(draw):
    """Rows of integer keys: depth 1-4, negative keys, a small, wide or
    >= 2**63-cell bounding box, and in strictly sorted, sorted or drawn order."""
    depth = draw(st.integers(1, 4))
    box = draw(st.sampled_from(["small", "wide", "tall", "huge"]))
    pools = []
    for axis in range(depth):
        if box == "small":
            low = draw(st.integers(-3, 3))
            pools.append(list(range(low, low + draw(st.integers(1, 4)))))
        else:
            bound = {"wide": 1 << 13, "tall": 1 << 60 if axis == 0 else 1,
                     "huge": 1 << 62}[box]
            pools.append(draw(st.lists(st.integers(-bound, bound), min_size=1,
                                       max_size=4, unique=True)))
    rows = draw(st.lists(st.tuples(*(st.sampled_from(pool) for pool in pools)),
                         max_size=40))
    if box == "huge":       # the first axis alone spans 2**63 + 1 cells
        rows += [(-(1 << 62),) + rows[0][1:], ((1 << 62),) + rows[0][1:]] if rows else []
    order = draw(st.sampled_from(["strict", "sorted", "drawn"]))
    if order != "drawn":
        rows = sorted(set(rows) if order == "strict" else rows)
    return depth, rows


def columns_of(depth, rows):
    matrix = np.array(rows, dtype=np.int64).reshape(-1, depth)
    return [np.ascontiguousarray(matrix[:, axis]) for axis in range(depth)]


#: Sums of these do not depend on the order of addition (small integers are
#: exact; NaN and opposite infinities give NaN whatever the order).
EXACT = st.one_of(st.integers(-4, 4).map(float),
                  st.sampled_from([float("nan"), float("inf"), float("-inf")]))


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_property_group_sum_matches_the_old_lexsort_implementation(data):
    depth, rows = data.draw(key_rows())
    vals = data.draw(st.lists(EXACT, min_size=len(rows), max_size=len(rows)))
    cancel = data.draw(st.integers(0, len(rows)))   # these entries cancel exactly
    rows, vals = rows + rows[:cancel], vals + [-value for value in vals[:cancel]]
    cols, vals = columns_of(depth, rows), np.array(vals, dtype=np.float64)
    coords, sums, regime = grouped(cols, vals)
    event(regime)
    expected_coords, expected_sums = reference_group_sum_sorted(cols, vals)
    assert_bit_equal(coords, expected_coords)
    np.testing.assert_allclose(sums, expected_sums, rtol=1e-12, atol=0, equal_nan=True)
    again = grouped(cols, vals)
    assert_bit_equal(again[0], coords)
    assert_bit_equal(again[1], sums)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_property_group_sum_adds_in_input_order(data):
    """Every regime adds the values of a key one by one in input order."""
    depth, rows = data.draw(key_rows())
    vals = data.draw(st.lists(float_values, min_size=len(rows), max_size=len(rows)))
    coords, sums, regime = grouped(columns_of(depth, rows), np.array(vals, dtype=np.float64))
    event(regime)
    expected = reference_sequential_sums(rows, vals)
    assert [tuple(row) for row in coords.tolist()] == [row for row, _ in expected]
    assert_bit_equal(sums, np.array([value for _, value in expected], dtype=np.float64))


def test_group_sum_takes_each_regime():
    def regime(*cols):
        cols = [np.array(col, dtype=np.int64) for col in cols]
        return grouped(cols, np.ones(cols[0].shape[0]))[2]

    assert regime([0, 1, 5]) == "ordered"
    assert regime([0, 0, 2], [1, 3, 0]) == "ordered"
    assert regime([0, 1, 1, 5]) == "segmented"
    assert regime([2, 0, 1, 0]) == "dense"
    assert regime([1 << 40, 0, 7, 0]) == "sorted"
    assert regime([1 << 61, 0, 7, 0]) == "sorted"         # key * n overflows: stable argsort
    assert regime([1 << 62, -(1 << 62), 0], [0, 1, 2]) == "lexsort"
    assert regime([]) == "ordered"


def test_sorted_input_is_not_sorted_again(no_sorting):
    """``from_coo`` on canonical-order input (what ``to_coo`` and the data
    generators return) performs no sort; shuffled input still does."""
    rng = np.random.default_rng(11)
    coords = np.unique(np.column_stack([rng.integers(0, 60, 500),
                                        rng.integers(0, 70, 500)]), axis=0)
    values = rng.random(coords.shape[0]) + 0.5
    shuffled = rng.permutation(coords.shape[0])
    expected = COOFormat.from_coo("A", coords[shuffled], values[shuffled], (60, 70))
    no_sorting()
    got_coords, got_values = sum_duplicates(coords, values, 2)
    assert_bit_equal(got_coords, coords)
    assert_bit_equal(got_values, values)
    assert not np.shares_memory(got_coords, coords)
    assert not np.shares_memory(got_values, values)
    for cls in (COOFormat, CSRFormat):
        assert_same_buffers(cls.from_coo("A", coords, values, (60, 70)),
                            cls.from_coo("A", *expected.to_coo(), (60, 70)))
    with pytest.raises(AssertionError, match="must not be sorted"):
        sum_duplicates(coords[shuffled], values[shuffled], 2)
