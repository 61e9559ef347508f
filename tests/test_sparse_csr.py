"""Unit tests for the CSR sparse-matrix container."""

import numpy as np
import pytest

from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import dense_to_csr
from repro.sparse.pattern import SparsityPattern

from oracles import pattern_indices, pattern_of


def test_round_trip(small_dense):
    csr = dense_to_csr(small_dense)
    np.testing.assert_allclose(csr.to_dense(), small_dense)


def test_shape_properties(small_dense):
    csr = dense_to_csr(small_dense)
    assert csr.n_rows == small_dense.shape[0]
    assert csr.n_cols == small_dense.shape[1]
    assert csr.nnz == int((small_dense != 0).sum())


def test_empty():
    csr = CSRMatrix.empty((4, 6))
    assert csr.nnz == 0
    assert csr.row_nnz().tolist() == [0, 0, 0, 0]
    assert not csr.to_dense().any()


def test_row_access(small_dense):
    csr = dense_to_csr(small_dense)
    for i in range(csr.n_rows):
        cols, vals = csr.row(i)
        expected_cols = np.nonzero(small_dense[i])[0]
        np.testing.assert_array_equal(np.sort(cols), expected_cols)
        np.testing.assert_allclose(vals, small_dense[i, cols])


def test_row_out_of_range(small_csr):
    with pytest.raises(IndexError):
        small_csr.row(small_csr.n_rows)
    with pytest.raises(IndexError):
        small_csr.row(-1)


def test_row_nnz_matches_indptr(small_csr):
    np.testing.assert_array_equal(small_csr.row_nnz(), np.diff(small_csr.indptr))


def test_matmul_dense_matches_numpy(small_dense, rng):
    csr = dense_to_csr(small_dense)
    dense = rng.standard_normal((small_dense.shape[1], 5))
    np.testing.assert_allclose(csr.matmul_dense(dense), small_dense @ dense)


def test_matmul_dense_dimension_mismatch(small_csr, rng):
    with pytest.raises(ValueError):
        small_csr.matmul_dense(rng.standard_normal((small_csr.n_cols + 1, 3)))


def test_select_rows(small_dense):
    csr = dense_to_csr(small_dense)
    rows = np.array([3, 0, 7])
    subset = csr.select_rows(rows)
    np.testing.assert_allclose(subset.to_dense(), small_dense[rows])


def test_select_rows_empty_selection(small_csr):
    subset = small_csr.select_rows(np.array([], dtype=np.int64))
    assert subset.n_rows == 0
    assert subset.nnz == 0


def test_invalid_indptr_rejected():
    with pytest.raises(ValueError):
        CSRMatrix(shape=(2, 2), indptr=np.array([0, 1]), indices=np.array([0]), data=np.array([1.0]))
    with pytest.raises(ValueError):
        CSRMatrix(
            shape=(2, 2), indptr=np.array([0, 2, 1]), indices=np.array([0]), data=np.array([1.0])
        )


def test_column_index_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        CSRMatrix(
            shape=(1, 2), indptr=np.array([0, 1]), indices=np.array([5]), data=np.array([1.0])
        )


def test_density(small_dense):
    csr = dense_to_csr(small_dense)
    assert csr.density == pytest.approx((small_dense != 0).mean())


def test_from_dense_classmethod(small_dense):
    np.testing.assert_allclose(CSRMatrix.from_dense(small_dense).to_dense(), small_dense)


def test_pattern_counts_structure_without_values(small_csr):
    pattern = pattern_of(small_csr)
    assert pattern.nnz == small_csr.nnz
    assert pattern.density == small_csr.density
    np.testing.assert_array_equal(pattern.row_nnz(), small_csr.row_nnz())
    np.testing.assert_array_equal(pattern_indices(pattern), small_csr.indices)
    # Nine columns: two bytes a row, whatever the row holds.
    assert pattern.bits.shape == (small_csr.n_rows, 2)
    rows = np.array([3, 0, 7])
    subset, expected = pattern.select_rows(rows), small_csr.select_rows(rows)
    assert isinstance(subset, SparsityPattern)
    np.testing.assert_array_equal(subset.indptr, expected.indptr)
    np.testing.assert_array_equal(pattern_indices(subset), expected.indices)


def test_pattern_rejects_every_value_read(small_csr):
    # A CSR always holds values; a pattern has nothing to hold or read one.
    with pytest.raises(ValueError, match="same length"):
        CSRMatrix(
            shape=small_csr.shape, indptr=small_csr.indptr, indices=small_csr.indices, data=None
        )
    pattern = pattern_of(small_csr)
    for name in ("data", "to_dense", "matmul_dense", "row"):
        assert not hasattr(pattern, name)


def test_pattern_bits_must_match_indptr(small_csr):
    pattern = pattern_of(small_csr)
    shifted = pattern.indptr.copy()
    shifted[1:] += 1
    with pytest.raises(ValueError, match="set bits"):
        SparsityPattern(shape=pattern.shape, indptr=shifted, bits=pattern.bits)
    with pytest.raises(ValueError, match="shape"):
        SparsityPattern(shape=(12, 17), indptr=pattern.indptr, bits=pattern.bits)
    # A set padding bit (past column 8) counted in indptr is still refused.
    bits = pattern.bits.copy()
    bits[0, 1] |= 0x01
    padded = pattern.indptr.copy()
    padded[1:] += 1
    with pytest.raises(ValueError, match="padding"):
        SparsityPattern(shape=pattern.shape, indptr=padded, bits=bits)
