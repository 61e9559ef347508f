"""Unit tests for the COO container the adjacency references are built on."""

import numpy as np
import pytest

from oracles import COOMatrix


def test_from_dense_round_trip(small_dense):
    coo = COOMatrix.from_dense(small_dense)
    np.testing.assert_allclose(coo.to_dense(), small_dense)


def test_nnz_and_density(small_dense):
    coo = COOMatrix.from_dense(small_dense)
    assert coo.nnz == int((small_dense != 0).sum())
    assert coo.density == pytest.approx(coo.nnz / small_dense.size)


def test_empty_matrix():
    coo = COOMatrix.empty((5, 7))
    assert coo.nnz == 0
    assert coo.density == 0.0
    assert coo.to_dense().shape == (5, 7)
    assert not coo.to_dense().any()


def test_zero_sized_density():
    coo = COOMatrix.empty((0, 0))
    assert coo.density == 0.0


def test_mismatched_arrays_rejected():
    with pytest.raises(ValueError):
        COOMatrix(shape=(3, 3), rows=np.array([0, 1]), cols=np.array([0]), vals=np.array([1.0]))


def test_out_of_bounds_rejected():
    with pytest.raises(ValueError):
        COOMatrix(shape=(2, 2), rows=np.array([2]), cols=np.array([0]), vals=np.array([1.0]))
    with pytest.raises(ValueError):
        COOMatrix(shape=(2, 2), rows=np.array([0]), cols=np.array([-1]), vals=np.array([1.0]))


def test_duplicates_accumulate_in_to_dense():
    coo = COOMatrix(
        shape=(2, 2),
        rows=np.array([0, 0, 1]),
        cols=np.array([1, 1, 0]),
        vals=np.array([2.0, 3.0, 4.0]),
    )
    dense = coo.to_dense()
    assert dense[0, 1] == 5.0
    assert dense[1, 0] == 4.0


def test_deduplicate_sums_and_shrinks():
    coo = COOMatrix(
        shape=(3, 3),
        rows=np.array([0, 0, 2, 2]),
        cols=np.array([1, 1, 2, 2]),
        vals=np.array([1.0, 1.0, 5.0, -5.0]),
    )
    dedup = coo.deduplicate()
    assert dedup.nnz == 2
    assert dedup.to_dense()[0, 1] == 2.0
    assert dedup.to_dense()[2, 2] == 0.0


def test_transpose(small_dense):
    coo = COOMatrix.from_dense(small_dense)
    np.testing.assert_allclose(coo.transpose().to_dense(), small_dense.T)


def test_row_and_col_counts():
    dense = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 0.0], [3.0, 4.0, 5.0]])
    coo = COOMatrix.from_dense(dense)
    np.testing.assert_array_equal(coo.row_counts(), [2, 0, 3])
    np.testing.assert_array_equal(coo.col_counts(), [2, 1, 2])


def test_permute_rows_and_cols():
    dense = np.arange(9, dtype=float).reshape(3, 3)
    dense[dense == 0] = 10.0
    coo = COOMatrix.from_dense(dense)
    perm = np.array([2, 0, 1])
    permuted = coo.permute(row_perm=perm, col_perm=perm)
    expected = np.zeros_like(dense)
    for i in range(3):
        for j in range(3):
            expected[perm[i], perm[j]] = dense[i, j]
    np.testing.assert_allclose(permuted.to_dense(), expected)


def test_permute_identity_is_noop(small_dense):
    coo = COOMatrix.from_dense(small_dense)
    identity = np.arange(small_dense.shape[0])
    col_identity = np.arange(small_dense.shape[1])
    np.testing.assert_allclose(
        coo.permute(identity, col_identity).to_dense(), small_dense
    )


def test_equality_ignores_ordering(small_dense):
    coo = COOMatrix.from_dense(small_dense)
    order = np.argsort(-coo.vals, kind="stable")
    shuffled = COOMatrix(
        shape=coo.shape, rows=coo.rows[order], cols=coo.cols[order], vals=coo.vals[order]
    )
    assert coo == shuffled


def test_from_dense_rejects_non_2d():
    with pytest.raises(ValueError):
        COOMatrix.from_dense(np.zeros(4))
