"""Unit tests for CSR construction, and for the COO reference's compression."""

import numpy as np
import pytest

from repro.sparse.convert import dense_to_csr

from oracles import COOMatrix, coo_to_csr


def test_coo_to_csr_and_back(small_dense):
    coo = COOMatrix.from_dense(small_dense)
    csr = coo_to_csr(coo)
    np.testing.assert_allclose(csr.to_dense(), small_dense)
    np.testing.assert_array_equal(csr.indptr, dense_to_csr(small_dense).indptr)


def test_csr_indices_sorted_within_rows(small_dense):
    csr = dense_to_csr(small_dense)
    for i in range(csr.n_rows):
        cols, _vals = csr.row(i)
        assert np.all(np.diff(cols) > 0)


def test_duplicates_summed_in_conversion():
    coo = COOMatrix(
        shape=(3, 3),
        rows=np.array([1, 1, 1]),
        cols=np.array([2, 2, 0]),
        vals=np.array([1.0, 2.0, 3.0]),
    )
    csr = coo_to_csr(coo)
    assert csr.nnz == 2
    assert csr.to_dense()[1, 2] == 3.0


def test_empty_conversion():
    coo = COOMatrix.empty((4, 5))
    assert coo_to_csr(coo).nnz == 0


@pytest.mark.parametrize("shape", [(1, 1), (1, 8), (8, 1), (13, 17)])
def test_conversion_preserves_shape(shape, rng):
    dense = (rng.random(shape) < 0.4) * rng.standard_normal(shape)
    csr = dense_to_csr(dense)
    assert csr.shape == shape
    np.testing.assert_array_equal(csr.to_dense(), dense)
