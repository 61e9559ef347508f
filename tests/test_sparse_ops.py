"""Unit tests for the reference SpMM dataflow kernels."""

import numpy as np
import pytest

from repro.sparse.convert import dense_to_csr

from oracles import (
    spmm_gustavson,
    spmm_inner_product,
    spmm_mac_count,
    spmm_outer_product,
    spmm_reference,
)


@pytest.fixture
def operands(rng):
    lhs = (rng.random((15, 11)) < 0.3) * rng.standard_normal((15, 11))
    rhs = rng.standard_normal((11, 7))
    return dense_to_csr(lhs), rhs, lhs


def test_reference_matches_numpy(operands):
    sparse, rhs, lhs_dense = operands
    np.testing.assert_allclose(spmm_reference(sparse, rhs), lhs_dense @ rhs)


def test_gustavson_matches_reference(operands):
    sparse, rhs, _ = operands
    np.testing.assert_allclose(spmm_gustavson(sparse, rhs), spmm_reference(sparse, rhs))


def test_outer_product_matches_reference(operands):
    sparse, rhs, _ = operands
    np.testing.assert_allclose(spmm_outer_product(sparse, rhs), spmm_reference(sparse, rhs))


def test_inner_product_matches_reference(operands):
    sparse, rhs, _ = operands
    np.testing.assert_allclose(spmm_inner_product(sparse, rhs), spmm_reference(sparse, rhs))


def test_all_dataflows_agree_on_empty_matrix(rng):
    sparse = dense_to_csr(np.zeros((6, 4)))
    rhs = rng.standard_normal((4, 3))
    expected = np.zeros((6, 3))
    np.testing.assert_allclose(spmm_gustavson(sparse, rhs), expected)
    np.testing.assert_allclose(spmm_outer_product(sparse, rhs), expected)
    np.testing.assert_allclose(spmm_inner_product(sparse, rhs), expected)


@pytest.mark.parametrize(
    "kernel", [spmm_gustavson, spmm_outer_product, spmm_inner_product, spmm_reference]
)
def test_dimension_mismatch_raises(kernel, operands, rng):
    sparse, _rhs, _ = operands
    with pytest.raises(ValueError):
        kernel(sparse, rng.standard_normal((sparse.n_cols + 2, 3)))


def test_mac_count():
    dense = np.zeros((4, 5))
    dense[0, 1] = 1.0
    dense[2, 3] = 2.0
    dense[3, 0] = 3.0
    sparse = dense_to_csr(dense)
    assert spmm_mac_count(sparse, dense_cols=8) == 3 * 8


def test_mac_count_zero_for_empty():
    sparse = dense_to_csr(np.zeros((3, 3)))
    assert spmm_mac_count(sparse, 10) == 0
