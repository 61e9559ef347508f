"""Unit tests for the row-stationary dataflow."""

import numpy as np
import pytest

from repro.core.dataflow import RowStationaryDataflow
from repro.sparse.convert import dense_to_csr

from oracles import row_stationary_execute, row_stationary_execute_multi_row, spmm_gustavson


@pytest.fixture
def operands(rng):
    lhs = (rng.random((20, 14)) < 0.25) * rng.standard_normal((20, 14))
    rhs = rng.standard_normal((14, 6))
    return dense_to_csr(lhs), rhs, lhs


def test_trace_covers_every_nnz(operands):
    sparse, _rhs, _lhs = operands
    trace = RowStationaryDataflow.trace(sparse)
    assert trace.nnz == sparse.nnz
    assert trace.num_rows == sparse.n_rows
    np.testing.assert_array_equal(trace.row_nnz, sparse.row_nnz())


def test_trace_streaming_order_is_row_major(operands):
    sparse, _rhs, _lhs = operands
    trace = RowStationaryDataflow.trace(sparse)
    assert np.all(np.diff(trace.row_of_nnz) >= 0)


def test_trace_columns_match_matrix(operands):
    sparse, _rhs, _lhs = operands
    trace = RowStationaryDataflow.trace(sparse)
    np.testing.assert_array_equal(trace.col_of_nnz, sparse.indices)


def test_execute_matches_reference(operands):
    sparse, rhs, lhs = operands
    np.testing.assert_allclose(row_stationary_execute(sparse, rhs), lhs @ rhs)


def test_execute_matches_gustavson_kernel(operands):
    sparse, rhs, _lhs = operands
    np.testing.assert_allclose(row_stationary_execute(sparse, rhs), spmm_gustavson(sparse, rhs))


@pytest.mark.parametrize("window", [1, 3, 8, 64])
def test_multi_row_window_does_not_change_results(operands, window):
    sparse, rhs, lhs = operands
    np.testing.assert_allclose(row_stationary_execute_multi_row(sparse, rhs, window), lhs @ rhs)


def test_multi_row_invalid_window(operands):
    sparse, rhs, _ = operands
    with pytest.raises(ValueError):
        row_stationary_execute_multi_row(sparse, rhs, 0)


def test_execute_dimension_mismatch(operands, rng):
    sparse, _rhs, _ = operands
    with pytest.raises(ValueError):
        row_stationary_execute(sparse, rng.standard_normal((3, 3)))
