"""Unit tests for the row-stationary dataflow."""

from unittest import mock

import numpy as np
import pytest

from repro.core.hdn_profile import ClusterStream
from repro.sparse import blocks
from repro.sparse.convert import dense_to_csr

from oracles import row_stationary_execute, row_stationary_execute_multi_row, spmm_gustavson


@pytest.fixture
def operands(rng):
    lhs = (rng.random((20, 14)) < 0.25) * rng.standard_normal((20, 14))
    rhs = rng.standard_normal((14, 6))
    return dense_to_csr(lhs), rhs, lhs


def one_cluster_stream(sparse):
    """The row-stationary pass over the whole matrix as one cluster."""
    rows = np.arange(sparse.n_rows)
    return ClusterStream.of(sparse, np.zeros_like(rows), [rows])


def gathered(stream, cluster):
    """A cluster's streamed columns and touched rows' lengths, its row blocks
    gathered one at a time and concatenated."""
    cols, lengths = [np.empty(0, dtype=np.int64)], [np.empty(0, dtype=np.int64)]
    for block, row_starts in stream.blocks(cluster):
        cols.append(block)
        lengths.append(np.diff(row_starts, append=block.size))
    return np.concatenate(cols), np.concatenate(lengths)


#: Block sizes the stream is gathered at: one entry, a few rows, one block.
BLOCK_SIZES = (1, 7, 4096)


def test_trace_covers_every_nnz(operands):
    sparse, _rhs, _lhs = operands
    stream = one_cluster_stream(sparse)
    np.testing.assert_array_equal(stream.nnz_bounds, [0, sparse.nnz])
    np.testing.assert_array_equal(stream.row_bounds, [0, sparse.n_rows])
    np.testing.assert_array_equal(np.diff(stream.offsets), sparse.row_nnz()[stream.rows])
    for block_entries in BLOCK_SIZES:
        with mock.patch.object(blocks, "BLOCK_ENTRIES", block_entries):
            _cols, row_nnz = gathered(stream, 0)
        np.testing.assert_array_equal(row_nnz, sparse.row_nnz()[sparse.row_nnz() > 0])


def test_trace_streaming_order_is_row_major(operands):
    sparse, _rhs, _lhs = operands
    parity = np.arange(sparse.n_rows) % 2
    clusters = [np.flatnonzero(parity == 1), np.flatnonzero(parity == 0)]
    stream = ClusterStream.of(sparse, parity, clusters)
    for cluster, rows in enumerate(clusters):
        expected = np.concatenate([sparse.row(int(row))[0] for row in rows])
        assert stream.nnz_bounds[cluster + 1] - stream.nnz_bounds[cluster] == expected.size
        for block_entries in BLOCK_SIZES:
            with mock.patch.object(blocks, "BLOCK_ENTRIES", block_entries):
                np.testing.assert_array_equal(gathered(stream, cluster)[0], expected)


def test_trace_columns_match_matrix(operands):
    sparse, _rhs, _lhs = operands
    for block_entries in BLOCK_SIZES:
        with mock.patch.object(blocks, "BLOCK_ENTRIES", block_entries):
            columns = gathered(one_cluster_stream(sparse), 0)[0]
        np.testing.assert_array_equal(columns, sparse.indices)


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
