"""Conversions between the sparse-matrix formats.

All converters deduplicate coincident coordinates by summation, matching the
semantics of scipy's sparse constructors.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.csr import CSRMatrix


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert a COO matrix to CSR, summing duplicates and sorting columns."""
    # deduplicate() returns entries sorted row-major (ascending row, then
    # ascending column), which is exactly CSR order — no further sort needed.
    coo = coo.deduplicate()
    n_rows, n_cols = coo.shape
    counts = np.bincount(coo.rows, minlength=n_rows)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRMatrix(shape=coo.shape, indptr=indptr, indices=coo.cols.copy(), data=coo.vals.copy())


def coo_to_csc(coo: COOMatrix) -> CSCMatrix:
    """Convert a COO matrix to CSC, summing duplicates and sorting rows."""
    coo = coo.deduplicate()
    n_rows, n_cols = coo.shape
    order = np.lexsort((coo.rows, coo.cols))
    rows = coo.rows[order]
    cols = coo.cols[order]
    vals = coo.vals[order]
    counts = np.bincount(cols, minlength=n_cols)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSCMatrix(shape=coo.shape, indptr=indptr, indices=rows, data=vals)


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Convert a CSR matrix to COO."""
    row_ids = np.repeat(np.arange(csr.n_rows), csr.row_nnz())
    return COOMatrix(shape=csr.shape, rows=row_ids, cols=csr.indices.copy(), vals=csr.data.copy())


def csc_to_coo(csc: CSCMatrix) -> COOMatrix:
    """Convert a CSC matrix to COO."""
    col_ids = np.repeat(np.arange(csc.n_cols), csc.col_nnz())
    return COOMatrix(shape=csc.shape, rows=csc.indices.copy(), cols=col_ids, vals=csc.data.copy())


def csr_to_csc(csr: CSRMatrix) -> CSCMatrix:
    """Convert a CSR matrix to CSC."""
    return coo_to_csc(csr_to_coo(csr))


def csc_to_csr(csc: CSCMatrix) -> CSRMatrix:
    """Convert a CSC matrix to CSR."""
    return coo_to_csr(csc_to_coo(csc))


def dense_to_csr(dense: np.ndarray) -> CSRMatrix:
    """Build a CSR matrix from a dense 2-D array."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("dense_to_csr expects a 2-D array")
    # Flat non-zero positions are already in row-major order with no
    # duplicates, which is CSR order: going through COO + deduplicate would
    # round-trip the same arrays.  Working on the flattened array needs one
    # scan plus one 1-D gather, cheaper than ``np.nonzero`` building both
    # coordinate arrays and a 2-D fancy index recombining them.
    flat = np.flatnonzero(dense)
    n_rows, n_cols = dense.shape
    # ``flat`` is sorted, so each row's slice is bounded by where the row's
    # first flat index would insert — one binary search per row instead of a
    # full O(nnz) row-id materialisation and bincount.
    indptr = np.searchsorted(flat, np.arange(n_rows + 1) * n_cols)
    data = dense.reshape(-1)[flat]
    # ``flat`` is ours: its buffer becomes the column indices in place.
    return CSRMatrix(
        shape=dense.shape,
        indptr=indptr,
        indices=np.remainder(flat, n_cols, out=flat),
        data=data,
    )


def from_scipy(matrix) -> CSRMatrix:
    """Build a :class:`CSRMatrix` from any scipy sparse matrix."""
    csr = matrix.tocsr()
    return CSRMatrix(
        shape=csr.shape,
        indptr=np.asarray(csr.indptr, dtype=np.int64),
        indices=np.asarray(csr.indices, dtype=np.int64),
        data=np.asarray(csr.data, dtype=np.float64),
    )


def to_scipy_csr(csr: CSRMatrix):
    """Convert a :class:`CSRMatrix` to a scipy ``csr_matrix``."""
    from scipy import sparse

    return sparse.csr_matrix((csr.data, csr.indices, csr.indptr), shape=csr.shape)
