"""Conversions between the sparse-matrix formats.

COO to CSR deduplicates coincident coordinates by summation.
"""

from __future__ import annotations

import numpy as np

from repro.sparse.coo import COOMatrix
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


def csr_to_coo(csr: CSRMatrix) -> COOMatrix:
    """Convert a CSR matrix to COO."""
    row_ids = np.repeat(np.arange(csr.n_rows), csr.row_nnz())
    return COOMatrix(shape=csr.shape, rows=row_ids, cols=csr.indices.copy(), vals=csr.data.copy())


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
