"""Construction of a CSR matrix from a dense array."""

from __future__ import annotations

import numpy as np

from repro.sparse.csr import CSRMatrix


def dense_to_csr(dense: np.ndarray) -> CSRMatrix:
    """Build a CSR matrix from a dense 2-D array."""
    dense = np.asarray(dense, dtype=np.float64)
    if dense.ndim != 2:
        raise ValueError("dense_to_csr expects a 2-D array")
    # Flat non-zero positions are already in row-major order with no
    # duplicates, which is CSR order.  Working on the flattened array needs one
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
