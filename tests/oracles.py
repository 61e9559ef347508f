"""Functional references the tests compare against.

The simulators price a dataflow from shapes and sparsity alone; they never
compute the product.  These kernels do, one per dataflow the paper
contrasts, so tests can check that each loop order gives the same answer:

* inner product  — output-stationary dot products (AWB-GCN),
* outer product  — column-of-LHS times row-of-RHS rank-1 updates (GCNAX),
* row-wise / Gustavson product — one LHS row scales several RHS rows (GROW,
  MatRaptor, GAMMA), plus GROW's multi-row-stationary window.

The GCN references compute ``sigma(A (X W))`` straight from numpy.
"""

from __future__ import annotations

import numpy as np

from repro.gcn.layer import GCNLayer
from repro.sparse.csr import CSRMatrix


def _checked_rhs(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    dense = np.asarray(dense, dtype=np.float64)
    if dense.shape[0] != sparse.n_cols:
        raise ValueError(
            f"dimension mismatch: sparse is {sparse.shape}, dense is {dense.shape}"
        )
    return dense


def spmm_reference(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Numpy reference result of ``sparse @ dense`` used as ground truth."""
    return sparse.matmul_dense(dense)


def spmm_gustavson(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Row-wise (Gustavson) product: GROW's dataflow.

    For every non-zero ``A[i, k]`` of the LHS row ``i``, the RHS row ``k`` is
    scaled and accumulated into output row ``i``.  Output rows are independent
    of each other, which is what enables GROW's multi-row runahead execution.
    """
    dense = _checked_rhs(sparse, dense)
    out = np.zeros((sparse.n_rows, dense.shape[1]), dtype=np.float64)
    for i, cols, vals in sparse.iter_rows():
        for k, a_ik in zip(cols, vals):
            out[i] += a_ik * dense[k]
    return out


def spmm_outer_product(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Outer product: GCNAX's dataflow.

    Column ``k`` of the LHS is multiplied with row ``k`` of the RHS to form a
    rank-1 contribution to the whole output; partial outputs from different
    ``k`` must be accumulated, which is why the outer-product dataflow keeps
    2-D output tiles resident on chip.  The columns are walked through one
    stable argsort of the CSR column indices, which keeps each column's rows
    ascending.
    """
    dense = _checked_rhs(sparse, dense)
    order = np.argsort(sparse.indices, kind="stable")
    row_ids = np.repeat(np.arange(sparse.n_rows), sparse.row_nnz())[order]
    vals = sparse.data[order]
    starts = np.searchsorted(sparse.indices[order], np.arange(sparse.n_cols + 1))
    out = np.zeros((sparse.n_rows, dense.shape[1]), dtype=np.float64)
    for k in range(sparse.n_cols):
        lo, hi = starts[k], starts[k + 1]
        if hi > lo:
            out[row_ids[lo:hi]] += np.outer(vals[lo:hi], dense[k])
    return out


def spmm_inner_product(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Inner product: AWB-GCN's dataflow.

    Every output element ``C[i, j]`` is produced by a full dot product of LHS
    row ``i`` with RHS column ``j``.
    """
    dense = _checked_rhs(sparse, dense)
    n_out_cols = dense.shape[1]
    out = np.zeros((sparse.n_rows, n_out_cols), dtype=np.float64)
    for i, cols, vals in sparse.iter_rows():
        if cols.size == 0:
            continue
        for j in range(n_out_cols):
            out[i, j] = float(np.dot(vals, dense[cols, j]))
    return out


def spmm_mac_count(sparse: CSRMatrix, dense_cols: int) -> int:
    """Number of effectual multiply-accumulate operations of ``sparse @ dense``.

    Every non-zero of the sparse matrix contributes one MAC per output column.
    This is the quantity Figure 2 of the paper compares across execution
    orders.
    """
    return sparse.nnz * int(dense_cols)


def row_stationary_execute(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """``sparse @ dense`` with the row-wise product, vectorised per row.

    Equivalent to :func:`spmm_gustavson`; each output row is one LHS row's
    values times the RHS rows its columns select.
    """
    return row_stationary_execute_multi_row(sparse, dense, window=1)


def row_stationary_execute_multi_row(
    sparse: CSRMatrix, dense: np.ndarray, window: int
) -> np.ndarray:
    """The row-wise product, processing ``window`` output rows at a time.

    Functionally identical to :func:`row_stationary_execute`: the
    multi-row-stationary window (runahead execution) changes scheduling,
    never results.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    dense = _checked_rhs(sparse, dense)
    out = np.zeros((sparse.n_rows, dense.shape[1]), dtype=np.float64)
    for start in range(0, sparse.n_rows, window):
        for i in range(start, min(start + window, sparse.n_rows)):
            cols, vals = sparse.row(i)
            if cols.size:
                out[i] = vals @ dense[cols]
    return out


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def gcn_layer_forward(
    adjacency: CSRMatrix,
    features: np.ndarray,
    weight: np.ndarray,
    apply_relu: bool = True,
) -> np.ndarray:
    """Reference single-layer forward pass ``sigma(A (X W))``."""
    xw = np.asarray(features, dtype=np.float64) @ np.asarray(weight, dtype=np.float64)
    out = adjacency.matmul_dense(xw)
    return relu(out) if apply_relu else out


def layer_output_reference(layer: GCNLayer) -> np.ndarray:
    """Reference output of one already-constructed layer."""
    return gcn_layer_forward(layer.adjacency, layer.features, layer.weight, layer.apply_relu)
