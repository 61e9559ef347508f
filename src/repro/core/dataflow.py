"""Row-stationary (Gustavson) dataflow.

The heart of GROW: every non-zero ``A[i, k]`` of the sparse LHS scales RHS
row ``k`` and accumulates into output row ``i``; the LHS row and the output
row stay stationary while the RHS rows stream by (paper Figure 9).  The
dataflow emits a :class:`RowTrace` — the per-row reference pattern the
simulator's cache and runahead models consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.csr import CSRMatrix


@dataclass
class RowTrace:
    """Reference trace of a row-stationary pass over a sparse LHS matrix.

    Attributes:
        row_of_nnz: output-row id of every non-zero, in streaming order.
        col_of_nnz: RHS row id requested by every non-zero, in streaming order.
        row_nnz: non-zeros per output row.
    """

    row_of_nnz: np.ndarray
    col_of_nnz: np.ndarray
    row_nnz: np.ndarray

    @property
    def num_rows(self) -> int:
        return int(self.row_nnz.size)

    @property
    def nnz(self) -> int:
        return int(self.col_of_nnz.size)


class RowStationaryDataflow:
    """Trace extraction of the row-wise product."""

    @staticmethod
    def trace(sparse: CSRMatrix) -> RowTrace:
        """Build the streaming reference trace of a sparse LHS matrix."""
        row_nnz = sparse.row_nnz()
        row_of_nnz = np.repeat(np.arange(sparse.n_rows), row_nnz)
        return RowTrace(row_of_nnz=row_of_nnz, col_of_nnz=sparse.indices.copy(), row_nnz=row_nnz)
