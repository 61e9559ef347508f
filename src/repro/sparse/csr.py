"""Compressed sparse row (CSR) matrix container.

CSR is the format GROW uses for the left-hand-side sparse matrices (A and X):
all non-zeros of consecutive rows are packed densely, which is what gives the
row-wise product dataflow its high effective memory-bandwidth utilisation
(paper Section V-B, Figure 10).  Structure without values is a
:class:`~repro.sparse.pattern.SparsityPattern`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.sparse.tiling import TileProfile


@dataclass
class CSRMatrix:
    """A sparse matrix in compressed sparse row format.

    Attributes:
        shape: ``(n_rows, n_cols)``.
        indptr: array of length ``n_rows + 1``; row ``i`` owns the non-zeros
            in the half-open slice ``[indptr[i], indptr[i + 1])``.
        indices: column index of each stored non-zero.
        data: value of each stored non-zero (a binary matrix's may be a
            read-only zero-stride view of one 1.0, as a graph's adjacency is).

    A CSR's arrays are never modified after construction: what is derived
    from them may be memoised on the matrix, as GCNAX's tile profiles are
    (:func:`repro.sparse.tiling.tile_profile`), and lives as long as it.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    _tile_profiles: dict[tuple[int, int], "TileProfile"] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.data = np.asarray(self.data, dtype=np.float64)
        n_rows, n_cols = self.shape
        if self.indptr.size != n_rows + 1:
            raise ValueError(
                f"indptr must have length n_rows + 1 = {n_rows + 1}, got {self.indptr.size}"
            )
        if self.indptr[0] != 0 or self.indptr[-1] != self.indices.size:
            raise ValueError("indptr must start at 0 and end at nnz")
        if np.any(np.diff(self.indptr) < 0):
            raise ValueError("indptr must be non-decreasing")
        if self.indices.shape != self.data.shape:
            raise ValueError("indices and data must have the same length")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n_cols):
            raise ValueError("column index out of bounds")

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.indices.size)

    @property
    def n_rows(self) -> int:
        return self.shape[0]

    @property
    def n_cols(self) -> int:
        return self.shape[1]

    @property
    def density(self) -> float:
        """Fraction of matrix cells that are non-zero."""
        total = self.shape[0] * self.shape[1]
        if total == 0:
            return 0.0
        return self.nnz / total

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "CSRMatrix":
        """Create an all-zero matrix of the given shape."""
        return cls(
            shape=shape,
            indptr=np.zeros(shape[0] + 1, dtype=np.int64),
            indices=np.empty(0, dtype=np.int64),
            data=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "CSRMatrix":
        """Build a CSR matrix from a dense 2-D array."""
        from repro.sparse.convert import dense_to_csr

        return dense_to_csr(dense)

    def row_nnz(self) -> np.ndarray:
        """Number of non-zeros in each row (node degrees for an adjacency matrix)."""
        return np.diff(self.indptr)

    def row(self, i: int) -> tuple[np.ndarray, np.ndarray]:
        """Return ``(column_indices, values)`` of row ``i``."""
        if not 0 <= i < self.n_rows:
            raise IndexError(f"row index {i} out of range [0, {self.n_rows})")
        start, end = self.indptr[i], self.indptr[i + 1]
        return self.indices[start:end], self.data[start:end]

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense 2-D array."""
        dense = np.zeros(self.shape, dtype=np.float64)
        row_ids = np.repeat(np.arange(self.n_rows), self.row_nnz())
        np.add.at(dense, (row_ids, self.indices), self.data)
        return dense

    def matmul_dense(self, dense: np.ndarray) -> np.ndarray:
        """Multiply this sparse matrix by a dense matrix (reference kernel)."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.shape[0] != self.n_cols:
            raise ValueError(
                f"dimension mismatch: sparse is {self.shape}, dense is {dense.shape}"
            )
        if self.nnz == 0:
            return np.zeros((self.n_rows, dense.shape[1]), dtype=np.float64)
        out = np.zeros((self.n_rows, dense.shape[1]), dtype=np.float64)
        row_nnz = self.row_nnz()
        nonempty = np.flatnonzero(row_nnz)
        products = self.data[:, None] * dense[self.indices]
        out[nonempty] = np.add.reduceat(products, self.indptr[nonempty], axis=0)
        return out

    def select_rows(self, row_ids: np.ndarray) -> "CSRMatrix":
        """Return a new CSR matrix of the given rows, in order."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        counts = self.row_nnz()[row_ids]
        indptr = np.concatenate([[0], np.cumsum(counts)])
        total = int(indptr[-1])
        if total == 0:
            take = np.empty(0, dtype=np.int64)
        else:
            # One fancy-index gathers every selected row's slice: an arange
            # shifted, per row, from the output offset to the source offset.
            take = np.repeat(self.indptr[row_ids] - indptr[:-1], counts)
            take += np.arange(total)
        return CSRMatrix(
            shape=(row_ids.size, self.n_cols),
            indptr=indptr,
            indices=self.indices[take],
            data=self.data[take],
        )
