"""Coordinate (COO) sparse-matrix container.

COO is the interchange format in this repository: graph generators emit edge
lists, which are COO matrices, and the compressed format (CSR) used by the
accelerator models can be built from COO.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.sparse.unique import run_starts


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate format.

    Attributes:
        shape: ``(n_rows, n_cols)`` of the logical matrix.
        rows: integer array of row indices, one per non-zero.
        cols: integer array of column indices, one per non-zero.
        vals: float array of non-zero values, aligned with ``rows``/``cols``.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError(
                "rows, cols and vals must have identical shapes, got "
                f"{self.rows.shape}, {self.cols.shape}, {self.vals.shape}"
            )
        n_rows, n_cols = self.shape
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= n_rows:
                raise ValueError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= n_cols:
                raise ValueError("column index out of bounds")

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.vals.size)

    @property
    def density(self) -> float:
        """Fraction of matrix cells that are non-zero."""
        n_rows, n_cols = self.shape
        total = n_rows * n_cols
        if total == 0:
            return 0.0
        return self.nnz / total

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        """Create an all-zero matrix of the given shape."""
        return cls(
            shape=shape,
            rows=np.empty(0, dtype=np.int64),
            cols=np.empty(0, dtype=np.int64),
            vals=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(shape=dense.shape, rows=rows, cols=cols, vals=dense[rows, cols])

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense 2-D array."""
        dense = np.zeros(self.shape, dtype=np.float64)
        # np.add.at handles duplicate coordinates by accumulation, matching
        # the usual sparse-matrix semantics.
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense

    def deduplicate(self) -> "COOMatrix":
        """Return a copy with duplicate coordinates summed."""
        if self.nnz == 0:
            return COOMatrix.empty(self.shape)
        n_rows, n_cols = self.shape
        keys = self.rows * n_cols + self.cols
        if keys.size == 1 or np.all(np.diff(keys) > 0):
            # Already sorted row-major with no duplicates (the common case for
            # matrices straight out of ``from_dense`` or a prior deduplicate):
            # sorting and summing would reproduce the input exactly.
            return COOMatrix(
                shape=self.shape,
                rows=self.rows.copy(),
                cols=self.cols.copy(),
                vals=self.vals.copy(),
            )
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = self.vals[order]
        # ``keys`` is sorted now, so the unique keys are the run starts: the
        # same (unique_keys, first-index) pair ``np.unique(keys,
        # return_index=True)`` computes, minus its internal re-sort.
        start = run_starts(keys)
        unique_keys = keys[start]
        summed = np.add.reduceat(vals, start)
        return COOMatrix(
            shape=self.shape,
            rows=unique_keys // n_cols,
            cols=unique_keys % n_cols,
            vals=summed,
        )

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (rows and columns swapped)."""
        return COOMatrix(
            shape=(self.shape[1], self.shape[0]),
            rows=self.cols.copy(),
            cols=self.rows.copy(),
            vals=self.vals.copy(),
        )

    def row_counts(self) -> np.ndarray:
        """Number of non-zero entries in each row."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(np.int64)

    def col_counts(self) -> np.ndarray:
        """Number of non-zero entries in each column."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(np.int64)

    def permute(self, row_perm: np.ndarray | None = None, col_perm: np.ndarray | None = None) -> "COOMatrix":
        """Relabel rows/columns according to permutations.

        ``row_perm[i]`` gives the new index of old row ``i`` (and likewise for
        columns).  This is the operation graph partitioning applies to the
        adjacency matrix: nodes are renumbered, values are unchanged.
        """
        rows = self.rows if row_perm is None else np.asarray(row_perm)[self.rows]
        cols = self.cols if col_perm is None else np.asarray(col_perm)[self.cols]
        return COOMatrix(shape=self.shape, rows=rows, cols=cols, vals=self.vals.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return np.array_equal(self.deduplicate().to_dense(), other.deduplicate().to_dense())
