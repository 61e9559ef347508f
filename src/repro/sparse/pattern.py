"""Sparsity patterns: where a matrix's non-zeros are, one bit per cell.

GROW's combination phase streams the feature matrix X row by row, so the
simulators read X's per-row non-zero counts; only GCNAX's tile statistics
read where the non-zeros are, and nothing reads what they hold.  A
:class:`SparsityPattern` keeps exactly that: ``indptr`` and the cells
packed one bit each, ``ceil(F / 8)`` bytes a row, where a CSR's int64
column indices take 8 bytes per non-zero.  The tile statistics unpack the
bits one block of rows at a time; no column index array is ever kept.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:
    from repro.sparse.tiling import TileProfile


class PatternValuesError(ValueError):
    """A value was read from a sparsity pattern, which stores none."""


#: Set bits in each byte value.
_BYTE_POPCOUNT = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1).sum(
    axis=1, dtype=np.uint8
)


@dataclass(eq=False)
class SparsityPattern:
    """A matrix's sparsity structure without its values.

    Attributes:
        shape: ``(n_rows, n_cols)``.
        indptr: array of length ``n_rows + 1``; row ``i`` holds
            ``indptr[i + 1] - indptr[i]`` non-zeros.
        bits: ``(n_rows, ceil(n_cols / 8))`` ``uint8``: row ``i``'s cells
            as ``np.packbits`` packs a boolean row, padding bits clear.

    A pattern is never modified after construction: GCNAX's tile profiles
    are memoised on it (:func:`repro.sparse.tiling.tile_profile`), as on a
    :class:`~repro.sparse.csr.CSRMatrix`.
    """

    shape: tuple[int, int]
    indptr: np.ndarray
    bits: np.ndarray
    _tile_profiles: dict[tuple[int, int], "TileProfile"] = field(
        default_factory=dict, init=False, repr=False
    )

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.bits = np.asarray(self.bits, dtype=np.uint8)
        n_rows, n_cols = self.shape
        if self.indptr.size != n_rows + 1:
            raise ValueError(
                f"indptr must have length n_rows + 1 = {n_rows + 1}, got {self.indptr.size}"
            )
        if self.bits.shape != (n_rows, (n_cols + 7) // 8):
            raise ValueError(
                f"bits must have shape {(n_rows, (n_cols + 7) // 8)}, got {self.bits.shape}"
            )
        if self.indptr[0] != 0:
            raise ValueError("indptr must start at 0")
        # Each row's set bits, padding included, are its non-zeros: this
        # also proves indptr non-decreasing and every set bit a column.
        row_bits = _BYTE_POPCOUNT[self.bits].sum(axis=1, dtype=np.int64)
        if not np.array_equal(row_bits, np.diff(self.indptr)):
            raise ValueError("indptr must count each row's set bits")
        if n_cols % 8 and (self.bits[:, -1] & (0xFF >> n_cols % 8)).any():
            raise ValueError("padding bits past the last column must be clear")

    @property
    def nnz(self) -> int:
        """Number of non-zero cells."""
        return int(self.indptr[-1])

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

    def row_nnz(self) -> np.ndarray:
        """Number of non-zeros in each row."""
        return np.diff(self.indptr)

    def select_rows(self, row_ids: np.ndarray) -> "SparsityPattern":
        """The pattern of the given rows, in order."""
        row_ids = np.asarray(row_ids, dtype=np.int64)
        indptr = np.zeros(row_ids.size + 1, dtype=np.int64)
        np.cumsum(self.row_nnz()[row_ids], out=indptr[1:])
        return SparsityPattern(shape=(row_ids.size, self.n_cols), indptr=indptr, bits=self.bits[row_ids])
