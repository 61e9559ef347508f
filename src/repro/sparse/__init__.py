"""Sparse-matrix substrate.

This package provides the compressed sparse format the paper's
accelerators stream (CSR) and its construction from a dense array, the
bit-packed sparsity pattern of a matrix whose values no simulator reads,
the tile statistics and memoised tile profile that GCNAX and the Figure
5/6 characterisation read, the sorted-unique helpers the engine layers
use in place of ``np.unique``, and the row-block iterator of the passes
whose scratch stays block-sized.
"""

from repro.sparse.blocks import row_blocks
from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import dense_to_csr
from repro.sparse.pattern import PatternValuesError, SparsityPattern
from repro.sparse.tiling import (
    TileStatistics,
    tile_grid_shape,
    tile_nnz_histogram,
    tile_statistics,
)
from repro.sparse.unique import sorted_unique, unique_in_place

__all__ = [
    "CSRMatrix",
    "PatternValuesError",
    "SparsityPattern",
    "dense_to_csr",
    "TileStatistics",
    "tile_grid_shape",
    "tile_nnz_histogram",
    "tile_statistics",
    "row_blocks",
    "sorted_unique",
    "unique_in_place",
]
