"""Sparse-matrix substrate.

This package provides the compressed sparse formats used by the paper's
accelerators (COO and CSR) and the conversions between them, the bit-packed
sparsity pattern of a matrix whose values no simulator reads, the tile
statistics used by the GCNAX baseline and the Figure 5/6
characterisation, the sorted-unique helpers the engine layers use in
place of ``np.unique``, and the row-block iterator of the passes whose
scratch stays block-sized.
"""

from repro.sparse.blocks import row_blocks
from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.convert import coo_to_csr, csr_to_coo, dense_to_csr
from repro.sparse.pattern import PatternValuesError, SparsityPattern
from repro.sparse.tiling import (
    TileStatistics,
    tile_grid_shape,
    tile_nnz_histogram,
    tile_statistics,
)
from repro.sparse.unique import sorted_unique, unique_in_place

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "PatternValuesError",
    "SparsityPattern",
    "coo_to_csr",
    "csr_to_coo",
    "dense_to_csr",
    "TileStatistics",
    "tile_grid_shape",
    "tile_nnz_histogram",
    "tile_statistics",
    "row_blocks",
    "sorted_unique",
    "unique_in_place",
]
