"""Sparse-matrix substrate.

This package provides the compressed sparse formats used by the paper's
accelerators (COO, CSR, CSC), conversions between them, reference
sparse-dense matrix-multiplication kernels in the three dataflows the paper
discusses (inner product, outer product, row-wise / Gustavson product),
the tile statistics used by the GCNAX baseline and the Figure 5/6
characterisation, and the sorted-unique helper the engine layers use in
place of ``np.unique``.
"""

from repro.sparse.coo import COOMatrix
from repro.sparse.csr import CSRMatrix
from repro.sparse.csc import CSCMatrix
from repro.sparse.convert import (
    coo_to_csc,
    coo_to_csr,
    csc_to_coo,
    csc_to_csr,
    csr_to_coo,
    csr_to_csc,
    dense_to_csr,
    from_scipy,
    to_scipy_csr,
)
from repro.sparse.ops import (
    spmm_gustavson,
    spmm_inner_product,
    spmm_outer_product,
    spmm_reference,
)
from repro.sparse.tiling import (
    Tile,
    TileStatistics,
    iter_tiles,
    tile_grid_shape,
    tile_nnz_histogram,
    tile_statistics,
)
from repro.sparse.unique import sorted_unique

__all__ = [
    "COOMatrix",
    "CSRMatrix",
    "CSCMatrix",
    "coo_to_csr",
    "coo_to_csc",
    "csr_to_coo",
    "csr_to_csc",
    "csc_to_coo",
    "csc_to_csr",
    "dense_to_csr",
    "from_scipy",
    "to_scipy_csr",
    "spmm_reference",
    "spmm_gustavson",
    "spmm_inner_product",
    "spmm_outer_product",
    "Tile",
    "TileStatistics",
    "iter_tiles",
    "tile_grid_shape",
    "tile_nnz_histogram",
    "tile_statistics",
    "sorted_unique",
]
