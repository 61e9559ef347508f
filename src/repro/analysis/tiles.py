"""Tile-occupancy and bandwidth-utilisation characterisation (Figures 5 and 6).

These helpers reproduce the two characterisation figures that motivate GROW:
how many non-zeros land in each GCNAX tile of the sparse matrices (Figure 5),
and how much of the DRAM traffic spent fetching those tiles is effectual under
a 64-byte minimum access granularity (Figure 6).
"""

from __future__ import annotations

from repro.accelerators.base import NNZ_BYTES
from repro.obs import trace
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.tiling import tile_nnz_histogram, tile_profile


def tile_nnz_bins(
    matrix: CSRMatrix | SparsityPattern,
    tile_rows: int = 32,
    tile_cols: int = 32,
    bin_edges: tuple[int, ...] = (1, 2, 8, 16),
) -> dict[str, float]:
    """Fraction of occupied tiles per non-zero-count bin (one Figure 5 bar)."""
    with trace.span(
        "analysis.tiling", nnz=matrix.nnz, tile_rows=tile_rows, tile_cols=tile_cols
    ):
        return tile_nnz_histogram(matrix, tile_rows, tile_cols, bin_edges=bin_edges)


def effective_bandwidth_utilization(
    matrix: CSRMatrix | SparsityPattern,
    tile_rows: int = 32,
    tile_cols: int = 32,
    access_granularity: int = 64,
) -> float:
    """Effectual fraction of the bytes GCNAX's tiled fetch reads for a matrix.

    Every occupied tile is fetched as at least one DRAM line; the effectual
    bytes are the tile's non-zeros (value + index).  This is how the paper
    measures the Figure 6 utilisation.  Read from the matrix's memoised
    tile profile, the one GCNAX prices it by.
    """
    with trace.span(
        "analysis.tiling", nnz=matrix.nnz, tile_rows=tile_rows, tile_cols=tile_cols
    ):
        profile = tile_profile(matrix, tile_rows, tile_cols)
    transferred = profile.fetched_bytes(NNZ_BYTES, access_granularity)
    if transferred == 0:
        return 0.0
    return min(1.0, profile.total_nnz * NNZ_BYTES / transferred)
