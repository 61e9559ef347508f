"""Bandwidth-utilisation characterisation (Figure 6).

How much of the DRAM traffic GCNAX spends fetching the tiles of the sparse
matrices is effectual under a 64-byte minimum access granularity, one of the
characterisation figures that motivate GROW.  (Figure 5's tile occupancy is
:func:`repro.sparse.tiling.tile_nnz_histogram`.)
"""

from __future__ import annotations

from repro.accelerators.base import NNZ_BYTES
from repro.obs import trace
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.tiling import tile_profile


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
