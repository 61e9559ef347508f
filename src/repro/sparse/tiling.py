"""2-D tiling of sparse matrices, as used by the GCNAX baseline.

GCNAX partitions the sparse LHS matrix into rectangular tiles and fetches the
CSC-compressed non-zeros of one tile at a time (paper Figure 4).  The paper's
Figures 5 and 6 characterise how many non-zeros land in each tile and how much
of the fetched DRAM traffic is effectual; the helpers here produce exactly
those statistics.  GCNAX and both figures read a matrix's
:class:`TileProfile`, which no bandwidth or cache size changes and which is
built once per tile shape and memoised on the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.obs import metrics
from repro.sparse import blocks
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.unique import run_starts, sorted_unique


def tile_grid_shape(shape: tuple[int, int], tile_rows: int, tile_cols: int) -> tuple[int, int]:
    """Number of tiles along each dimension for a given tile size."""
    n_rows, n_cols = shape
    if tile_rows <= 0 or tile_cols <= 0:
        raise ValueError("tile dimensions must be positive")
    grid_rows = (n_rows + tile_rows - 1) // tile_rows
    grid_cols = (n_cols + tile_cols - 1) // tile_cols
    return grid_rows, grid_cols


@dataclass(frozen=True)
class TileStatistics:
    """Per-tile statistics of the occupied tiles of a sparse matrix.

    Attributes:
        tile_ids: row-major grid positions of the tiles holding at least one
            non-zero, ascending.
        nnz_per_tile: non-zeros in each occupied tile.
        distinct_cols_per_tile: distinct columns each occupied tile touches,
            i.e. the dense RHS rows GCNAX brings on chip for it.
    """

    tile_ids: np.ndarray
    nnz_per_tile: np.ndarray
    distinct_cols_per_tile: np.ndarray

    @property
    def num_tiles(self) -> int:
        return int(self.tile_ids.size)

    @property
    def total_nnz(self) -> int:
        return int(self.nnz_per_tile.sum())

    @property
    def total_distinct_cols(self) -> int:
        return int(self.distinct_cols_per_tile.sum())


def tile_statistics(
    matrix: CSRMatrix | SparsityPattern, tile_rows: int, tile_cols: int
) -> TileStatistics:
    """Occupied tiles, their non-zeros and their distinct columns, a strip block at a time.

    Tiles never span row strips, so the matrix is walked in blocks of whole
    strips (:func:`repro.sparse.blocks.row_blocks` over the strips' non-zero
    offsets; a strip with more than a block's entries is a block of its
    own) and the blocks' results concatenate in tile order.  In a block,
    the non-zeros are keyed by (row strip, column) and sorted once.  The
    distinct keys are the distinct (tile, column) pairs and their run
    lengths the non-zeros of each pair; the pairs' tile ids are
    non-decreasing, so runs of equal tile id give each tile's distinct
    columns and, summed, its non-zeros.  Never materialises the grid, nor
    an array as long as the matrix's non-zeros: a pattern's columns are
    unpacked one block of strips at a time.  An empty matrix yields empty
    arrays.
    """
    _grid_rows, grid_cols = tile_grid_shape(matrix.shape, tile_rows, tile_cols)
    n_rows, n_cols = matrix.shape
    strip_rows = np.append(np.arange(0, n_rows, tile_rows), n_rows)
    strip_indptr = matrix.indptr[strip_rows]
    empty = np.empty(0, dtype=np.int64)
    tile_ids, nnz_per_tile, distinct_cols = [empty], [empty], [empty]
    for lo, hi in blocks.row_blocks(strip_indptr):
        first, last = strip_rows[lo], strip_rows[hi]
        if isinstance(matrix, SparsityPattern):
            kept = np.unpackbits(matrix.bits[first:last], axis=1, count=n_cols).view(bool)
            cols = np.flatnonzero(kept) % n_cols
        else:
            cols = matrix.indices[matrix.indptr[first] : matrix.indptr[last]]
        strip = np.repeat(np.arange(lo, hi, dtype=np.int64), np.diff(strip_indptr[lo : hi + 1]))
        pairs, pair_nnz = sorted_unique(strip * n_cols + cols, return_counts=True)
        pair_tile = (pairs // n_cols) * grid_cols + (pairs % n_cols) // tile_cols
        starts = run_starts(pair_tile)
        tile_ids.append(pair_tile[starts])
        nnz_per_tile.append(np.add.reduceat(pair_nnz, starts))
        distinct_cols.append(np.diff(starts, append=pair_tile.size))
    return TileStatistics(
        tile_ids=np.concatenate(tile_ids),
        nnz_per_tile=np.concatenate(nnz_per_tile),
        distinct_cols_per_tile=np.concatenate(distinct_cols),
    )


@dataclass(frozen=True)
class TileProfile:
    """The totals and the tile-size histogram GCNAX prices a matrix by.

    Attributes:
        num_tiles: occupied tiles.
        total_nnz: non-zeros over all tiles.
        total_distinct_cols: distinct columns summed over the occupied tiles.
        tiles_with_nnz: ``tiles_with_nnz[k]`` occupied tiles hold exactly
            ``k`` non-zeros, for ``k`` up to the fullest tile's count: O(tile
            area) integers for a matrix without duplicate entries.
    """

    num_tiles: int
    total_nnz: int
    total_distinct_cols: int
    tiles_with_nnz: np.ndarray

    def fetched_bytes(self, entry_bytes: int, granularity: int) -> int:
        """DRAM bytes a tile-by-tile fetch moves: every occupied tile's
        ``entry_bytes`` per non-zero, rounded up to whole ``granularity``
        lines, at least one.  Exact: priced from the histogram in int64."""
        nnz_in_tile = np.arange(self.tiles_with_nnz.size, dtype=np.int64)
        lines = np.maximum(1, -(-nnz_in_tile * entry_bytes // granularity))
        return int(self.tiles_with_nnz @ lines) * granularity


def tile_profile(
    matrix: CSRMatrix | SparsityPattern, tile_rows: int, tile_cols: int
) -> TileProfile:
    """The :class:`TileProfile` of ``matrix`` at one tile shape.

    Built from :func:`tile_statistics` on first use and memoised on the
    matrix by ``(tile_rows, tile_cols)``, so it lives exactly as long as the
    matrix (whose arrays never change).  Every build counts into the
    ``gcnax.tile_profile.builds`` counter.
    """
    key = (tile_rows, tile_cols)
    profile = matrix._tile_profiles.get(key)
    if profile is None:
        stats = tile_statistics(matrix, tile_rows, tile_cols)
        profile = matrix._tile_profiles[key] = TileProfile(
            num_tiles=stats.num_tiles,
            total_nnz=stats.total_nnz,
            total_distinct_cols=stats.total_distinct_cols,
            tiles_with_nnz=np.bincount(stats.nnz_per_tile),
        )
        metrics.inc("gcnax.tile_profile.builds")
    return profile


def tile_nnz_histogram(
    matrix: CSRMatrix | SparsityPattern,
    tile_rows: int,
    tile_cols: int,
    bin_edges: tuple[int, ...] = (1, 2, 8, 16),
) -> dict[str, float]:
    """Fraction of non-empty tiles falling into non-zero-count bins.

    The default bins mirror the paper's Figure 5(a): exactly 1, exactly 2,
    3-8, 9-16, and more than 16 non-zeros per tile.  The returned dict maps a
    human-readable bin label to the fraction of non-empty tiles in that bin.
    """
    profile = tile_profile(matrix, tile_rows, tile_cols)
    if profile.num_tiles == 0:
        return {}
    # ``tiles_with_nnz[k]`` tiles hold exactly ``k`` non-zeros, so a bin's
    # tiles are one slice of the histogram.
    tiles = profile.tiles_with_nnz
    edges = list(bin_edges)
    labels: list[str] = []
    fractions: list[float] = []
    prev = 0
    for edge in edges:
        label = str(edge) if edge == prev + 1 else f"{prev + 1}~{edge}"
        labels.append(label)
        fractions.append(int(tiles[prev + 1 : edge + 1].sum()) / profile.num_tiles)
        prev = edge
    labels.append(f">{edges[-1]}")
    fractions.append(int(tiles[edges[-1] + 1 :].sum()) / profile.num_tiles)
    return dict(zip(labels, fractions))
