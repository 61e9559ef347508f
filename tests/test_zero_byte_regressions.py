"""Regression tests for zero-size accounting in occupied-tile enumeration.

Tile statistics have to treat an empty matrix as exactly zero work — no
phantom tile — because the vectorized accelerator loops feed them whole
arrays in which empty tiles and zero-nnz row slices are routine.
"""

import numpy as np

from repro.sparse.csr import CSRMatrix
from repro.sparse.tiling import occupied_tile_counts, tile_nnz_histogram, tile_statistics


def test_occupied_tile_counts_empty_matrix():
    # Regression: the empty matrix used to hit np.repeat with an empty
    # row_nnz and return ill-typed arrays; it must yield two empty int64
    # arrays without materialising the (possibly huge) grid.
    matrix = CSRMatrix.empty((1000, 1000))
    tile_ids, counts = occupied_tile_counts(matrix, 16, 16)
    assert tile_ids.size == 0 and counts.size == 0
    assert tile_ids.dtype == np.int64 and counts.dtype == np.int64


def test_tile_stats_and_histogram_empty_matrix():
    matrix = CSRMatrix.empty((64, 64))
    assert tile_nnz_histogram(matrix, 16, 16) == {}
    stats = tile_statistics(matrix, 16, 16)
    assert (stats.num_tiles, stats.total_nnz, stats.total_distinct_cols) == (0, 0, 0)


def test_occupied_tiles_match_dense_reference():
    rng = np.random.default_rng(0)
    dense = (rng.random((37, 53)) < 0.05).astype(np.float64)
    matrix = CSRMatrix.from_dense(dense)
    tile_ids, counts = occupied_tile_counts(matrix, 8, 8)
    # Reference: count non-zeros per tile straight off the dense array.
    grid_cols = (53 + 7) // 8
    expected = {}
    for r, c in zip(*np.nonzero(dense)):
        flat = (r // 8) * grid_cols + (c // 8)
        expected[flat] = expected.get(flat, 0) + 1
    assert dict(zip(tile_ids.tolist(), counts.tolist())) == expected
    assert np.all(np.diff(tile_ids) > 0)  # ascending row-major order
