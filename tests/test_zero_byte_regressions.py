"""Regression tests for zero-size accounting in occupied-tile enumeration.

Tile statistics and tile profiles have to treat an empty matrix as exactly
zero work — no phantom tile — because the vectorized accelerator loops feed
them whole arrays in which empty tiles and zero-nnz row slices are routine.
"""

import numpy as np

from repro.accelerators.base import AcceleratorConfig
from repro.accelerators.gcnax import GCNAXConfig, GCNAXSimulator
from repro.accelerators.workload import SpDeGemmPhase
from repro.obs import metrics
from repro.sparse.csr import CSRMatrix
from repro.sparse.tiling import tile_nnz_histogram, tile_profile, tile_statistics


def test_occupied_tile_counts_empty_matrix():
    # Regression: the empty matrix used to hit np.repeat with an empty
    # row_nnz and return ill-typed arrays; it must yield empty int64
    # arrays without materialising the (possibly huge) grid.
    matrix = CSRMatrix.empty((1000, 1000))
    stats = tile_statistics(matrix, 16, 16)
    assert stats.tile_ids.size == 0 and stats.nnz_per_tile.size == 0
    assert stats.tile_ids.dtype == np.int64 and stats.nnz_per_tile.dtype == np.int64


def test_tile_stats_and_histogram_empty_matrix():
    matrix = CSRMatrix.empty((64, 64))
    assert tile_nnz_histogram(matrix, 16, 16) == {}
    stats = tile_statistics(matrix, 16, 16)
    assert (stats.num_tiles, stats.total_nnz, stats.total_distinct_cols) == (0, 0, 0)


def test_occupied_tiles_match_dense_reference():
    rng = np.random.default_rng(0)
    dense = (rng.random((37, 53)) < 0.05).astype(np.float64)
    matrix = CSRMatrix.from_dense(dense)
    stats = tile_statistics(matrix, 8, 8)
    tile_ids, counts = stats.tile_ids, stats.nnz_per_tile
    # Reference: count non-zeros per tile straight off the dense array.
    grid_cols = (53 + 7) // 8
    expected = {}
    for r, c in zip(*np.nonzero(dense)):
        flat = (r // 8) * grid_cols + (c // 8)
        expected[flat] = expected.get(flat, 0) + 1
    assert dict(zip(tile_ids.tolist(), counts.tolist())) == expected
    assert np.all(np.diff(tile_ids) > 0)  # ascending row-major order


def test_tile_profile_of_an_empty_matrix_is_all_zeros():
    profile = tile_profile(CSRMatrix.empty((64, 64)), 16, 16)
    assert (profile.num_tiles, profile.total_nnz, profile.total_distinct_cols) == (0, 0, 0)
    assert not profile.tiles_with_nnz.any()


def test_gcnax_prices_an_empty_lhs_at_zero_sparse_bytes():
    phase = SpDeGemmPhase("aggregation", CSRMatrix.empty((64, 64)), dense_shape=(64, 8))
    stats = GCNAXSimulator().run_phase(phase)
    assert stats.sram_access_bytes["sparse_buffer"] == 0
    assert stats.requested_read_bytes == 0
    assert stats.dram_read_bytes == 0
    assert stats.stall_cycles == 0.0
    assert stats.extra["occupied_tiles"] == 0.0
    assert stats.extra["mean_nnz_per_tile"] == 0.0


def test_tile_profiles_are_memoised_on_the_matrix_by_tile_shape():
    matrix = CSRMatrix.from_dense(np.eye(8))
    phase = SpDeGemmPhase("aggregation", matrix, dense_shape=(8, 4))
    with metrics.scoped() as recorded:
        first = tile_profile(matrix, 4, 4)
        assert tile_profile(matrix, 4, 4) is first
        second = tile_profile(matrix, 4, 2)
        assert second is not first
        assert tile_profile(matrix, 4, 2) is second
        # A bandwidth sweep prices the memoised profile: no third build.
        for bandwidth in (16.0, 128.0, 512.0):
            arch = AcceleratorConfig(bandwidth_gbps=bandwidth)
            GCNAXSimulator(GCNAXConfig(arch=arch, tile_rows=4, tile_cols=4)).run_phase(phase)
    assert recorded["counters"]["gcnax.tile_profile.builds"] == 2
    assert (first.num_tiles, second.num_tiles) == (2, 4)
