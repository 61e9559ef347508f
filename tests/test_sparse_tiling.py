"""Unit tests for the 2-D tiling utilities used by the GCNAX model."""

import numpy as np
import pytest

from repro.sparse.convert import dense_to_csr
from repro.sparse.tiling import tile_grid_shape, tile_nnz_histogram, tile_statistics


@pytest.fixture
def banded_matrix():
    dense = np.zeros((16, 16))
    for i in range(16):
        dense[i, i] = 1.0
        dense[i, (i + 1) % 16] = 2.0
    return dense_to_csr(dense)


def test_tile_grid_shape_exact_and_ragged():
    assert tile_grid_shape((16, 16), 4, 4) == (4, 4)
    assert tile_grid_shape((17, 15), 4, 4) == (5, 4)
    assert tile_grid_shape((1, 1), 4, 4) == (1, 1)


def test_tile_grid_shape_rejects_non_positive():
    with pytest.raises(ValueError):
        tile_grid_shape((4, 4), 0, 2)


def test_histogram_fractions_sum_to_one(banded_matrix):
    histogram = tile_nnz_histogram(banded_matrix, 4, 4)
    assert sum(histogram.values()) == pytest.approx(1.0)


def test_histogram_single_nnz_tiles():
    dense = np.zeros((8, 8))
    dense[0, 7] = 1.0
    dense[7, 0] = 1.0
    histogram = tile_nnz_histogram(dense_to_csr(dense), 4, 4)
    assert histogram["1"] == pytest.approx(1.0)


def test_histogram_empty_matrix():
    assert tile_nnz_histogram(dense_to_csr(np.zeros((4, 4))), 2, 2) == {}


def test_dense_matrix_single_tile():
    dense = np.ones((4, 4))
    stats = tile_statistics(dense_to_csr(dense), 4, 4)
    assert stats.num_tiles == 1
    assert stats.nnz_per_tile.tolist() == [16]
