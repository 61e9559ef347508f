"""Unit tests for feature/weight matrix generation."""

import numpy as np
import pytest

from repro.gcn.features import (
    generate_feature_matrix,
    generate_feature_pattern,
    generate_weight_matrix,
)
from repro.sparse import blocks
from repro.sparse.convert import dense_to_csr
from repro.sparse.pattern import SparsityPattern

from oracles import pattern_indices


@pytest.mark.parametrize("density", [0.01, 0.1, 0.5, 1.0])
def test_density_is_respected(density, rng):
    matrix = generate_feature_matrix(400, 50, density, rng)
    assert np.count_nonzero(matrix) / matrix.size == pytest.approx(density, abs=0.05)


def test_zero_density(rng):
    matrix = generate_feature_matrix(10, 10, 0.0, rng)
    assert not matrix.any()


def test_values_non_negative(rng):
    matrix = generate_feature_matrix(20, 20, 0.8, rng)
    assert matrix.min() >= 0.0


def test_invalid_density_rejected(rng):
    with pytest.raises(ValueError):
        generate_feature_matrix(5, 5, 1.5, rng)
    with pytest.raises(ValueError):
        generate_feature_matrix(5, 5, -0.1, rng)


def test_feature_csr_matches_dense_density(rng):
    pattern_rng, dense_rng = np.random.default_rng(0), np.random.default_rng(0)
    pattern = generate_feature_pattern(200, 30, 0.2, pattern_rng)
    expected = dense_to_csr(generate_feature_matrix(200, 30, 0.2, dense_rng))
    assert isinstance(pattern, SparsityPattern)
    np.testing.assert_array_equal(pattern.indptr, expected.indptr)
    np.testing.assert_array_equal(pattern_indices(pattern), expected.indices)
    assert pattern_rng.random() == dense_rng.random()


class ZeroingGenerator:
    """A generator whose normals at the given stream positions are exactly 0.0.

    The positions count normals from the first one drawn, however the draws
    are split into calls; every other draw is the wrapped generator's.
    """

    def __init__(self, seed, zero_positions):
        self._rng = np.random.default_rng(seed)
        self._zeros = np.asarray(zero_positions)
        self._drawn = 0

    def standard_normal(self, size=None, out=None):
        values = self._rng.standard_normal(size, out=out)
        flat = values.reshape(-1)
        hit = self._zeros[(self._zeros >= self._drawn) & (self._zeros < self._drawn + flat.size)]
        flat[hit - self._drawn] = -0.0
        self._drawn += flat.size
        return values

    def random(self, size=None, out=None):
        return self._rng.random(size, out=out)


@pytest.mark.parametrize("density", [0.5, 1.0])
def test_feature_pattern_drops_exact_zero_normals(density, monkeypatch):
    # Several small blocks, so the zeros fall into different ones.
    monkeypatch.setattr(blocks, "BLOCK_ENTRIES", 16)
    rows, cols, zeros = 13, 7, [0, 5, 17, 48, 49, 90]
    pattern_rng, dense_rng = ZeroingGenerator(3, zeros), ZeroingGenerator(3, zeros)
    pattern = generate_feature_pattern(rows, cols, density, pattern_rng)
    dense = generate_feature_matrix(rows, cols, density, dense_rng)
    expected = dense_to_csr(dense)
    np.testing.assert_array_equal(pattern.indptr, expected.indptr)
    np.testing.assert_array_equal(pattern_indices(pattern), expected.indices)
    row_of_kept = np.repeat(np.arange(rows), np.diff(pattern.indptr))
    flat_kept = row_of_kept * cols + pattern_indices(pattern)
    assert not np.isin(zeros, flat_kept).any()
    if density == 1.0:
        # The mask keeps every cell; only the zero normals drop out.
        assert pattern.nnz == rows * cols - len(zeros)
    assert pattern_rng.random() == dense_rng.random()


def test_weight_matrix_fully_dense(rng):
    weight = generate_weight_matrix(64, 16, rng)
    assert np.count_nonzero(weight) == weight.size
    assert weight.shape == (64, 16)


def test_weight_matrix_scale(rng):
    weight = generate_weight_matrix(1000, 1000, rng)
    expected_scale = np.sqrt(2.0 / 2000)
    assert np.std(weight) == pytest.approx(expected_scale, rel=0.1)


def test_weight_matrix_custom_scale(rng):
    weight = generate_weight_matrix(100, 100, rng, scale=0.5)
    assert np.std(weight) == pytest.approx(0.5, rel=0.1)


def test_reproducibility():
    a = generate_feature_matrix(50, 20, 0.3, np.random.default_rng(9))
    b = generate_feature_matrix(50, 20, 0.3, np.random.default_rng(9))
    np.testing.assert_array_equal(a, b)
