"""Unit tests for the MAC-operation counting (Figure 2)."""

import numpy as np
import pytest

from repro.gcn.layer import GCNLayer
from repro.gcn.ops_count import layer_mac_counts, mac_count_a_xw, mac_count_ax_w
from repro.sparse.convert import dense_to_csr

from oracles import model_mac_counts


@pytest.fixture
def sparse_layer(rng):
    adjacency = np.zeros((20, 20))
    for i in range(20):
        adjacency[i, (i + 1) % 20] = 1.0
    features = (rng.random((20, 30)) < 0.2) * rng.standard_normal((20, 30))
    weight = rng.standard_normal((30, 8))
    return GCNLayer(adjacency=dense_to_csr(adjacency), features=features, weight=weight)


def test_a_xw_count_formula(sparse_layer):
    expected = (
        sparse_layer.features_csr.nnz * sparse_layer.out_features
        + sparse_layer.adjacency.nnz * sparse_layer.out_features
    )
    assert mac_count_a_xw(sparse_layer) == expected


def test_ax_w_count_formula(sparse_layer):
    # Stage 2 is a dense GEMM over the AX intermediate.
    assert mac_count_ax_w(sparse_layer) >= 20 * 30 * 8


def test_a_xw_cheaper_for_sparse_features(sparse_layer):
    counts = layer_mac_counts(sparse_layer)
    assert counts.a_then_xw < counts.ax_then_w
    assert counts.ratio < 1.0


def test_counts_positive(sparse_layer):
    counts = layer_mac_counts(sparse_layer)
    assert counts.ax_then_w > 0
    assert counts.a_then_xw > 0


def test_model_counts_sum_layers(small_model):
    totals = model_mac_counts(small_model)
    per_layer = [layer_mac_counts(layer) for layer in small_model.layers]
    assert totals.ax_then_w == sum(c.ax_then_w for c in per_layer)
    assert totals.a_then_xw == sum(c.a_then_xw for c in per_layer)


def test_model_order_preference_matches_paper(small_model):
    # For every studied dataset configuration the A(XW) order needs no more
    # MACs than (AX)W (paper Figure 2).
    totals = model_mac_counts(small_model)
    assert totals.a_then_xw <= totals.ax_then_w


def test_ratio_nan_for_zero_baseline(rng):
    adjacency = dense_to_csr(np.zeros((3, 3)))
    layer = GCNLayer(
        adjacency=adjacency,
        features=np.zeros((3, 0)),
        weight=np.zeros((0, 0)),
    )
    counts = layer_mac_counts(layer)
    assert counts.ax_then_w == 0
    assert np.isnan(counts.ratio)
