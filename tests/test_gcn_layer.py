"""Unit tests for GCN layers and models."""

import numpy as np
import pytest

from repro.gcn.features import generate_feature_matrix, generate_weight_matrix
from repro.gcn.layer import GCNLayer, GCNModel, build_model_for_dataset
from repro.obs import metrics
from repro.sparse.convert import dense_to_csr
from repro.sparse.pattern import PatternValuesError, SparsityPattern

from oracles import gcn_layer_forward, layer_output_reference, pattern_of, relu


@pytest.fixture
def toy_layer(rng):
    adjacency = dense_to_csr(np.array([[0.5, 0.5, 0.0], [0.5, 0.5, 0.0], [0.0, 0.0, 1.0]]))
    features = rng.standard_normal((3, 4))
    weight = rng.standard_normal((4, 2))
    return GCNLayer(adjacency=adjacency, features=features, weight=weight, name="toy")


def test_layer_shapes(toy_layer):
    assert toy_layer.num_nodes == 3
    assert toy_layer.in_features == 4
    assert toy_layer.out_features == 2


def test_layer_forward_matches_reference(toy_layer):
    expected = relu(
        toy_layer.adjacency.to_dense() @ toy_layer.features @ toy_layer.weight
    )
    np.testing.assert_allclose(toy_layer.forward(), expected)
    np.testing.assert_allclose(layer_output_reference(toy_layer), expected)


def test_layer_forward_without_relu(toy_layer):
    toy_layer.apply_relu = False
    expected = toy_layer.adjacency.to_dense() @ toy_layer.features @ toy_layer.weight
    np.testing.assert_allclose(toy_layer.forward(), expected)


def test_combination_product(toy_layer):
    np.testing.assert_allclose(toy_layer.combination(), toy_layer.features @ toy_layer.weight)


def test_features_csr_cached(toy_layer):
    first = toy_layer.features_csr
    assert toy_layer.features_csr is first
    assert first.nnz == int((toy_layer.features != 0).sum())


def test_features_are_stored_once_as_csr(toy_layer):
    # X is kept only in CSR; the dense form is rebuilt on every access.
    first, second = toy_layer.features, toy_layer.features
    assert first is not second
    np.testing.assert_array_equal(first, second)
    np.testing.assert_array_equal(first, toy_layer.features_csr.to_dense())
    given = GCNLayer(toy_layer.adjacency, toy_layer.features_csr, toy_layer.weight)
    assert given.features_csr is toy_layer.features_csr


def test_feature_density(toy_layer):
    assert toy_layer.feature_density == pytest.approx((toy_layer.features != 0).mean())


def test_dimension_validation(rng):
    adjacency = dense_to_csr(np.eye(3))
    with pytest.raises(ValueError):
        GCNLayer(adjacency=adjacency, features=rng.standard_normal((4, 2)), weight=rng.standard_normal((2, 2)))
    with pytest.raises(ValueError):
        GCNLayer(adjacency=adjacency, features=rng.standard_normal((3, 2)), weight=rng.standard_normal((3, 2)))
    non_square = dense_to_csr(np.ones((3, 4)))
    with pytest.raises(ValueError):
        GCNLayer(adjacency=non_square, features=rng.standard_normal((3, 2)), weight=rng.standard_normal((2, 2)))


def test_gcn_layer_forward_helper(toy_layer):
    out = gcn_layer_forward(toy_layer.adjacency, toy_layer.features, toy_layer.weight)
    np.testing.assert_allclose(out, toy_layer.forward())


def test_relu():
    np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])


def test_model_validation(toy_layer, rng):
    bad_next = GCNLayer(
        adjacency=toy_layer.adjacency,
        features=rng.standard_normal((3, 5)),
        weight=rng.standard_normal((5, 3)),
        name="bad",
    )
    with pytest.raises(ValueError):
        GCNModel(layers=[toy_layer, bad_next])
    with pytest.raises(ValueError):
        GCNModel(layers=[])


def test_model_forward_threads_activations(small_model):
    output = small_model.forward()
    assert output.shape == (small_model.num_nodes, small_model.layers[-1].out_features)
    assert np.isfinite(output).all()


def test_build_model_for_dataset(small_dataset, small_model):
    assert small_model.num_layers == small_dataset.num_layers
    assert small_model.num_nodes == small_dataset.num_nodes
    widths = small_dataset.feature_lengths
    for i, layer in enumerate(small_model.layers):
        assert layer.in_features == widths[i]
        assert layer.out_features == widths[i + 1]


def test_build_model_feature_densities(small_dataset, small_model):
    # Layer 0's measured density tracks the published X(0) density.
    assert small_model.layers[0].feature_density == pytest.approx(
        small_dataset.density_x0, abs=0.02
    )
    assert small_model.layers[1].feature_density == pytest.approx(
        small_dataset.density_x1, abs=0.05
    )


def test_build_model_reproducible(small_dataset):
    a = build_model_for_dataset(small_dataset, seed=11)
    b = build_model_for_dataset(small_dataset, seed=11)
    np.testing.assert_array_equal(a.layers[0].weight, b.layers[0].weight)


def test_final_layer_has_no_relu(small_model):
    assert small_model.layers[-1].apply_relu is False
    assert small_model.layers[0].apply_relu is True


def test_built_layers_keep_a_pattern_and_replay_the_dense_draws(small_dataset):
    model = build_model_for_dataset(small_dataset, seed=3)
    rng = np.random.default_rng(3)
    for index, layer in enumerate(model.layers):
        expected = generate_feature_matrix(
            layer.num_nodes, layer.in_features, small_dataset.feature_density(index), rng
        )
        weight = generate_weight_matrix(*layer.weight.shape, rng)
        np.testing.assert_array_equal(layer.weight, weight)
        assert isinstance(layer.features_csr, SparsityPattern)
        # Every access replays the same values from a fresh generator.
        np.testing.assert_array_equal(layer.features, expected)
        np.testing.assert_array_equal(layer.features, expected)
        np.testing.assert_array_equal(layer.combination(), expected @ layer.weight)


def test_a_pattern_without_recorded_draws_has_no_values(toy_layer):
    pattern = pattern_of(toy_layer.features_csr)
    layer = GCNLayer(toy_layer.adjacency, pattern, toy_layer.weight, name="bare")
    assert layer.feature_density == toy_layer.feature_density
    with pytest.raises(PatternValuesError, match="bare"):
        layer.features
    with pytest.raises(PatternValuesError):
        layer.forward()


def test_reference_forward_passes_count_their_replays(small_dataset):
    model = build_model_for_dataset(small_dataset, seed=3)
    with metrics.scoped() as recorded:
        for layer in model.layers:
            layer.forward()
    assert recorded["counters"]["gcn.features.replays"] == model.num_layers
    # The model threads activations: only the input layer's X is read.
    with metrics.scoped() as recorded:
        model.forward()
    assert recorded["counters"]["gcn.features.replays"] == 1
