"""Unit tests for the synthetic dataset stand-ins (Table I)."""

import numpy as np
import pytest

from repro.graph.datasets import (
    DATASET_NAMES,
    LARGE_DATASETS,
    SMALL_DATASETS,
    dataset_spec,
    load_all_datasets,
    load_dataset,
)


def _synthetic_density(spec) -> float:
    """Adjacency density of a spec's default synthetic stand-in."""
    return spec.synthetic_degree / spec.synthetic_nodes


def test_all_eight_datasets_defined():
    assert len(DATASET_NAMES) == 8
    assert set(SMALL_DATASETS) | set(LARGE_DATASETS) == set(DATASET_NAMES)


def test_spec_lookup_case_insensitive():
    assert dataset_spec("Cora").name == "cora"
    assert dataset_spec("AMAZON").name == "amazon"


def test_spec_lookup_unknown():
    with pytest.raises(KeyError):
        dataset_spec("imaginary")


def test_spec_published_values_match_paper():
    cora = dataset_spec("cora")
    assert cora.num_nodes == 2708
    assert cora.num_edges == 13264
    assert cora.feature_lengths == (1433, 16, 7)
    amazon = dataset_spec("amazon")
    assert amazon.num_nodes == 2449029
    assert amazon.feature_lengths == (100, 64, 47)


def test_spec_derived_statistics():
    reddit = dataset_spec("reddit")
    assert reddit.average_degree == pytest.approx(114848857 / 232965)


def test_load_dataset_default_size():
    dataset = load_dataset("citeseer")
    assert dataset.num_nodes == dataset_spec("citeseer").synthetic_nodes
    assert dataset.name == "citeseer"


def test_load_dataset_override_size():
    dataset = load_dataset("pubmed", num_nodes=300)
    assert dataset.num_nodes == 300
    # Degree scales down with the node count so density is preserved.
    assert dataset.graph.average_degree < dataset_spec("pubmed").synthetic_degree


def test_load_dataset_reproducible():
    a = load_dataset("cora", num_nodes=200, seed=5)
    b = load_dataset("cora", num_nodes=200, seed=5)
    np.testing.assert_array_equal(a.graph.src, b.graph.src)


def test_load_dataset_seed_changes_graph():
    a = load_dataset("cora", num_nodes=200, seed=5)
    b = load_dataset("cora", num_nodes=200, seed=6)
    assert not np.array_equal(a.graph.src, b.graph.src)


def test_feature_lengths_capped(small_dataset):
    assert small_dataset.feature_lengths[0] <= 128
    # Hidden and output widths are never shrunk.
    assert small_dataset.feature_lengths[1:] == dataset_spec("cora").feature_lengths[1:]


def test_layer_dims_and_density(small_dataset):
    # The input width is capped at 128; hidden and output widths are kept.
    assert small_dataset.feature_lengths == (128,) + dataset_spec("cora").feature_lengths[1:]
    assert small_dataset.feature_density(0) == dataset_spec("cora").density_x0
    assert small_dataset.feature_density(1) == dataset_spec("cora").density_x1


def test_num_layers(small_dataset):
    assert small_dataset.num_layers == 2


def test_reddit_is_densest_synthetic():
    densities = {name: _synthetic_density(dataset_spec(name)) for name in DATASET_NAMES}
    assert max(densities, key=densities.get) == "reddit"


def test_large_graphs_are_sparser_than_small():
    amazon = _synthetic_density(dataset_spec("amazon"))
    cora = _synthetic_density(dataset_spec("cora"))
    assert amazon < cora


def test_load_all_datasets_small_override():
    overrides = {name: 64 for name in DATASET_NAMES}
    datasets = load_all_datasets(num_nodes=overrides)
    assert list(datasets) == list(DATASET_NAMES)
    assert all(ds.num_nodes == 64 for ds in datasets.values())
