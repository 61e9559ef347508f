"""Unit tests for the synthetic graph generators."""

import numpy as np
import pytest

from repro.graph.generators import (
    chung_lu_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    powerlaw_degree_sequence,
    rmat_graph,
)


def test_degree_sequence_mean_close_to_target(rng):
    degrees = powerlaw_degree_sequence(2000, average_degree=10.0, rng=rng)
    assert degrees.mean() == pytest.approx(10.0, rel=0.02)
    assert degrees.min() >= 1


def test_degree_sequence_mean_does_not_drift():
    # Regression: flooring to 1 and clipping the heavy tail used to shave
    # the empirical mean well below the target (average_degree=16 came out
    # around 14.5 or lower); post-clip renormalisation must land within 2%.
    for target in (3.0, 8.0, 16.0, 40.0):
        for seed in (0, 1, 2):
            degrees = powerlaw_degree_sequence(
                5000, average_degree=target, rng=np.random.default_rng(seed)
            )
            assert degrees.mean() == pytest.approx(target, rel=0.02)


def test_degree_sequence_mean_holds_under_tight_cap(rng):
    # The cap bites hard here (a third of the unclipped mass sits above it);
    # renormalisation must still recover the mean.
    degrees = powerlaw_degree_sequence(2000, 12.0, rng=rng, max_degree=60)
    assert degrees.max() <= 60
    assert degrees.mean() == pytest.approx(12.0, rel=0.02)


def test_degree_sequence_survives_extreme_exponents(rng):
    # Regression: exponents near 1 overflowed the Pareto transform to inf,
    # and the NaN-cast garbage silently produced a near-empty graph.
    for exponent in (1.01, 1.001):
        degrees = powerlaw_degree_sequence(
            100000, average_degree=8.0, exponent=exponent, rng=rng
        )
        assert degrees.min() >= 1
        assert degrees.mean() == pytest.approx(8.0, rel=0.02)


def test_degree_sequence_saturates_unreachable_targets(rng):
    # A target above the cap saturates at the cap instead of looping forever.
    degrees = powerlaw_degree_sequence(100, 50.0, rng=rng, max_degree=10)
    assert np.all(degrees == 10)
    # A target below 1 saturates at the all-ones floor.
    degrees = powerlaw_degree_sequence(100, 0.25, rng=rng)
    assert np.all(degrees == 1)


def test_degree_sequence_respects_cap(rng):
    degrees = powerlaw_degree_sequence(500, 8.0, rng=rng, max_degree=20)
    assert degrees.max() <= 20


def test_degree_sequence_rejects_bad_inputs(rng):
    with pytest.raises(ValueError):
        powerlaw_degree_sequence(0, 5.0, rng=rng)
    with pytest.raises(ValueError):
        powerlaw_degree_sequence(10, -1.0, rng=rng)


def test_degree_sequence_is_skewed(rng):
    degrees = powerlaw_degree_sequence(5000, 10.0, exponent=2.0, rng=rng)
    assert degrees.max() > 5 * degrees.mean()


def test_chung_lu_hits_target_degree(rng):
    graph = chung_lu_graph(800, average_degree=12.0, rng=rng)
    assert graph.average_degree == pytest.approx(12.0, rel=0.15)


def test_chung_lu_no_self_loops(rng):
    graph = chung_lu_graph(300, 6.0, rng=rng)
    assert not np.any(graph.src == graph.dst)


def test_chung_lu_records_communities(rng):
    graph = chung_lu_graph(400, 6.0, num_communities=4, rng=rng)
    assert graph.communities is not None
    assert graph.communities.size == 400
    assert set(np.unique(graph.communities)).issubset(set(range(4)))


def test_chung_lu_community_structure(community_graph):
    src, dst = community_graph.src, community_graph.dst
    labels = community_graph.communities
    intra = float((labels[src] == labels[dst]).mean())
    # With intra_community_prob=0.85 most surviving edges are intra-community.
    assert intra > 0.6


def test_chung_lu_is_power_law(community_graph):
    degrees = community_graph.degrees()
    assert degrees.max() > 4 * degrees.mean()


def test_chung_lu_reproducible():
    g1 = chung_lu_graph(200, 5.0, rng=np.random.default_rng(42))
    g2 = chung_lu_graph(200, 5.0, rng=np.random.default_rng(42))
    np.testing.assert_array_equal(g1.src, g2.src)
    np.testing.assert_array_equal(g1.dst, g2.dst)


def test_chung_lu_max_degree_cap(rng):
    graph = chung_lu_graph(1000, 10.0, exponent=1.8, rng=rng)
    # The default cap keeps the heaviest hub well below the full graph.
    assert graph.degrees().max() < 0.5 * graph.num_nodes


def test_chung_lu_single_node_graph(rng):
    # Regression: the self-loop redirection used to call
    # rng.integers(0, num_nodes - 1) and crash with ValueError for one node.
    graph = chung_lu_graph(1, average_degree=1.5, rng=rng)
    assert graph.num_nodes == 1
    assert graph.num_edges == 0
    assert graph.communities is not None and graph.communities.tolist() == [0]


def test_chung_lu_two_node_graph(rng):
    # The smallest graph with a legal edge keeps working (and stays loop-free).
    graph = chung_lu_graph(2, average_degree=1.0, rng=rng)
    assert graph.num_nodes == 2
    assert graph.num_edges > 0
    assert not np.any(graph.src == graph.dst)


def test_chung_lu_rejects_nonpositive_nodes(rng):
    with pytest.raises(ValueError):
        chung_lu_graph(0, 4.0, rng=rng)


def test_erdos_renyi_degree(rng):
    graph = erdos_renyi_graph(500, average_degree=8.0, rng=rng)
    assert graph.average_degree == pytest.approx(8.0, rel=0.25)


def test_erdos_renyi_not_heavily_skewed(rng):
    graph = erdos_renyi_graph(2000, 10.0, rng=rng)
    degrees = graph.degrees()
    assert degrees.max() < 4 * degrees.mean()


def test_powerlaw_cluster_graph_basic(rng):
    graph = powerlaw_cluster_graph(200, average_degree=6.0, rng=rng)
    assert graph.num_nodes == 200
    assert graph.num_edges > 0
    assert graph.degrees().max() > graph.degrees().mean()


def test_powerlaw_cluster_saturates_tiny_graphs(rng):
    # Degenerate sizes saturate like the other generator families: every
    # newcomer attaches to all nodes already present instead of raising.
    graph = powerlaw_cluster_graph(2, average_degree=10.0, rng=rng)
    assert graph.num_nodes == 2
    assert graph.src.size == 1
    assert not np.any(graph.src == graph.dst)


def test_erdos_renyi_single_node(rng):
    graph = erdos_renyi_graph(1, average_degree=4.0, rng=rng)
    assert graph.num_nodes == 1
    assert graph.num_edges == 0


def test_rmat_hits_target_degree(rng):
    graph = rmat_graph(1000, average_degree=12.0, rng=rng)
    assert graph.average_degree == pytest.approx(12.0, rel=0.15)


def test_rmat_is_skewed(rng):
    graph = rmat_graph(2000, 10.0, rng=rng)
    degrees = graph.degrees()
    assert degrees.max() > 4 * degrees.mean()


def test_rmat_no_self_loops_and_ids_in_range(rng):
    graph = rmat_graph(300, 8.0, rng=rng)
    assert not np.any(graph.src == graph.dst)
    assert graph.src.max() < 300 and graph.dst.max() < 300


def test_rmat_reproducible():
    g1 = rmat_graph(500, 8.0, rng=np.random.default_rng(11))
    g2 = rmat_graph(500, 8.0, rng=np.random.default_rng(11))
    np.testing.assert_array_equal(g1.src, g2.src)
    np.testing.assert_array_equal(g1.dst, g2.dst)


def test_rmat_records_contiguous_communities(rng):
    graph = rmat_graph(512, 6.0, rng=rng, num_communities=8)
    assert graph.communities is not None
    assert set(np.unique(graph.communities)) == set(range(8))
    # High-bit labelling: community ids are non-decreasing in node id.
    assert np.all(np.diff(graph.communities) >= 0)


def test_rmat_single_node(rng):
    graph = rmat_graph(1, 4.0, rng=rng)
    assert graph.num_nodes == 1 and graph.num_edges == 0
