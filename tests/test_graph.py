"""Unit tests for the Graph container."""

import numpy as np
import pytest

from repro.graph.graph import Graph

from oracles import relabel


def test_num_edges_counts_both_directions(tiny_graph):
    # 11 undirected edges -> 22 adjacency non-zeros.
    assert tiny_graph.num_edges == 22
    assert tiny_graph.average_degree == pytest.approx(22 / 6)


def test_adjacency_is_symmetric(tiny_graph):
    dense = tiny_graph.adjacency().to_dense()
    np.testing.assert_allclose(dense, dense.T)


def test_adjacency_is_binary(tiny_graph):
    dense = tiny_graph.adjacency().to_dense()
    assert set(np.unique(dense)).issubset({0.0, 1.0})


def test_duplicate_edges_collapse():
    graph = Graph.from_edge_list(3, [(0, 1), (0, 1), (1, 0)])
    assert graph.num_edges == 2


def test_degrees(tiny_graph):
    degrees = tiny_graph.degrees()
    assert degrees.sum() == tiny_graph.num_edges
    assert degrees[0] == 5  # node 0 connects to 1,2,3,4,5


def test_normalized_adjacency_rows_bounded(tiny_graph):
    norm = tiny_graph.normalized_adjacency()
    assert norm.nnz >= tiny_graph.num_edges  # self loops added
    assert norm.data.max() <= 1.0 + 1e-12
    assert norm.data.min() > 0.0


def test_normalized_adjacency_symmetric(tiny_graph):
    dense = tiny_graph.normalized_adjacency().to_dense()
    np.testing.assert_allclose(dense, dense.T, atol=1e-12)


def test_normalized_adjacency_isolated_node():
    graph = Graph.from_edge_list(3, [(0, 1)])
    dense = graph.normalized_adjacency().to_dense()
    # The isolated node still gets a self loop of weight 1.
    assert dense[2, 2] == pytest.approx(1.0)


def test_relabel_preserves_topology(tiny_graph, rng):
    perm = rng.permutation(tiny_graph.num_nodes)
    relabelled = relabel(tiny_graph, perm)
    original = tiny_graph.adjacency().to_dense()
    new = relabelled.adjacency().to_dense()
    for i in range(tiny_graph.num_nodes):
        for j in range(tiny_graph.num_nodes):
            assert original[i, j] == new[perm[i], perm[j]]


def test_relabel_rejects_non_bijection(tiny_graph):
    with pytest.raises(ValueError):
        relabel(tiny_graph, np.zeros(tiny_graph.num_nodes, dtype=int))
    with pytest.raises(ValueError):
        relabel(tiny_graph, np.arange(tiny_graph.num_nodes - 1))


def test_relabel_carries_communities():
    graph = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    graph.communities = np.array([0, 0, 1, 1])
    perm = np.array([3, 2, 1, 0])
    relabelled = relabel(graph, perm)
    # Node 0 (community 0) is now node 3.
    assert relabelled.communities[3] == 0
    assert relabelled.communities[0] == 1


def test_invalid_edges_rejected():
    with pytest.raises(ValueError):
        Graph.from_edge_list(2, [(0, 5)])
    with pytest.raises(ValueError):
        Graph(num_nodes=0, src=np.array([]), dst=np.array([]))


def test_directed_graph_edges_not_mirrored():
    graph = Graph.from_edge_list(3, [(0, 1), (1, 2)], undirected=False)
    dense = graph.adjacency().to_dense()
    assert dense[0, 1] == 1.0
    assert dense[1, 0] == 0.0
