"""Unit tests for the graph partitioners."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.graph import partition as partition_module
from repro.graph import registry
from repro.graph.datasets import DATASET_NAMES, load_dataset
from repro.graph.graph import Graph
from repro.graph.partition import partition_edge_cut, partition_graph
from repro.harness import default_config
from repro.sparse import blocks

from oracles import (
    adjacency_lists_reference,
    pack_communities_reference,
    refine_boundary_reference,
)


def _assert_valid(partition, num_nodes, num_clusters):
    assert partition.assignment.size == num_nodes
    assert partition.assignment.min() >= 0
    assert partition.assignment.max() < num_clusters


def test_partition_is_valid(community_graph):
    partition = partition_graph(community_graph, 6, seed=0)
    _assert_valid(partition, community_graph.num_nodes, 6)


def test_metis_like_recovers_communities(community_graph):
    partition = partition_graph(community_graph, 6, seed=0)
    cut = partition_edge_cut(community_graph, partition.assignment)
    intra_fraction = 1.0 - cut / community_graph.num_edges
    # The generator plants ~85% intra-community edges; the partitioner should
    # keep well over half of the edges inside clusters.
    assert intra_fraction > 0.55


def test_metis_better_than_random(community_graph, rng):
    partition = partition_graph(community_graph, 6, seed=0)
    random_assignment = rng.integers(0, 6, size=community_graph.num_nodes)
    assert partition_edge_cut(community_graph, partition.assignment) < partition_edge_cut(
        community_graph, random_assignment
    )


def test_partition_balance(community_graph):
    partition = partition_graph(community_graph, 6, seed=0)
    ideal = community_graph.num_nodes / 6
    assert np.bincount(partition.assignment).max() <= ideal * 1.3 + 1


def test_single_cluster_partition(community_graph):
    partition = partition_graph(community_graph, 1)
    assert partition.num_clusters == 1
    assert np.all(partition.assignment == 0)


def test_more_clusters_than_nodes():
    graph = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    partition = partition_graph(graph, 10)
    assert partition.num_clusters <= 4
    _assert_valid(partition, 4, partition.num_clusters)


def test_invalid_cluster_count(community_graph):
    with pytest.raises(ValueError):
        partition_graph(community_graph, 0)
    with pytest.raises(ValueError):
        partition_graph(community_graph, -1)


def test_edge_cut_zero_for_single_cluster(community_graph):
    assignment = np.zeros(community_graph.num_nodes, dtype=np.int64)
    assert partition_edge_cut(community_graph, assignment) == 0


def test_zero_degree_nodes_are_still_assigned():
    # Nodes 4..7 have no edges at all; the partitioner must still place
    # them in exactly one cluster.
    graph = Graph.from_edge_list(8, [(0, 1), (1, 2), (2, 3)])
    partition = partition_graph(graph, 3, seed=0)
    _assert_valid(partition, 8, partition.num_clusters)


def test_single_node_clusters_cover_every_node():
    # As many clusters as nodes: each cluster holds exactly one node.
    graph = Graph.from_edge_list(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
    partition = partition_graph(graph, 5, seed=0)
    _assert_valid(partition, 5, partition.num_clusters)
    assert np.bincount(partition.assignment).max() <= 2  # near-singleton balance


def test_single_node_graph_partitions():
    graph = Graph.from_edge_list(1, [])
    partition = partition_graph(graph, 4, seed=0)
    assert partition.num_clusters == 1
    assert partition.assignment.tolist() == [0]


def test_edgeless_graph_partitions_in_balance():
    # A graph with zero edges exercises the partitioner's empty-label path.
    graph = Graph.from_edge_list(12, [])
    partition = partition_graph(graph, 4, seed=0)
    _assert_valid(partition, 12, partition.num_clusters)
    assert partition_edge_cut(graph, partition.assignment) == 0


def test_edge_cut_ignores_empty_partitions():
    # An assignment that skips cluster id 1 entirely (an "empty partition")
    # is still a legal input to the edge-cut metric.
    graph = Graph.from_edge_list(4, [(0, 1), (2, 3)])
    assignment = np.array([0, 0, 2, 2])
    assert partition_edge_cut(graph, assignment) == 0
    assignment = np.array([0, 2, 2, 2])
    assert partition_edge_cut(graph, assignment) == 2  # both directions of (0,1)


def test_partition_on_disconnected_graph():
    graph = Graph.from_edge_list(6, [(0, 1), (2, 3), (4, 5)])
    partition = partition_graph(graph, 3, seed=0)
    _assert_valid(partition, 6, 3)


@given(
    hnp.arrays(np.int64, st.integers(1, 300), elements=st.integers(-5, 40)),
    st.integers(1, 12),
    st.floats(0.5, 80.0),
)
@settings(max_examples=300, deadline=None)
def test_community_packing_matches_the_per_community_scan(labels, num_clusters, capacity):
    np.testing.assert_array_equal(
        partition_module._pack_communities(labels, num_clusters, capacity),
        pack_communities_reference(labels, num_clusters, capacity),
    )


def _bench_graph(name: str, num_nodes: int) -> Graph:
    """A ``repro bench`` rung's chung-lu graph, as perfbench builds it."""
    spec = registry.scenario_from_dict(
        {
            "name": name,
            "generator": "chung-lu",
            "num_nodes": num_nodes,
            "average_degree": 16,
            "num_communities": 64,
            "feature_lengths": [128, 64, 16],
        }
    )
    return load_dataset(spec.name, seed=0, spec=spec).graph


def test_community_packing_matches_the_scan_on_100k_lp_labels():
    """The labels label propagation leaves on the 100k-node bench graph,
    partitioned as a default-config request partitions it."""
    graph = _bench_graph("bench-grow-100k", 100_000)
    captured = []

    def capture(labels, num_clusters, capacity):
        captured.append((labels, num_clusters, capacity))
        raise StopIteration  # refinement is not under test

    with mock.patch.object(partition_module, "_pack_communities", capture):
        with pytest.raises(StopIteration):
            partition_graph(graph, 100_000 // 600, seed=0)
    labels, num_clusters, capacity = captured[0]
    assert np.unique(labels).size > 1_000
    np.testing.assert_array_equal(
        partition_module._pack_communities(labels, num_clusters, capacity),
        pack_communities_reference(labels, num_clusters, capacity),
    )


@st.composite
def refinement_inputs(draw):
    """A graph (directed or not; isolated nodes, self-loops and duplicate
    edges allowed), a cluster assignment and a capacity from below every
    load (each winner blocked) to above the node count."""
    num_nodes = draw(st.integers(1, 40))
    node = st.integers(0, num_nodes - 1)
    edges = draw(st.lists(st.tuples(node, node), max_size=4 * num_nodes))
    graph = Graph.from_edge_list(num_nodes, edges, undirected=draw(st.booleans()))
    num_clusters = draw(st.integers(1, 6))
    assignment = draw(
        hnp.arrays(np.int64, num_nodes, elements=st.integers(0, num_clusters - 1))
    )
    capacity = draw(st.floats(0.5, num_nodes + 1.0))
    return graph, assignment, num_clusters, capacity


# An alternating path: node 0's move flips node 1's decision, so the walk
# must decide node 1 again.  Node 4 ties clusters 0 and 1 and stays.
_ALTERNATING_PATH = (
    Graph.from_edge_list(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 5)]),
    np.array([0, 1, 0, 1, 0, 1]),
    2,
    6.0,
)


@given(refinement_inputs(), st.sampled_from([1, 2]), st.sampled_from([1, 3, 16, 1 << 16]))
@example(_ALTERNATING_PATH, 2, 1 << 16)
@example(_ALTERNATING_PATH, 1, 1)
@settings(max_examples=500, deadline=None)
def test_refinement_matches_the_python_sweep(inputs, passes, block_entries):
    graph, assignment, num_clusters, capacity = inputs
    with mock.patch.object(blocks, "BLOCK_ENTRIES", block_entries), mock.patch.object(
        partition_module, "_REFINEMENT_PASSES", passes
    ):
        refined = partition_module._refine_boundary(graph, assignment, num_clusters, capacity)
    expected = refine_boundary_reference(graph, assignment, num_clusters, capacity, passes=passes)
    assert refined.dtype == expected.dtype
    np.testing.assert_array_equal(refined, expected)


def _refinement_call(graph: Graph, num_clusters: int) -> tuple:
    """The arguments partitioning passes to the boundary refinement."""
    captured = []
    refine = partition_module._refine_boundary

    def capture(*args):
        captured.append(args)
        return refine(*args)

    with mock.patch.object(partition_module, "_refine_boundary", capture):
        partition_graph(graph, num_clusters, seed=0)
    (args,) = captured
    return args


def _assert_refinement_matches_the_sweep(graph: Graph, num_clusters: int) -> None:
    args = _refinement_call(graph, num_clusters)
    for passes in (1, partition_module._REFINEMENT_PASSES):
        with mock.patch.object(partition_module, "_REFINEMENT_PASSES", passes):
            refined = partition_module._refine_boundary(*args)
        np.testing.assert_array_equal(refined, refine_boundary_reference(*args, passes=passes))


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_refinement_matches_the_python_sweep_on_table1(name):
    """Each graph at a default bundle's cluster count; cora, which a
    default bundle leaves whole, at two clusters."""
    config = default_config()
    graph = load_dataset(name, seed=config.seed, spec=config.effective_scenario(name)).graph
    _assert_refinement_matches_the_sweep(
        graph, max(2, graph.num_nodes // config.target_cluster_nodes)
    )


def test_refinement_matches_the_python_sweep_on_the_30k_fanout_graph():
    _assert_refinement_matches_the_sweep(_bench_graph("bench-fanout-30k", 30_000), 30_000 // 600)


@pytest.mark.parametrize("block_entries", [7, 1 << 16])
def test_adjacency_list_entries_are_the_shared_node_ints(block_entries):
    graph = _bench_graph("bench-adjacency-2k", 2_000)
    nodes = list(range(graph.num_nodes))
    with mock.patch.object(blocks, "BLOCK_ENTRIES", block_entries):
        lists = partition_module._adjacency_lists(graph.adjacency(), nodes)
    expected = adjacency_lists_reference(graph)
    assert lists == expected
    assert all(entry is nodes[entry] for neighbours in lists for entry in neighbours)
    # Ints past CPython's small-int cache: fresh ones would fail the check.
    assert not all(entry is nodes[entry] for neighbours in expected for entry in neighbours)
