"""Unit tests for GROW's preprocessing pass (partitioning + HDN lists)."""

import numpy as np
import pytest

from repro.core.preprocess import GrowPreprocessor, PreprocessPlan
from repro.graph.partition import partition_graph


def test_plan_without_partitioning(community_graph):
    plan = GrowPreprocessor(hdn_list_capacity=32).plan_without_partitioning(
        community_graph.adjacency()
    )
    assert plan.num_clusters == 1
    assert not plan.partitioned
    assert plan.clusters[0].size == community_graph.num_nodes
    assert plan.hdn_lists[0].size <= 32
    plan.validate()


def test_global_hdns_are_highest_degree(community_graph):
    adjacency = community_graph.adjacency()
    plan = GrowPreprocessor(hdn_list_capacity=5).plan_without_partitioning(adjacency)
    degrees = adjacency.row_nnz()
    top5 = set(np.argsort(-degrees, kind="stable")[:5].tolist())
    # Column-reference counts equal degrees for a symmetric adjacency, so the
    # selected HDNs are the top-degree nodes.
    assert set(plan.hdn_lists[0].tolist()) == top5


def test_plan_from_graph_partitions(community_graph):
    plan = GrowPreprocessor(num_clusters=6, hdn_list_capacity=64, seed=0).plan_from_graph(
        community_graph
    )
    assert plan.partitioned
    assert plan.num_clusters >= 2
    assert plan.preprocessing_seconds >= 0.0
    plan.validate()


def test_plan_covers_all_nodes_exactly_once(community_graph):
    plan = GrowPreprocessor(num_clusters=5, seed=1).plan_from_graph(community_graph)
    covered = np.concatenate(plan.clusters)
    assert covered.size == community_graph.num_nodes
    assert np.unique(covered).size == community_graph.num_nodes


def test_cluster_of_node_consistent_with_clusters(community_graph):
    plan = GrowPreprocessor(num_clusters=4, seed=0).plan_from_graph(community_graph)
    for nodes in plan.clusters:
        labels = np.unique(plan.cluster_of_node[nodes])
        assert labels.size == 1


def test_hdn_lists_respect_capacity(community_graph):
    plan = GrowPreprocessor(num_clusters=4, hdn_list_capacity=7, seed=0).plan_from_graph(
        community_graph
    )
    assert all(lst.size <= 7 for lst in plan.hdn_lists)


def test_non_intra_only_can_include_external_hubs(community_graph):
    adjacency = community_graph.adjacency()
    partition = partition_graph(community_graph, 4, seed=0)
    plan = GrowPreprocessor(hdn_list_capacity=1000).plan_from_partition(adjacency, partition)
    # Every column a cluster's rows reference is a candidate, its own
    # nodes' and the other clusters' hubs alike.
    for nodes, hdns in zip(plan.clusters, plan.hdn_lists):
        rows = np.isin(np.repeat(np.arange(adjacency.n_rows), adjacency.row_nnz()), nodes)
        np.testing.assert_array_equal(np.sort(hdns), np.unique(adjacency.indices[rows]))
    assert any(not np.isin(hdns, nodes).all() for nodes, hdns in zip(plan.clusters, plan.hdn_lists))


def test_single_cluster_request_falls_back(community_graph):
    plan = GrowPreprocessor(num_clusters=1).plan_from_graph(community_graph)
    assert plan.num_clusters == 1


def test_target_cluster_nodes_controls_cluster_count(community_graph):
    plan = GrowPreprocessor(target_cluster_nodes=100, seed=0).plan_from_graph(community_graph)
    assert plan.num_clusters >= 4


def test_plan_validation_catches_overlap():
    plan = PreprocessPlan(
        num_nodes=4,
        cluster_of_node=np.zeros(4, dtype=np.int64),
        clusters=[np.array([0, 1]), np.array([1, 2, 3])],
        hdn_lists=[np.array([0]), np.array([2])],
        hdn_list_capacity=4,
        partitioned=True,
    )
    with pytest.raises(ValueError):
        plan.validate()


def test_plan_validation_catches_capacity_violation():
    plan = PreprocessPlan(
        num_nodes=2,
        cluster_of_node=np.zeros(2, dtype=np.int64),
        clusters=[np.array([0, 1])],
        hdn_lists=[np.array([0, 1, 0, 1])],
        hdn_list_capacity=2,
        partitioned=False,
    )
    with pytest.raises(ValueError):
        plan.validate()
