"""Unit tests for graph statistics."""

import numpy as np
import pytest

from oracles import powerlaw_fit_exponent
from repro.graph.graph import top_degree_edge_coverage


def test_edge_coverage_monotonic(community_graph):
    cov_small = top_degree_edge_coverage(community_graph, 10)
    cov_large = top_degree_edge_coverage(community_graph, 100)
    assert 0 < cov_small <= cov_large <= 1.0


def test_edge_coverage_power_law_skew(community_graph):
    # 10% of the nodes should cover well over 10% of the edges.
    k = community_graph.num_nodes // 10
    assert top_degree_edge_coverage(community_graph, k) > 0.2


def test_powerlaw_fit_exponent(community_graph):
    exponent = powerlaw_fit_exponent(community_graph, x_min=2)
    assert 1.2 < exponent < 4.0


@pytest.mark.parametrize("name", ["cora", "citeseer", "pubmed", "flickr"])
def test_negated_stable_sorts_are_bit_identical(name):
    """The VEC002 rewrite (negated stable sort instead of
    sort-then-reverse) must leave the Table I curves bit-identical —
    descending *value* order is unique regardless of sort kind."""
    from repro.graph.datasets import load_dataset

    graph = load_dataset(name, num_nodes=300, seed=0).graph
    degrees = graph.degrees()
    for k in (1, 10, graph.num_nodes):
        legacy = float(np.sort(degrees)[::-1][:k].sum()) / float(degrees.sum())
        assert top_degree_edge_coverage(graph, k) == legacy
