"""Differential tests of the array kernels against the code they replaced.

Each oracle below is the implementation a kernel superseded, kept here
verbatim in spirit: ``np.unique`` for :func:`repro.sparse.sorted_unique`,
the two-``np.unique`` tile statistics for
:func:`repro.sparse.tiling.tile_statistics`, ``np.isin`` for the HDN ID
list's bitmap lookup, and ``np.unique(..., axis=0)`` for the scale-out
cluster-pair dedup.  Hypothesis drives them over random inputs (empty
matrices, empty row strips, non-square shapes, 1x1 tiles and tiles larger
than the matrix); the Table I tests run them over every phase of the eight
paper datasets under both the partitioned and the unpartitioned plan.
Comparisons are exact, dtype included.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.hdn_cache import HDNIdList
from repro.graph.datasets import DATASET_NAMES
from repro.harness import default_config
from repro.harness.workloads import get_bundle
from repro.scaleout.shard import _cluster_graph, build_shard_plan
from repro.sparse import sorted_unique, tile_statistics
from repro.sparse.convert import dense_to_csr
from repro.sparse.tiling import occupied_tile_counts


# ---------------------------------------------------------------------------
# Oracles: the replaced implementations.


def oracle_tile_statistics(sparse, tile_rows, tile_cols):
    """``(occupied tile ids, nnz per tile, distinct columns per tile)``."""
    n_rows, n_cols = sparse.shape
    grid_cols = (n_cols + tile_cols - 1) // tile_cols
    row_of_nnz = np.repeat(np.arange(n_rows), sparse.row_nnz())
    if row_of_nnz.size == 0:
        empty = np.zeros(0, dtype=np.int64)
        return empty, empty, empty
    tile_id = (row_of_nnz // tile_rows) * grid_cols + sparse.indices // tile_cols
    occupied, nnz_per_tile = np.unique(tile_id, return_counts=True)
    unique_pairs = np.unique(tile_id * np.int64(n_cols) + sparse.indices)
    distinct_per_tile = np.searchsorted(occupied, unique_pairs // np.int64(n_cols))
    distinct = np.bincount(distinct_per_tile, minlength=occupied.size)
    return occupied, nnz_per_tile.astype(np.int64), distinct.astype(np.int64)


def oracle_cluster_pairs(adjacency, cluster_of_node):
    row_ids = np.repeat(np.arange(adjacency.n_rows), adjacency.row_nnz())
    src = cluster_of_node[row_ids]
    dst = cluster_of_node[adjacency.indices]
    cross = src != dst
    if not cross.any():
        return np.empty((0, 2), dtype=np.int64)
    return np.unique(np.stack([src[cross], dst[cross]], axis=1), axis=0)


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


def assert_tiles_match_oracle(sparse, tile_rows, tile_cols) -> None:
    stats = tile_statistics(sparse, tile_rows, tile_cols)
    occupied, nnz, distinct = oracle_tile_statistics(sparse, tile_rows, tile_cols)
    assert_identical(stats.tile_ids, occupied)
    assert_identical(stats.nnz_per_tile, nnz)
    assert_identical(stats.distinct_cols_per_tile, distinct)
    assert stats.num_tiles == occupied.size
    tile_ids, counts = occupied_tile_counts(sparse, tile_rows, tile_cols)
    assert_identical(tile_ids, occupied)
    assert_identical(counts, nnz)


# ---------------------------------------------------------------------------
# Strategies.


@st.composite
def csr_matrices(draw, max_dim: int = 24, shape: tuple[int, int] | None = None):
    """Sparse 0/1 matrices of any shape, often with blank row bands."""
    if shape is None:
        shape = (draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim)))
    dense = draw(hnp.arrays(bool, shape, elements=st.booleans(), fill=st.just(False)))
    if shape[0] and draw(st.booleans()):
        start = draw(st.integers(0, shape[0] - 1))
        dense[start:draw(st.integers(start, shape[0]))] = False
    return dense_to_csr(dense.astype(np.float64))


tile_dims = st.integers(1, 30)
int64_keys = hnp.arrays(
    np.int64,
    st.integers(0, 200),
    elements=st.integers(-(2**62), 2**62) | st.integers(-5, 5),
)


# ---------------------------------------------------------------------------
# sorted_unique vs np.unique


@given(int64_keys)
@settings(max_examples=200, deadline=None)
def test_sorted_unique_matches_np_unique(keys):
    assert_identical(sorted_unique(keys.copy()), np.unique(keys))
    values, counts = sorted_unique(keys.copy(), return_counts=True)
    expected_values, expected_counts = np.unique(keys, return_counts=True)
    assert_identical(values, expected_values)
    assert_identical(counts, expected_counts)


# ---------------------------------------------------------------------------
# tile statistics vs the two-np.unique kernel


@given(csr_matrices(), tile_dims, tile_dims)
@example(dense_to_csr(np.zeros((0, 0))), 1, 1)
@example(dense_to_csr(np.ones((1, 1))), 1, 1)
@example(dense_to_csr(np.ones((3, 7))), 30, 30)
@example(dense_to_csr(np.eye(9)[[0, 1, 7, 8]]), 2, 3)
@settings(max_examples=300, deadline=None)
def test_tile_statistics_match_oracle(sparse, tile_rows, tile_cols):
    assert_tiles_match_oracle(sparse, tile_rows, tile_cols)


# ---------------------------------------------------------------------------
# HDN ID list bitmap vs np.isin


@given(
    st.lists(st.integers(0, 300), max_size=64),
    hnp.arrays(np.int64, st.integers(0, 80), elements=st.integers(-400, 400)),
)
@settings(max_examples=200, deadline=None)
def test_hdn_lookup_matches_isin(ids, columns):
    expected = np.isin(columns, np.array(ids, dtype=np.int64))
    built = HDNIdList(capacity=64, node_ids=np.array(ids, dtype=np.int64))
    loaded = HDNIdList(capacity=64)
    loaded.load(np.array(ids, dtype=np.int64))
    for id_list in (built, loaded):
        assert id_list.size == len(set(ids))
        assert_identical(id_list.lookup(columns), expected)


# ---------------------------------------------------------------------------
# cluster-pair dedup vs np.unique(axis=0)


@st.composite
def clustered_adjacency(draw):
    """A square adjacency matrix and a label in ``0..5`` for every node."""
    n = draw(st.integers(1, 24))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 5)))
    return draw(csr_matrices(shape=(n, n))), labels


@given(clustered_adjacency())
@settings(max_examples=100, deadline=None)
def test_cluster_pairs_match_unique_rows(case):
    adjacency, cluster_of_node = case
    graph = _cluster_graph(adjacency, cluster_of_node, 6)
    pairs = oracle_cluster_pairs(adjacency, cluster_of_node)
    assert_identical(graph.src, pairs[:, 0])
    assert_identical(graph.dst, pairs[:, 1])


# ---------------------------------------------------------------------------
# The eight Table I datasets: every phase, both plans.


@pytest.fixture(scope="module", params=DATASET_NAMES)
def bundle(request):
    return get_bundle(request.param, default_config())


@pytest.mark.parametrize("tile", [(32, 32), (16, 64)])
def test_table1_tile_statistics_match_oracle(bundle, tile):
    for layer in bundle.workloads:
        for phase in layer.phases:
            assert_tiles_match_oracle(phase.sparse, *tile)


@pytest.mark.parametrize("partitioned", [True, False])
def test_table1_hdn_lookups_match_isin(bundle, partitioned):
    plan = bundle.plan if partitioned else bundle.plan_unpartitioned
    for layer in bundle.workloads:
        adjacency = layer.aggregation.sparse
        id_list = HDNIdList(capacity=plan.hdn_list_capacity)
        for nodes, hdn_list in zip(plan.clusters, plan.hdn_lists):
            columns = adjacency.select_rows(nodes).indices
            id_list.load(hdn_list)
            assert_identical(id_list.lookup(columns), np.isin(columns, hdn_list))


def test_table1_shard_plan_matches_oracles(bundle):
    graph, plan = bundle.dataset.graph, bundle.plan
    adjacency = graph.adjacency()
    dense_cluster_of_node = np.zeros(plan.num_nodes, dtype=np.int64)
    for dense_id, members in enumerate(plan.clusters):
        dense_cluster_of_node[members] = dense_id
    cluster_graph = _cluster_graph(adjacency, dense_cluster_of_node, plan.num_clusters)
    pairs = oracle_cluster_pairs(adjacency, dense_cluster_of_node)
    assert_identical(cluster_graph.src, pairs[:, 0])
    assert_identical(cluster_graph.dst, pairs[:, 1])

    shard_plan = build_shard_plan(graph, plan, num_chips=4)
    for shard in shard_plan.shards:
        # Halo: the per-node slice concatenation and np.unique it replaced.
        referenced = np.concatenate(
            [np.empty(0, dtype=np.int64)]
            + [adjacency.indices[adjacency.indptr[n]:adjacency.indptr[n + 1]] for n in shard.nodes]
        )
        remote = referenced[shard_plan.chip_of_node[referenced] != shard.chip_id]
        assert_identical(shard.halo_nodes, np.unique(remote))
        # Local plan: the dict from global to local ids it replaced.
        local_of_global = {int(node): i for i, node in enumerate(shard.nodes)}
        local = shard.local_plan()
        for members, local_members in zip(shard.clusters, local.clusters):
            expected = np.array([local_of_global[int(n)] for n in members], dtype=np.int64)
            assert_identical(local_members, expected)
