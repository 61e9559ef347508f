"""Differential tests of the array kernels against the code they replaced.

Each oracle below is the implementation a kernel superseded, kept here
verbatim in spirit: ``np.unique`` for :func:`repro.sparse.sorted_unique`,
the two-``np.unique`` tile statistics for
:func:`repro.sparse.tiling.tile_statistics`, ``np.isin`` for the bitmap
lookup of the HDN ID list oracle, ``np.unique(..., axis=0)`` for the scale-out
cluster-pair dedup, and the dense-first workload construction: the COO
round trips behind ``Graph.adjacency`` and ``Graph.normalized_adjacency``,
the dense feature generator behind ``generate_feature_pattern`` (and behind
the values a layer replays) and HyGCN's densified X.  Hypothesis drives
them over random inputs (empty matrices, empty row strips, non-square
shapes, 1x1 tiles and tiles larger than the matrix; duplicate edges,
self-loops and isolated nodes; feature blocks that do not divide the row
count); the Table I tests run them over every phase
of the eight paper datasets under both the partitioned and the
unpartitioned plan.  Comparisons are exact, dtype included.

GROW's HDN accounting is checked the same way: the rank profile
(:mod:`repro.core.hdn_profile`) against the per-cluster cache loop it
replaced (``oracles.streaming_phase_reference``), phase totals and every
cluster's statistics, on Table I, on the 4-chip shard plans' local plans and
on hypothesis plans with skipped labels, node-less clusters, empty lists,
repeated ids and ids past the matrix.

So is the scale-out chip path: every chip of every Table I shard plan, at
seven GROW configurations and under both shard methods, priced in process
by the engine from the bundle plan's per-cluster counts against the
row-sliced workloads and
renumbered local plan it replaced (``oracles.chip_workloads`` and
``oracles.local_plan``), and every shard plan built from the memoised
cluster coupling against the per-chip-count adjacency scan
(``oracles.build_shard_plan_reference``), on Table I and on hypothesis
graphs and plans.

So are the baselines' replacements: the ``functools.lru_cache`` replay of
:func:`repro.accelerators.gamma.simulate_lru_hits` against the
``OrderedDict`` loop (``oracles.lru_hits_reference``), on heavy-reuse
streams at capacities around their distinct count and length and far past
``sys.maxsize``, and on every Table I stream GAMMA and GROW's LRU HDN cache
replay; and GCNAX priced from its memoised tile profile against the per-tile
float pricing over the full tile statistics
(``oracles.gcnax_phase_reference``), on hypothesis matrices with duplicate
entries and on every Table I LHS, at three DRAM access granularities.
"""

from __future__ import annotations

import dataclasses
import gc
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.accelerators.base import NNZ_BYTES, AcceleratorConfig, AcceleratorResult
from repro.accelerators.gamma import GAMMAConfig, simulate_lru_hits
from repro.accelerators.gcnax import GCNAXConfig, GCNAXSimulator
from repro.accelerators.hygcn import HyGCNSimulator, _nonzero_fraction
from repro.accelerators.workload import SpDeGemmPhase
from repro.core.accelerator import GrowSimulator
from repro.core.config import GrowConfig
from repro.core.preprocess import PreprocessPlan
from repro.gcn import features
from repro.gcn.features import (
    generate_feature_matrix,
    generate_feature_pattern,
    generate_weight_matrix,
)
from repro.graph import registry
from repro.graph.datasets import DATASET_NAMES
from repro.graph.graph import Graph
from repro.harness import default_config
from repro.harness.config import ExperimentConfig
from repro.harness.workloads import get_bundle
from repro.obs import metrics
from repro.scaleout import ScaleOutSimulator, get_shard_plan
from repro.scaleout.shard import SHARD_METHODS, ClusterCoupling, build_shard_plan
from repro.sparse import COOMatrix, CSRMatrix, sorted_unique, tile_statistics
from repro.sparse.convert import coo_to_csr, dense_to_csr
from repro.sparse.tiling import occupied_tile_counts, tile_profile

from oracles import (
    HDNIdList,
    build_shard_plan_reference,
    chip_workloads,
    cluster_graph_reference,
    gcnax_phase_reference,
    local_plan,
    lru_hits_reference,
    streaming_phase_reference,
)


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


def oracle_adjacency(graph):
    """``Graph.adjacency`` through COO: unit values, summed duplicates, binarised."""
    src, dst = graph.src, graph.dst
    if graph.undirected:
        src, dst = np.concatenate([graph.src, graph.dst]), np.concatenate([graph.dst, graph.src])
    n = graph.num_nodes
    csr = coo_to_csr(COOMatrix(shape=(n, n), rows=src, cols=dst, vals=np.ones(src.size)))
    return CSRMatrix(
        shape=csr.shape, indptr=csr.indptr, indices=csr.indices, data=np.ones_like(csr.data)
    )


def oracle_normalized_adjacency(graph, add_self_loops):
    """``D^-1/2 (A + I) D^-1/2`` through COO: A (+ I) deduplicated, then CSR again."""
    adj = oracle_adjacency(graph)
    n = graph.num_nodes
    rows = np.repeat(np.arange(n), adj.row_nnz())
    cols, vals = adj.indices.copy(), adj.data.copy()
    if add_self_loops:
        rows = np.concatenate([rows, np.arange(n)])
        cols = np.concatenate([cols, np.arange(n)])
        vals = np.concatenate([vals, np.ones(n)])
    coo = COOMatrix(shape=(n, n), rows=rows, cols=cols, vals=vals).deduplicate()
    degree = np.bincount(coo.rows, weights=coo.vals, minlength=n)
    inv_sqrt = np.zeros(n)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    normalized = coo.vals * inv_sqrt[coo.rows] * inv_sqrt[coo.cols]
    return coo_to_csr(COOMatrix(shape=(n, n), rows=coo.rows, cols=coo.cols, vals=normalized))


def oracle_feature_csr(num_rows, num_cols, density, rng):
    """The dense n x F generator, compressed afterwards."""
    return dense_to_csr(generate_feature_matrix(num_rows, num_cols, density, rng))


def oracle_hygcn_aggregation(simulator, adjacency, features_csr):
    """HyGCN's aggregation engine fed as before: X densified, density from its mask."""
    dense = features_csr.to_dense()
    density = float((dense != 0).mean()) if dense.size else 0.0
    return simulator._aggregation_engine(adjacency, dense.shape[1], density)


def assert_identical(actual: np.ndarray, expected: np.ndarray) -> None:
    assert actual.dtype == expected.dtype
    np.testing.assert_array_equal(actual, expected)


def assert_csr_identical(actual: CSRMatrix, expected: CSRMatrix) -> None:
    assert actual.shape == expected.shape
    assert_identical(actual.indptr, expected.indptr)
    assert_identical(actual.indices, expected.indices)
    assert_identical(actual.data, expected.data)


def assert_pattern_identical(pattern: CSRMatrix, expected: CSRMatrix) -> None:
    """``pattern`` is ``expected``'s structure, with no values."""
    assert pattern.data is None
    assert pattern.shape == expected.shape
    assert_identical(pattern.indptr, expected.indptr)
    assert_identical(pattern.indices, expected.indices)


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


def assert_shard_plans_identical(actual, expected) -> None:
    assert (actual.num_chips, actual.num_nodes, actual.method) == (
        expected.num_chips,
        expected.num_nodes,
        expected.method,
    )
    assert_identical(actual.chip_of_node, expected.chip_of_node)
    assert_identical(actual.chip_of_cluster, expected.chip_of_cluster)
    assert_identical(actual.halo_counts, expected.halo_counts)
    assert_identical(actual.partial_counts, expected.partial_counts)
    assert len(actual.shards) == len(expected.shards)
    for shard, reference in zip(actual.shards, expected.shards):
        assert shard.chip_id == reference.chip_id
        assert_identical(shard.nodes, reference.nodes)
        assert_identical(shard.clusters, reference.clusters)
        assert_identical(shard.halo_nodes, reference.halo_nodes)
    assert actual.fingerprint() == expected.fingerprint()


def plan_of_labels(labels: np.ndarray, num_clusters: int | None = None) -> PreprocessPlan:
    """A plan whose clusters are the nodes of each label, in label order:
    every label in ``0 .. num_clusters - 1`` (empty ones included), or
    only the labels present, as the preprocessor keeps them."""
    present = sorted_unique(labels.copy()) if num_clusters is None else np.arange(num_clusters)
    clusters = [np.flatnonzero(labels == label) for label in present]
    return PreprocessPlan(
        num_nodes=labels.size,
        cluster_of_node=labels,
        clusters=clusters,
        hdn_lists=[np.empty(0, dtype=np.int64) for _ in clusters],
        hdn_list_capacity=1,
        partitioned=len(clusters) > 1,
    )


def assert_lru_matches_reference(stream: np.ndarray, capacity) -> None:
    assert simulate_lru_hits(stream, capacity) == lru_hits_reference(stream, capacity)


def assert_gcnax_matches_per_tile_pricing(phase, tile_rows, tile_cols, granularity) -> None:
    """The tile profile holds the statistics' totals and tile-size histogram,
    and GCNAX prices it exactly as it priced every tile."""
    stats = tile_statistics(phase.sparse, tile_rows, tile_cols)
    profile = tile_profile(phase.sparse, tile_rows, tile_cols)
    assert (profile.num_tiles, profile.total_nnz, profile.total_distinct_cols) == (
        stats.num_tiles,
        stats.total_nnz,
        stats.total_distinct_cols,
    )
    assert_identical(profile.tiles_with_nnz, np.bincount(stats.nnz_per_tile))
    config = GCNAXConfig(
        arch=AcceleratorConfig(access_granularity=granularity),
        tile_rows=tile_rows,
        tile_cols=tile_cols,
    )
    # Sparse bytes, tile count, mean and distinct columns all reach PhaseStats.
    assert GCNAXSimulator(config).run_phase(phase) == gcnax_phase_reference(config, phase)


def rows_config(rows: int, row_bytes: int, **overrides) -> GrowConfig:
    """A configuration whose HDN cache pins exactly ``rows`` rows."""
    return GrowConfig(
        hdn_cache_bytes=rows * row_bytes, hdn_id_list_bytes=3 * max(rows, 1), **overrides
    )


def assert_profile_matches_loop(config: GrowConfig, phase, plan) -> None:
    simulator = GrowSimulator(config)
    stats = simulator.run_phase(phase, plan)
    expected_stats, expected_clusters = streaming_phase_reference(config, phase, plan)
    assert stats == expected_stats
    assert simulator.cluster_breakdown(phase, plan) == expected_clusters


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


@st.composite
def csr_with_duplicates(draw, max_dim: int = 24):
    """Patterns whose rows repeat columns, in any order."""
    n_rows, n_cols = draw(st.integers(0, max_dim)), draw(st.integers(0, max_dim))
    columns = st.lists(st.integers(0, n_cols - 1), max_size=10) if n_cols else st.just([])
    rows = [draw(columns) for _ in range(n_rows)]
    indptr = np.concatenate([[0], np.cumsum([len(row) for row in rows], dtype=np.int64)])
    indices = np.array([col for row in rows for col in row], dtype=np.int64)
    return CSRMatrix(shape=(n_rows, n_cols), indptr=indptr, indices=indices, data=None)


@st.composite
def lru_streams(draw):
    """Row-reference streams with heavy reuse, and the capacities to replay
    them at: none, tiny, around the distinct count and the length, past
    ``sys.maxsize``, and a numpy integer."""
    ids = st.integers(0, 9) | st.integers(0, 2**40)
    stream = draw(hnp.arrays(np.int64, st.integers(0, 300), elements=ids))
    distinct = len(set(stream.tolist()))
    capacities = [0, 1, 2, distinct - 1, distinct, stream.size, stream.size + 1, 2**70]
    return stream, capacities + [np.int64(max(distinct - 1, 1))]


@st.composite
def graphs(draw):
    """Edge lists with duplicate edges, self-loops and isolated nodes."""
    n = draw(st.integers(1, 16))
    m = draw(st.integers(0, 40))
    src = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    dst = draw(hnp.arrays(np.int64, m, elements=st.integers(0, n - 1)))
    return Graph(num_nodes=n, src=src, dst=dst, undirected=draw(st.booleans()))


@st.composite
def clustered_plans(draw):
    """A square adjacency and a plan over it.

    Labels skip values, node-less clusters sit anywhere in the cluster
    order, and HDN lists may be empty, repeat ids or name ids past the
    matrix.
    """
    n = draw(st.integers(0, 20))
    adjacency = draw(csr_matrices(shape=(n, n)))
    labels = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 6)))
    clusters = [np.flatnonzero(labels == label) for label in sorted_unique(labels)]
    for _ in range(draw(st.integers(0, 2))):
        clusters.insert(draw(st.integers(0, len(clusters))), np.empty(0, dtype=np.int64))
    clusters = draw(st.permutations(clusters))
    hdn_lists = [
        draw(hnp.arrays(np.int64, st.integers(0, 8), elements=st.integers(0, n + 3)))
        for _ in clusters
    ]
    plan = PreprocessPlan(
        num_nodes=n,
        cluster_of_node=labels,
        clusters=list(clusters),
        hdn_lists=hdn_lists,
        hdn_list_capacity=max((ids.size for ids in hdn_lists), default=0) or 1,
        partitioned=len(clusters) > 1,
    )
    return adjacency, plan


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
# The baselines: GCNAX's tile profile vs per-tile pricing, LRU vs OrderedDict


@given(
    csr_matrices() | csr_with_duplicates(),
    tile_dims,
    tile_dims,
    st.sampled_from([32, 64, 128]),
    st.integers(1, 40),
    st.booleans(),
)
@example(dense_to_csr(np.zeros((0, 0))), 1, 1, 64, 1, False)
@example(dense_to_csr(np.zeros((5, 7))), 2, 3, 32, 4, False)
@settings(max_examples=300, deadline=None)
def test_gcnax_tile_profile_pricing_matches_per_tile_loop(
    sparse, tile_rows, tile_cols, granularity, rhs_cols, resident
):
    phase = SpDeGemmPhase(
        "aggregation", sparse, dense_shape=(sparse.n_cols, rhs_cols), rhs_resident=resident
    )
    assert_gcnax_matches_per_tile_pricing(phase, tile_rows, tile_cols, granularity)


@given(lru_streams())
@example((np.empty(0, dtype=np.int64), [0, 1, 2**70, np.int64(3)]))
@settings(max_examples=300, deadline=None)
def test_lru_replay_matches_ordered_dict(case):
    stream, capacities = case
    for capacity in capacities:
        assert_lru_matches_reference(stream, capacity)


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
# HDN rank profile vs the per-cluster cache loop


@given(
    clustered_plans(),
    st.integers(0, 10),
    st.integers(1, 4),
    st.sampled_from(["pinned", "lru"]),
    st.booleans(),
)
@settings(max_examples=300, deadline=None)
def test_hdn_profile_matches_cache_loop(case, rows, rhs_cols, replacement, enabled):
    adjacency, plan = case
    phase = SpDeGemmPhase("aggregation", adjacency, (adjacency.n_cols, rhs_cols))
    config = rows_config(
        rows, phase.rhs_row_bytes, hdn_replacement=replacement, enable_hdn_cache=enabled
    )
    assert_profile_matches_loop(config, phase, plan)


def test_hdn_profile_retains_neither_a_per_nonzero_nor_a_per_slot_array():
    """Its counts are indexed by capacity: O(longest list + clusters) integers."""
    spec = registry.scenario_from_dict(
        {
            "name": "profile-probe-10000",
            "generator": "chung-lu",
            "num_nodes": 10_000,
            "average_degree": 16,
            "num_communities": 64,
            "feature_lengths": [128, 64, 16],
        }
    )
    config = ExperimentConfig(datasets=(spec.name,), scenarios=(spec,), target_cluster_nodes=128)
    bundle = get_bundle(spec.name, config)
    plan, adjacency = bundle.plan, bundle.workloads[0].aggregation.sparse
    gc.collect()
    tracemalloc.start()
    try:
        profile = plan.hdn_profile(adjacency)
        retained, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert plan.num_clusters >= 64 and profile.longest > 500
    assert retained < adjacency.nnz  # under one byte per non-zero
    assert retained < plan.num_clusters * plan.hdn_list_capacity  # under one per list slot
    assert retained < 48 * (profile.longest + plan.num_clusters) + 16_384


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
    coupling = ClusterCoupling(adjacency, plan_of_labels(cluster_of_node, 6))
    pairs = oracle_cluster_pairs(adjacency, cluster_of_node)
    for graph in (coupling.cluster_graph, cluster_graph_reference(adjacency, cluster_of_node, 6)):
        assert_identical(graph.src, pairs[:, 0])
        assert_identical(graph.dst, pairs[:, 1])


@st.composite
def sharded_graphs(draw):
    """A graph, a plan over it with skipped labels, a chip count and method."""
    graph = draw(graphs())
    labels = draw(hnp.arrays(np.int64, graph.num_nodes, elements=st.integers(0, 7)))
    return graph, plan_of_labels(labels), draw(st.integers(1, 10)), draw(st.sampled_from(SHARD_METHODS))


@given(sharded_graphs())
@settings(max_examples=150, deadline=None)
def test_shard_plans_match_the_per_chip_count_scan(case):
    graph, plan, num_chips, method = case
    assert_shard_plans_identical(
        build_shard_plan(graph, plan, num_chips, method=method),
        build_shard_plan_reference(graph, plan, num_chips, method=method),
    )


# ---------------------------------------------------------------------------
# Sparse-first construction vs the COO round trips and the dense generator


@given(graphs())
@example(Graph.from_edge_list(1, [], undirected=True))
@example(Graph.from_edge_list(3, [(0, 1), (0, 1), (1, 0), (2, 2)], undirected=True))
@example(Graph.from_edge_list(3, [(0, 1), (0, 1), (1, 0), (2, 2)], undirected=False))
@settings(max_examples=300, deadline=None)
def test_adjacency_matches_coo_path(graph):
    assert_csr_identical(graph.adjacency(), oracle_adjacency(graph))


@given(graphs(), st.booleans())
@example(Graph.from_edge_list(4, [], undirected=True), True)
@example(Graph.from_edge_list(5, [(0, 0), (0, 1), (3, 3), (4, 1)], undirected=True), True)
@example(Graph.from_edge_list(5, [(0, 0), (0, 1), (3, 3), (4, 1)], undirected=False), True)
@example(Graph.from_edge_list(5, [(0, 0), (0, 1), (3, 3), (4, 1)], undirected=True), False)
@example(Graph.from_edge_list(4, [(3, 0), (2, 1)], undirected=False), True)
@settings(max_examples=300, deadline=None)
def test_normalized_adjacency_matches_coo_path(graph, add_self_loops):
    normalized = graph.normalized_adjacency(add_self_loops=add_self_loops)
    assert_csr_identical(normalized, oracle_normalized_adjacency(graph, add_self_loops))


@given(
    st.integers(0, 40),
    st.integers(0, 12),
    st.sampled_from([0.0, 1e-9, 0.5, 0.772, 1.0]),
    st.integers(1, 64),
    st.integers(0, 2**32),
)
@settings(max_examples=300, deadline=None)
def test_feature_csr_matches_dense_generator(rows, cols, density, block_cells, seed):
    rng = np.random.default_rng(seed)
    with mock.patch.object(features, "_BLOCK_CELLS", block_cells):
        pattern = generate_feature_pattern(rows, cols, density, rng)
    oracle_rng = np.random.default_rng(seed)
    assert_pattern_identical(pattern, oracle_feature_csr(rows, cols, density, oracle_rng))
    # Same draws in the same order: the generator ends in the same state.
    assert rng.random() == oracle_rng.random()


@pytest.mark.parametrize("density", [0.0, 0.5, 1.0])
def test_feature_csr_matches_dense_generator_at_block_size(density):
    cols = 512
    rows = 2 * (features._BLOCK_CELLS // cols) + 7
    rng, oracle_rng = np.random.default_rng(5), np.random.default_rng(5)
    pattern = generate_feature_pattern(rows, cols, density, rng)
    assert_pattern_identical(pattern, oracle_feature_csr(rows, cols, density, oracle_rng))
    assert rng.random() == oracle_rng.random()


@given(csr_matrices())
@example(CSRMatrix(shape=(2, 2), indptr=[0, 2, 2], indices=[0, 1], data=[0.0, 3.0]))
@settings(max_examples=200, deadline=None)
def test_hygcn_density_matches_dense_mask(sparse):
    dense = sparse.to_dense()
    assert _nonzero_fraction(sparse) == (float((dense != 0).mean()) if dense.size else 0.0)
    # A pattern stores non-zeros only: every stored entry counts.
    pattern = CSRMatrix(shape=sparse.shape, indptr=sparse.indptr, indices=sparse.indices, data=None)
    assert _nonzero_fraction(pattern) == (sparse.nnz / dense.size if dense.size else 0.0)


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


@pytest.mark.parametrize("tile", [(32, 32), (16, 64)])
def test_table1_gcnax_pricing_matches_per_tile_loop(bundle, tile):
    for layer in bundle.workloads:
        for phase in layer.phases:
            for granularity in (32, 64, 128):
                assert_gcnax_matches_per_tile_pricing(phase, *tile, granularity)


def test_table1_lru_replays_match_ordered_dict(bundle):
    # GAMMA's fiber cache replays the shared adjacency's column stream at each
    # layer's default capacity.
    adjacency = bundle.workloads[0].aggregation.sparse
    fiber_cache_bytes = GAMMAConfig().fiber_cache_bytes
    for layer in bundle.workloads:
        assert layer.aggregation.sparse is adjacency
        capacity = fiber_cache_bytes // (layer.aggregation.rhs_cols * NNZ_BYTES)
        assert_lru_matches_reference(adjacency.indices, capacity)

    # GROW's demand-based HDN cache replays every cluster's stream at each
    # distinct cache_rows of the layers (the plan memoises a replay per
    # capacity, which layers with equal capacities share).
    replayed = []

    def checked(cols, cache_rows):
        assert_lru_matches_reference(cols, cache_rows)
        replayed.append(cols.size)
        return simulate_lru_hits(cols, cache_rows)

    # A fresh copy of the plan: the bundle plan memoises its replays.
    plan = dataclasses.replace(bundle.plan)
    config = GrowConfig(hdn_replacement="lru")
    capacities = {config.hdn_cache_rows(layer.aggregation.rhs_row_bytes) for layer in bundle.workloads}
    with mock.patch("repro.core.accelerator.simulate_lru_hits", side_effect=checked):
        GrowSimulator(config).run_model(bundle.workloads, plan)
    assert sum(replayed) == len(capacities) * adjacency.nnz


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


@pytest.mark.parametrize("partitioned", [True, False])
def test_table1_hdn_profile_matches_cache_loop(bundle, partitioned):
    plan = bundle.plan if partitioned else bundle.plan_unpartitioned
    longest = max(ids.size for ids in plan.hdn_lists)
    for layer in bundle.workloads:
        phase = layer.aggregation
        row_bytes = phase.rhs_row_bytes
        configs = [rows_config(rows, row_bytes) for rows in (0, 1, longest, longest + 7)]
        configs += [GrowConfig(), GrowConfig(enable_hdn_cache=False)]
        for config in configs:
            assert_profile_matches_loop(config, phase, plan)


def test_table1_chip_profiles_match_cache_loop(bundle):
    # Both layers aggregate over one adjacency object, and so do their chips.
    assert len({id(layer.aggregation.sparse) for layer in bundle.workloads}) == 1
    shard_plan = build_shard_plan(bundle.dataset.graph, bundle.plan, num_chips=4)
    for shard in shard_plan.shards:
        if shard.empty:
            continue
        workloads = chip_workloads(bundle.workloads, shard)
        assert len({id(layer.aggregation.sparse) for layer in workloads}) == 1
        local = local_plan(bundle.plan, shard)
        with metrics.scoped() as recorded:
            GrowSimulator(GrowConfig()).run_model(workloads, local)
        assert recorded["counters"]["grow.hdn_profile.builds"] == 1
        for layer in workloads:
            assert_profile_matches_loop(GrowConfig(), layer.aggregation, local)


def test_table1_shard_plan_matches_oracles(bundle):
    graph, plan = bundle.dataset.graph, bundle.plan
    adjacency = graph.adjacency()
    dense_cluster_of_node = np.zeros(plan.num_nodes, dtype=np.int64)
    for dense_id, members in enumerate(plan.clusters):
        dense_cluster_of_node[members] = dense_id
    coupling = ClusterCoupling(adjacency, plan)
    assert_identical(coupling.cluster_of_node, dense_cluster_of_node)
    pairs = oracle_cluster_pairs(adjacency, dense_cluster_of_node)
    assert_identical(coupling.cluster_graph.src, pairs[:, 0])
    assert_identical(coupling.cluster_graph.dst, pairs[:, 1])

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
        local = local_plan(plan, shard)
        for cluster, local_members in zip(shard.clusters, local.clusters):
            members = plan.clusters[cluster]
            expected = np.array([local_of_global[int(n)] for n in members], dtype=np.int64)
            assert_identical(local_members, expected)


#: The GROW configurations the chip path is checked under: the default, the
#: cache's edge sizes, no cache, no runahead and the LRU cache.
CHIP_CONFIGS = [
    {},
    {"hdn_cache_bytes": 0},
    {"hdn_cache_bytes": 4096},
    {"hdn_cache_bytes": 2**30},
    {"enable_hdn_cache": False},
    {"runahead_degree": 1},
    {"hdn_replacement": "lru"},
]


def table1_chip_counts(plan):
    """Fewer chips than clusters, and more (surplus chips stay empty)."""
    return (1, 2, 3, 4, 8, 16, plan.num_clusters + 3)


@pytest.mark.parametrize("method", SHARD_METHODS)
def test_table1_shard_plans_match_the_per_chip_count_scan(bundle, method):
    graph, plan = bundle.dataset.graph, bundle.plan
    for num_chips in table1_chip_counts(plan):
        assert_shard_plans_identical(
            build_shard_plan(graph, plan, num_chips, method=method),
            build_shard_plan_reference(graph, plan, num_chips, method=method),
        )


@pytest.mark.parametrize("method", SHARD_METHODS)
def test_table1_chip_runs_match_the_row_sliced_path(bundle, method):
    config = default_config()
    dataset = bundle.dataset.name
    for num_chips in table1_chip_counts(bundle.plan):
        shard_plan = build_shard_plan_reference(
            bundle.dataset.graph, bundle.plan, num_chips, method=method, seed=config.seed
        )
        # One slice and one local plan per chip, shared by every config.
        sliced = {
            shard.chip_id: (chip_workloads(bundle.workloads, shard), local_plan(bundle.plan, shard))
            for shard in shard_plan.shards
            if not shard.empty
        }
        for overrides in CHIP_CONFIGS:
            engine = ScaleOutSimulator(
                config=config, topology=num_chips, shard_method=method, grow_overrides=overrides
            )
            chips = engine._chip_results(
                dataset, get_shard_plan(dataset, config, num_chips, method)
            )
            assert len(chips) == num_chips
            for shard, chip in zip(shard_plan.shards, chips):
                name = f"{dataset}[chip{shard.chip_id}/{num_chips}]"
                if shard.empty:
                    expected = AcceleratorResult(accelerator="grow", workload=name)
                else:
                    workloads, local = sliced[shard.chip_id]
                    expected = GrowSimulator(config.grow_config(**overrides)).run_model(
                        workloads, local, name=name
                    )
                assert chip.to_dict() == expected.to_dict()


def test_table1_construction_matches_dense_first_path(bundle):
    graph, dataset = bundle.dataset.graph, bundle.dataset
    assert_csr_identical(graph.adjacency(), oracle_adjacency(graph))
    assert_csr_identical(
        bundle.model.layers[0].adjacency, oracle_normalized_adjacency(graph, add_self_loops=True)
    )
    # The model's draw sequence: each layer's features, then its weights.
    rng = np.random.default_rng(default_config().seed)
    for index, (layer, workload) in enumerate(zip(bundle.model.layers, bundle.workloads)):
        expected = generate_feature_matrix(
            dataset.num_nodes, layer.in_features, dataset.feature_density(index), rng
        )
        assert_identical(layer.weight, generate_weight_matrix(layer.in_features, layer.out_features, rng))
        assert_pattern_identical(layer.features_csr, dense_to_csr(expected))
        # The values come back from the recorded state, bit for bit.
        assert_identical(layer.features, expected)
        assert workload.combination.sparse is layer.features_csr


def test_table1_hygcn_matches_dense_x_path(bundle):
    simulator = HyGCNSimulator(default_config().hygcn_config())
    for layer, workload in zip(bundle.model.layers, bundle.workloads):
        valued = dense_to_csr(layer.features)
        assert_pattern_identical(workload.combination.sparse, valued)
        expected = oracle_hygcn_aggregation(simulator, workload.aggregation.sparse, valued)
        assert simulator.run_layer(workload).phases[0] == expected
        assert simulator.run_layer_from_gcn(layer).phases[0] == expected
