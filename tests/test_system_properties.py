"""Cross-module property-based tests on system-level invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accelerators.base import AcceleratorConfig
from repro.accelerators.gcnax import GCNAXConfig, GCNAXSimulator
from repro.accelerators.workload import SpDeGemmPhase
from repro.core.accelerator import GrowSimulator
from repro.core.config import GrowConfig
from repro.core.preprocess import GrowPreprocessor
from repro.core.runahead import RunaheadModel
from repro.graph.generators import chung_lu_graph
from repro.graph.partition import partition_edge_cut, partition_graph
from repro.sparse.convert import dense_to_csr

from oracles import row_stationary_execute


def _random_phase(
    seed: int, n_rows: int, n_cols: int, density: float, rhs_cols: int
) -> tuple[SpDeGemmPhase, np.ndarray]:
    """A random aggregation phase and the dense RHS it multiplies."""
    rng = np.random.default_rng(seed)
    lhs = (rng.random((n_rows, n_cols)) < density) * rng.standard_normal((n_rows, n_cols))
    rhs = rng.standard_normal((n_cols, rhs_cols))
    return SpDeGemmPhase(name="aggregation", sparse=dense_to_csr(lhs), dense_shape=rhs.shape), rhs


@given(
    seed=st.integers(0, 1000),
    n=st.integers(8, 40),
    density=st.floats(0.01, 0.5),
    rhs_cols=st.integers(1, 16),
)
@settings(max_examples=30, deadline=None)
def test_grow_traffic_and_compute_invariants(seed, n, density, rhs_cols):
    """For any random aggregation phase: requested <= transferred, MACs exact,
    hits + misses == nnz, and the functional output matches the reference."""
    phase, rhs = _random_phase(seed, n, n, density, rhs_cols)
    config = GrowConfig(arch=AcceleratorConfig(bandwidth_gbps=16))
    plan = GrowPreprocessor(hdn_list_capacity=config.hdn_id_capacity).plan_without_partitioning(
        phase.sparse
    )
    stats = GrowSimulator(config).run_phase(phase, plan)
    assert stats.requested_read_bytes <= stats.dram_read_bytes
    assert stats.mac_operations == phase.sparse.nnz * rhs_cols
    assert stats.extra["hdn_hits"] + stats.extra["hdn_misses"] == phase.sparse.nnz
    np.testing.assert_allclose(
        row_stationary_execute(phase.sparse, rhs), phase.sparse.matmul_dense(rhs), atol=1e-9
    )


@given(
    seed=st.integers(0, 1000),
    n=st.integers(8, 40),
    density=st.floats(0.01, 0.5),
    rhs_cols=st.integers(1, 16),
)
@settings(max_examples=30, deadline=None)
def test_gcnax_traffic_invariants(seed, n, density, rhs_cols):
    """GCNAX never transfers less than it requests and always covers the output."""
    phase, _rhs = _random_phase(seed, n, n, density, rhs_cols)
    stats = GCNAXSimulator(GCNAXConfig(arch=AcceleratorConfig(bandwidth_gbps=16))).run_phase(phase)
    assert stats.dram_read_bytes >= stats.requested_read_bytes
    assert stats.dram_write_bytes >= phase.output_bytes
    assert 0.0 <= stats.extra["sparse_bandwidth_utilization"] <= 1.0


@given(
    degree=st.integers(1, 64),
    latency=st.integers(1, 400),
    rows=st.integers(0, 10_000),
)
@settings(max_examples=60, deadline=None)
def test_runahead_stalls_bounded(degree, latency, rows):
    """Exposed stalls are non-negative, bounded by the 1-way case, and scale
    inversely with the effective window."""
    model = RunaheadModel(degree=degree, dram_latency_cycles=latency, ldn_entries=max(16, degree))
    stalls = model.exposed_stall_cycles(rows)
    one_way = RunaheadModel(degree=1, dram_latency_cycles=latency).exposed_stall_cycles(rows)
    assert 0.0 <= stalls <= one_way + 1e-9
    if rows > 0:
        assert stalls >= rows * latency / 64 - 1e-9


@given(
    seed=st.integers(0, 50),
    num_clusters=st.integers(2, 8),
)
@settings(max_examples=15, deadline=None)
def test_partition_always_valid_and_better_than_random(seed, num_clusters):
    """Any partition of any generated graph covers all nodes and cuts no more
    edges than a random assignment (on average)."""
    rng = np.random.default_rng(seed)
    graph = chung_lu_graph(
        num_nodes=int(rng.integers(60, 200)),
        average_degree=float(rng.uniform(3, 10)),
        num_communities=num_clusters,
        intra_community_prob=0.8,
        rng=rng,
    )
    partition = partition_graph(graph, num_clusters, seed=seed)
    assert partition.assignment.size == graph.num_nodes
    assert 0 <= partition.assignment.min() <= partition.assignment.max() < num_clusters
    # "On average": a single random assignment can get lucky on small graphs,
    # so compare against the mean cut of several random assignments — and on
    # small dense graphs split into many clusters the heuristic can land a few
    # per cent above that mean, so allow a 10% margin.  The discriminative
    # cases (few clusters, clustered graph) beat random by 2-3x.
    random_rng = np.random.default_rng(seed + 1)
    random_cut = np.mean(
        [
            partition_edge_cut(
                graph, random_rng.integers(0, num_clusters, graph.num_nodes)
            )
            for _ in range(5)
        ]
    )
    assert partition_edge_cut(graph, partition.assignment) <= random_cut * 1.10


@given(seed=st.integers(0, 50), capacity=st.integers(1, 64))
@settings(max_examples=20, deadline=None)
def test_hdn_plan_hit_rate_monotone_in_capacity(seed, capacity):
    """A larger HDN list can never lower the (single-cluster) hit rate."""
    rng = np.random.default_rng(seed)
    graph = chung_lu_graph(100, 6.0, rng=rng)
    adjacency = graph.adjacency()
    small_plan = GrowPreprocessor(hdn_list_capacity=capacity).plan_without_partitioning(adjacency)
    big_plan = GrowPreprocessor(hdn_list_capacity=capacity * 2).plan_without_partitioning(adjacency)
    columns = adjacency.indices
    small_hits = np.isin(columns, small_plan.hdn_lists[0]).sum()
    big_hits = np.isin(columns, big_plan.hdn_lists[0]).sum()
    assert big_hits >= small_hits
