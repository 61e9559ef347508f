"""Unit and behaviour tests for the GROW simulator (the paper's design)."""

import numpy as np
import pytest

from repro.accelerators.base import KB
from repro.accelerators.gcnax import GCNAXConfig, GCNAXSimulator
from repro.accelerators.workload import SpDeGemmPhase
from repro.core.accelerator import GrowSimulator
from repro.core.config import GrowConfig
from repro.core.preprocess import GrowPreprocessor, PreprocessPlan
from repro.graph.graph import Graph

from oracles import row_stationary_execute, streaming_phase_reference


@pytest.fixture
def grow(grow_config):
    return GrowSimulator(grow_config)


def test_functional_output_matches_reference(small_workloads, small_model):
    sparse = small_workloads[0].aggregation.sparse
    xw = small_model.layers[0].combination()
    np.testing.assert_allclose(row_stationary_execute(sparse, xw), sparse.matmul_dense(xw))


def test_combination_phase_has_no_misses(grow, small_workloads, small_plan):
    stats = grow.run_phase(small_workloads[0].combination, small_plan)
    assert stats.extra["hdn_hit_rate"] == 1.0
    assert stats.stall_cycles == 0.0


def test_aggregation_phase_reports_hit_rate(grow, small_workloads, small_plan):
    stats = grow.run_phase(small_workloads[0].aggregation, small_plan)
    assert 0.0 <= stats.extra["hdn_hit_rate"] <= 1.0
    assert stats.extra["num_clusters"] == small_plan.num_clusters
    assert stats.mac_operations == small_workloads[0].aggregation.mac_operations


def test_traffic_conservation(grow, small_workloads, small_plan):
    phase = small_workloads[0].aggregation
    stats = grow.run_phase(phase, small_plan)
    # Reads can never be below the CSR stream of A, and writes cover the output.
    assert stats.dram_read_bytes >= phase.sparse.nnz * 12
    assert stats.dram_write_bytes >= phase.output_bytes
    assert stats.requested_read_bytes <= stats.dram_read_bytes


def test_hits_plus_misses_equals_nnz(grow, large_workloads, large_plan):
    phase = large_workloads[0].aggregation
    stats = grow.run_phase(phase, large_plan)
    assert stats.extra["hdn_hits"] + stats.extra["hdn_misses"] == phase.sparse.nnz


def test_disabling_cache_makes_everything_miss(scaled_arch, large_workloads, large_plan):
    config = GrowConfig(arch=scaled_arch, enable_hdn_cache=False)
    stats = GrowSimulator(config).run_phase(large_workloads[0].aggregation, large_plan)
    assert stats.extra["hdn_hit_rate"] == 0.0
    assert stats.extra["hdn_misses"] == large_workloads[0].aggregation.sparse.nnz


def test_cache_reduces_traffic(scaled_arch, large_workloads, large_plan):
    with_cache = GrowSimulator(GrowConfig(arch=scaled_arch)).run_phase(
        large_workloads[0].aggregation, large_plan
    )
    without_cache = GrowSimulator(GrowConfig(arch=scaled_arch, enable_hdn_cache=False)).run_phase(
        large_workloads[0].aggregation, large_plan
    )
    assert with_cache.dram_read_bytes < without_cache.dram_read_bytes


def test_partitioning_improves_hit_rate_on_clustered_graph(
    scaled_arch, large_workloads, large_plan, small_large_dataset
):
    grow = GrowSimulator(GrowConfig(arch=scaled_arch, hdn_cache_bytes=32 * KB))
    no_gp_plan = GrowPreprocessor().plan_from_graph(small_large_dataset.graph, partitioned=False)
    with_gp = grow.run_phase(large_workloads[0].aggregation, large_plan)
    without_gp = grow.run_phase(large_workloads[0].aggregation, no_gp_plan)
    assert with_gp.extra["hdn_hit_rate"] >= without_gp.extra["hdn_hit_rate"]


def test_runahead_reduces_stalls(scaled_arch, large_workloads, large_plan):
    one_way = GrowSimulator(GrowConfig(arch=scaled_arch, runahead_degree=1)).run_phase(
        large_workloads[0].aggregation, large_plan
    )
    sixteen_way = GrowSimulator(GrowConfig(arch=scaled_arch, runahead_degree=16)).run_phase(
        large_workloads[0].aggregation, large_plan
    )
    assert sixteen_way.stall_cycles <= one_way.stall_cycles
    assert sixteen_way.total_cycles <= one_way.total_cycles


def test_larger_cache_never_hurts_hit_rate(scaled_arch, large_workloads, large_plan):
    small_cache = GrowSimulator(GrowConfig(arch=scaled_arch, hdn_cache_bytes=16 * KB)).run_phase(
        large_workloads[0].aggregation, large_plan
    )
    big_cache = GrowSimulator(GrowConfig(arch=scaled_arch, hdn_cache_bytes=512 * KB)).run_phase(
        large_workloads[0].aggregation, large_plan
    )
    assert big_cache.extra["hdn_hit_rate"] >= small_cache.extra["hdn_hit_rate"]


def test_run_layer_and_model(grow, small_workloads, small_plan):
    layer_result = grow.run_layer(small_workloads[0], small_plan)
    assert [p.name for p in layer_result.phases] == ["combination", "aggregation"]
    model_result = grow.run_model(small_workloads, small_plan, name="cora")
    assert model_result.workload == "cora"
    assert len(model_result.phases) == 2 * len(small_workloads)
    assert set(model_result.sram_capacities) == {
        "i_buf_sparse",
        "hdn_id_list",
        "hdn_cache",
        "o_buf_dense",
    }
    assert 0.0 <= model_result.extra["hdn_hit_rate"] <= 1.0


def test_cluster_breakdown_consistent_with_phase(grow, large_workloads, large_plan):
    phase = large_workloads[0].aggregation
    clusters = grow.cluster_breakdown(phase, large_plan)
    assert len(clusters) == large_plan.num_clusters
    assert sum(c.nnz for c in clusters) == phase.sparse.nnz
    stats = grow.run_phase(phase, large_plan)
    assert sum(c.misses for c in clusters) == stats.extra["hdn_misses"]


def test_a_cluster_with_an_empty_hdn_list_never_hits():
    """Its lookups must not see the ids an earlier cluster left in the ID list."""
    adjacency = Graph.from_edge_list(4, [(0, 1), (2, 1), (3, 1)], undirected=True).adjacency()
    plan = PreprocessPlan(
        num_nodes=4,
        cluster_of_node=np.array([0, 0, 1, 1]),
        clusters=[np.array([0, 1]), np.array([2, 3])],
        hdn_lists=[np.array([0, 1]), np.empty(0, dtype=np.int64)],
        hdn_list_capacity=4096,
        partitioned=True,
    )
    phase = SpDeGemmPhase("aggregation", adjacency, (4, 16))
    config = GrowConfig()
    stats = GrowSimulator(config).run_phase(phase, plan)
    # Cluster {0, 1} hits on columns 1 and 0 and misses on 2 and 3; cluster
    # {2, 3} references column 1 twice and holds no HDN at all.
    assert (stats.extra["hdn_hits"], stats.extra["hdn_misses"]) == (2.0, 4.0)
    assert [c.hits for c in GrowSimulator(config).cluster_breakdown(phase, plan)] == [2, 0]
    assert stats == streaming_phase_reference(config, phase, plan)[0]


def test_cluster_breakdown_rejects_combination(grow, small_workloads, small_plan):
    with pytest.raises(ValueError):
        grow.cluster_breakdown(small_workloads[0].combination, small_plan)


def test_grow_beats_gcnax_on_power_law_graph(scaled_arch, large_workloads, large_plan):
    grow = GrowSimulator(GrowConfig(arch=scaled_arch)).run_model(large_workloads, large_plan)
    gcnax = GCNAXSimulator(GCNAXConfig(arch=scaled_arch)).run_model(large_workloads)
    assert grow.speedup_over(gcnax) > 1.0
    assert grow.total_dram_bytes < gcnax.total_dram_bytes


def test_more_bandwidth_never_slower(large_workloads, large_plan, scaled_arch):
    slow = GrowSimulator(GrowConfig(arch=scaled_arch.with_bandwidth(4.0))).run_model(
        large_workloads, large_plan
    )
    fast = GrowSimulator(GrowConfig(arch=scaled_arch.with_bandwidth(64.0))).run_model(
        large_workloads, large_plan
    )
    assert fast.total_cycles <= slow.total_cycles
