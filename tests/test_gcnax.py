"""Unit tests for the GCNAX baseline simulator."""

import numpy as np
import pytest

from repro.accelerators.base import AcceleratorConfig
from repro.accelerators.gcnax import GCNAXConfig, GCNAXSimulator
from repro.sparse.convert import dense_to_csr
from repro.sparse.tiling import tile_statistics


@pytest.fixture
def simulator(scaled_arch):
    return GCNAXSimulator(GCNAXConfig(arch=scaled_arch, tile_rows=16, tile_cols=16))


def test_tile_statistics_counts(rng):
    dense = np.zeros((32, 32))
    dense[0, 0] = 1.0
    dense[0, 1] = 1.0
    dense[20, 20] = 1.0
    stats = tile_statistics(dense_to_csr(dense), 16, 16)
    assert stats.num_tiles == 2
    assert stats.total_nnz == 3
    assert stats.total_distinct_cols == 3
    np.testing.assert_array_equal(stats.tile_ids, [0, 3])
    np.testing.assert_array_equal(stats.nnz_per_tile, [2, 1])
    np.testing.assert_array_equal(stats.distinct_cols_per_tile, [2, 1])


def test_tile_statistics_distinct_columns():
    dense = np.zeros((8, 8))
    dense[0, 3] = 1.0
    dense[1, 3] = 1.0  # same tile, same column -> one distinct column
    stats = tile_statistics(dense_to_csr(dense), 8, 8)
    assert stats.total_nnz == 2
    assert stats.total_distinct_cols == 1
    np.testing.assert_array_equal(stats.nnz_per_tile, [2])


def test_tile_statistics_empty():
    stats = tile_statistics(dense_to_csr(np.zeros((4, 4))), 2, 2)
    assert stats.num_tiles == 0
    assert stats.total_nnz == 0
    assert stats.total_distinct_cols == 0


def test_run_phase_traffic_includes_overfetch(simulator, small_workloads):
    phase = small_workloads[0].aggregation
    stats = simulator.run_phase(phase)
    # Transferred bytes can never be below the effectual bytes.
    assert stats.dram_read_bytes >= stats.requested_read_bytes
    assert stats.dram_write_bytes >= phase.output_bytes
    assert stats.mac_operations == phase.mac_operations


def test_sparse_utilization_low_for_sparse_adjacency(simulator, large_workloads):
    phase = large_workloads[0].aggregation
    stats = simulator.run_phase(phase)
    assert stats.extra["sparse_bandwidth_utilization"] < 0.8


def test_resident_rhs_fetched_once(simulator, small_workloads):
    phase = small_workloads[0].combination
    stats = simulator.run_phase(phase)
    # W is fetched exactly once (rounded to DRAM lines).
    assert stats.extra["dense_rows_fetched"] == 0.0
    assert stats.dram_read_bytes <= (
        phase.sparse.nnz * 12 + phase.dense_bytes + 2 * 64 * stats.extra["occupied_tiles"]
    )


def test_run_layer_has_two_phases(simulator, small_workloads):
    result = simulator.run_layer(small_workloads[0])
    assert [p.name for p in result.phases] == ["combination", "aggregation"]
    assert result.total_cycles > 0
    assert set(result.sram_capacities) == {"sparse_buffer", "dense_buffer", "output_buffer"}


def test_run_model_concatenates_layers(simulator, small_workloads):
    result = simulator.run_model(small_workloads, name="cora")
    assert len(result.phases) == 2 * len(small_workloads)
    assert result.workload == "cora"


def test_tile_overhead_increases_latency(scaled_arch, small_workloads):
    no_overhead = GCNAXSimulator(
        GCNAXConfig(arch=scaled_arch, tile_fetch_overhead_cycles=0.0)
    ).run_model(small_workloads)
    with_overhead = GCNAXSimulator(
        GCNAXConfig(arch=scaled_arch, tile_fetch_overhead_cycles=8.0)
    ).run_model(small_workloads)
    assert with_overhead.total_cycles > no_overhead.total_cycles


def test_more_bandwidth_never_slower(small_workloads):
    slow = GCNAXSimulator(GCNAXConfig(arch=AcceleratorConfig(bandwidth_gbps=8))).run_model(small_workloads)
    fast = GCNAXSimulator(GCNAXConfig(arch=AcceleratorConfig(bandwidth_gbps=64))).run_model(small_workloads)
    assert fast.total_cycles <= slow.total_cycles


def test_smaller_tiles_waste_more_bandwidth(scaled_arch, large_workloads):
    phase = large_workloads[0].aggregation
    small_tiles = GCNAXSimulator(GCNAXConfig(arch=scaled_arch, tile_rows=8, tile_cols=8)).run_phase(phase)
    big_tiles = GCNAXSimulator(GCNAXConfig(arch=scaled_arch, tile_rows=64, tile_cols=64)).run_phase(phase)
    assert (
        small_tiles.extra["sparse_bandwidth_utilization"]
        <= big_tiles.extra["sparse_bandwidth_utilization"] + 1e-9
    )


def test_aggregation_wastes_more_bandwidth_than_combination(simulator, large_workloads):
    # At any graph scale, GCNAX's tiled fetch of the (much sparser) adjacency
    # matrix is less effectual than its fetch of the feature matrix; this is
    # the per-phase version of the paper's Figure 6 observation.  (The
    # full-scale "aggregation dominates latency" claim is checked by the
    # Figure 7 benchmark on the default-size datasets.)
    result = simulator.run_layer(large_workloads[0])
    combination, aggregation = result.phases
    utilization = [
        min(1.0, phase.requested_read_bytes / phase.dram_read_bytes)
        for phase in (combination, aggregation)
    ]
    assert utilization[1] <= utilization[0] + 1e-9
