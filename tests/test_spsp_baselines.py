"""Unit tests for the MatRaptor, GAMMA and HyGCN baseline simulators."""

import numpy as np
import pytest

from repro.accelerators.gamma import GAMMAConfig, GAMMASimulator, simulate_lru_hits
from repro.accelerators.hygcn import HyGCNConfig, HyGCNSimulator
from repro.accelerators.matraptor import MatRaptorConfig, MatRaptorSimulator


# ----------------------------------------------------------------------
# MatRaptor
# ----------------------------------------------------------------------

def test_matraptor_fetches_rhs_per_nnz(scaled_arch, small_workloads):
    simulator = MatRaptorSimulator(MatRaptorConfig(arch=scaled_arch))
    phase = small_workloads[0].aggregation
    stats = simulator.run_phase(phase)
    assert stats.extra["rhs_row_fetches"] == phase.sparse.nnz


def test_matraptor_merge_overhead(scaled_arch, small_workloads):
    base = MatRaptorSimulator(MatRaptorConfig(arch=scaled_arch, merge_overhead_factor=1.0))
    heavy = MatRaptorSimulator(MatRaptorConfig(arch=scaled_arch, merge_overhead_factor=2.0))
    phase = small_workloads[0].aggregation
    assert heavy.run_phase(phase).compute_cycles == pytest.approx(
        2 * base.run_phase(phase).compute_cycles
    )


def test_matraptor_run_model(scaled_arch, small_workloads):
    result = MatRaptorSimulator(MatRaptorConfig(arch=scaled_arch)).run_model(small_workloads)
    assert result.accelerator == "matraptor"
    assert result.total_cycles > 0
    assert len(result.phases) == 2 * len(small_workloads)


# ----------------------------------------------------------------------
# GAMMA
# ----------------------------------------------------------------------

def test_lru_all_hits_when_capacity_large():
    stream = np.array([1, 2, 3, 1, 2, 3, 1, 2, 3])
    hits, misses = simulate_lru_hits([stream], capacity_rows=10)
    assert misses == 3  # compulsory misses only
    assert hits == 6


def test_lru_all_misses_when_no_capacity():
    stream = np.array([1, 1, 1])
    hits, misses = simulate_lru_hits([stream], capacity_rows=0)
    assert hits == 0
    assert misses == 3


def test_lru_eviction_order():
    # Capacity 2: the stream 1,2,3,1 evicts 1 before it is reused.
    hits, misses = simulate_lru_hits([np.array([1, 2, 3, 1])], capacity_rows=2)
    assert hits == 0
    assert misses == 4


def test_lru_recency_matters():
    # Capacity 2: 1,2,1,3,1 keeps 1 resident through re-references.
    hits, misses = simulate_lru_hits([np.array([1, 2, 1, 3, 1])], capacity_rows=2)
    assert hits == 2


def test_gamma_hit_rate_reported(scaled_arch, small_workloads):
    simulator = GAMMASimulator(GAMMAConfig(arch=scaled_arch))
    stats = simulator.run_phase(small_workloads[0].aggregation)
    assert 0.0 <= stats.extra["fiber_cache_hit_rate"] <= 1.0
    assert stats.extra["fiber_cache_capacity_rows"] > 0


def test_gamma_bigger_cache_never_more_traffic(scaled_arch, large_workloads):
    phase = large_workloads[0].aggregation
    small_cache = GAMMASimulator(GAMMAConfig(arch=scaled_arch, fiber_cache_bytes=16 * 1024)).run_phase(phase)
    big_cache = GAMMASimulator(GAMMAConfig(arch=scaled_arch, fiber_cache_bytes=512 * 1024)).run_phase(phase)
    assert big_cache.dram_read_bytes <= small_cache.dram_read_bytes


def test_gamma_beats_matraptor(scaled_arch, large_workloads):
    gamma = GAMMASimulator(GAMMAConfig(arch=scaled_arch)).run_model(large_workloads)
    matraptor = MatRaptorSimulator(MatRaptorConfig(arch=scaled_arch)).run_model(large_workloads)
    assert gamma.total_cycles < matraptor.total_cycles
    assert gamma.total_dram_bytes < matraptor.total_dram_bytes


# ----------------------------------------------------------------------
# HyGCN
# ----------------------------------------------------------------------

def test_hygcn_runs_both_engines(scaled_arch, small_workloads):
    result = HyGCNSimulator(HyGCNConfig(arch=scaled_arch)).run_layer(small_workloads[0])
    assert {p.name for p in result.phases} == {"aggregation", "combination"}
    assert 0.0 <= result.extra["load_imbalance"] <= 1.0
    assert result.extra["pipeline_cycles"] <= result.total_cycles


def test_hygcn_combination_macs_are_dense(scaled_arch, small_model, small_workloads):
    layer = small_model.layers[0]
    result = HyGCNSimulator(HyGCNConfig(arch=scaled_arch)).run_layer(small_workloads[0])
    comb = next(p for p in result.phases if p.name == "combination")
    assert comb.mac_operations == layer.num_nodes * layer.in_features * layer.out_features


def test_hygcn_window_hit_rate_bounds(scaled_arch, small_workloads):
    result = HyGCNSimulator(HyGCNConfig(arch=scaled_arch)).run_layer(small_workloads[0])
    agg = next(p for p in result.phases if p.name == "aggregation")
    assert 0.0 <= agg.extra["window_hit_rate"] <= 1.0
