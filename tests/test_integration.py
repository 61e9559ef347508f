"""End-to-end integration tests across the whole stack."""

import numpy as np
import pytest

from repro.accelerators.gcnax import GCNAXConfig, GCNAXSimulator
from repro.accelerators.workload import build_model_workloads
from repro.core import GrowConfig, GrowPreprocessor, GrowSimulator
from repro.energy.energy_model import estimate_energy
from repro.energy.area import grow_area_breakdown
from repro.gcn.layer import build_model_for_dataset
from repro.graph.datasets import load_dataset
from repro.sparse.convert import dense_to_csr
from repro.sparse.pattern import SparsityPattern

from oracles import pattern_indices, relabel, row_stationary_execute


def test_dataset_to_simulation_pipeline(scaled_arch):
    """The full pipeline: dataset -> model -> preprocessing -> simulation -> energy."""
    dataset = load_dataset("yelp", num_nodes=500, seed=2)
    model = build_model_for_dataset(dataset, seed=2)
    workloads = build_model_workloads(model)
    plan = GrowPreprocessor(target_cluster_nodes=150, seed=2).plan_from_graph(dataset.graph)
    plan.validate()

    grow = GrowSimulator(GrowConfig(arch=scaled_arch)).run_model(workloads, plan)
    gcnax = GCNAXSimulator(GCNAXConfig(arch=scaled_arch)).run_model(workloads)

    assert grow.total_cycles > 0 and gcnax.total_cycles > 0
    energy = estimate_energy(
        mac_operations=grow.total_mac_operations,
        dram_bytes=grow.total_dram_bytes,
        sram_access_events={
            name: (capacity, grow.sram_access_bytes().get(name, 0))
            for name, capacity in grow.sram_capacities.items()
        },
        runtime_cycles=grow.total_cycles,
        area_mm2=grow_area_breakdown(technology_nm=40).total_mm2,
    )
    assert energy.total_nj > 0


def test_simulated_dataflow_is_functionally_correct_end_to_end(scaled_arch):
    """The row-stationary dataflow computes exactly the reference GCN output."""
    dataset = load_dataset("citeseer", num_nodes=220, seed=4)
    model = build_model_for_dataset(dataset, seed=4)
    workloads = build_model_workloads(model)
    # Layer 0: the simulated dataflow's product equals the model's combination/
    # aggregation products.  The workload keeps X's structure; its values are
    # the layer's replayed draws.
    layer0 = workloads[0]
    features = dense_to_csr(model.layers[0].features)
    assert isinstance(layer0.combination.sparse, SparsityPattern)
    np.testing.assert_array_equal(layer0.combination.sparse.indptr, features.indptr)
    np.testing.assert_array_equal(pattern_indices(layer0.combination.sparse), features.indices)
    xw = row_stationary_execute(features, model.layers[0].weight)
    np.testing.assert_allclose(xw, model.layers[0].combination(), atol=1e-9)
    aggregated = row_stationary_execute(layer0.aggregation.sparse, xw)
    np.testing.assert_allclose(
        np.maximum(aggregated, 0.0), model.layers[0].forward(), atol=1e-9
    )
    # The full reference model still runs.
    output = model.forward()
    assert output.shape == (dataset.num_nodes, dataset.feature_lengths[-1])


def test_same_workload_all_simulators_same_macs(scaled_arch, small_workloads, small_plan):
    """All simulators account the same number of effectual MACs for a workload."""
    from repro.accelerators.gamma import GAMMAConfig, GAMMASimulator
    from repro.accelerators.matraptor import MatRaptorConfig, MatRaptorSimulator

    grow = GrowSimulator(GrowConfig(arch=scaled_arch)).run_model(small_workloads, small_plan)
    gcnax = GCNAXSimulator(GCNAXConfig(arch=scaled_arch)).run_model(small_workloads)
    matraptor = MatRaptorSimulator(MatRaptorConfig(arch=scaled_arch)).run_model(small_workloads)
    gamma = GAMMASimulator(GAMMAConfig(arch=scaled_arch)).run_model(small_workloads)
    assert (
        grow.total_mac_operations
        == gcnax.total_mac_operations
        == matraptor.total_mac_operations
        == gamma.total_mac_operations
    )


def test_partitioned_and_unpartitioned_plans_simulate_same_work(scaled_arch, large_workloads, small_large_dataset):
    """Graph partitioning changes traffic/hit rates but never the work done."""
    preprocessor = GrowPreprocessor(target_cluster_nodes=200, seed=3)
    plan_gp = preprocessor.plan_from_graph(small_large_dataset.graph, partitioned=True)
    plan_no = preprocessor.plan_from_graph(small_large_dataset.graph, partitioned=False)
    grow = GrowSimulator(GrowConfig(arch=scaled_arch))
    with_gp = grow.run_model(large_workloads, plan_gp)
    without_gp = grow.run_model(large_workloads, plan_no)
    assert with_gp.total_mac_operations == without_gp.total_mac_operations
    lookups_gp = sum(p.extra.get("hdn_hits", 0) + p.extra.get("hdn_misses", 0) for p in with_gp.phases)
    lookups_no = sum(p.extra.get("hdn_hits", 0) + p.extra.get("hdn_misses", 0) for p in without_gp.phases)
    assert lookups_gp == lookups_no


def test_relabelled_graph_gives_identical_simulation(scaled_arch):
    """Renumbering nodes (what partitioning does on real hardware) does not
    change any simulated total, only the layout of the adjacency matrix."""
    dataset = load_dataset("pokec", num_nodes=400, seed=5)
    model = build_model_for_dataset(dataset, seed=5)
    workloads = build_model_workloads(model)
    config = GrowConfig(arch=scaled_arch)
    preprocessor = GrowPreprocessor(hdn_list_capacity=config.hdn_id_capacity)
    plan = preprocessor.plan_from_graph(dataset.graph, partitioned=False)
    baseline = GrowSimulator(config).run_model(workloads, plan)

    rng = np.random.default_rng(0)
    permutation = rng.permutation(dataset.num_nodes)
    relabelled_graph = relabel(dataset.graph, permutation)
    relabelled_model = build_model_for_dataset(dataset, seed=5, graph=relabelled_graph)
    relabelled_workloads = build_model_workloads(relabelled_model)
    relabelled_plan = preprocessor.plan_from_graph(relabelled_graph, partitioned=False)
    relabelled = GrowSimulator(config).run_model(relabelled_workloads, relabelled_plan)

    assert relabelled.total_mac_operations == baseline.total_mac_operations
    # Global (single-cluster) HDN caching is permutation-invariant.
    assert relabelled.extra["hdn_hit_rate"] == pytest.approx(
        baseline.extra["hdn_hit_rate"], abs=1e-9
    )
