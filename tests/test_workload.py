"""Unit tests for the SpDeGEMM workload descriptions."""

import dataclasses
import gc
import tracemalloc

import pytest

from repro.accelerators.workload import (
    SpDeGemmPhase,
    build_layer_workload,
    build_model_workloads,
)
from repro.graph import registry
from repro.harness.config import ExperimentConfig
from repro.harness.workloads import get_bundle
from repro.sparse.convert import dense_to_csr
from repro.sparse.pattern import SparsityPattern


def test_build_layer_workload_shapes(small_model):
    layer = small_model.layers[0]
    workload = build_layer_workload(layer)
    assert workload.combination.sparse.shape == (layer.num_nodes, layer.in_features)
    assert workload.combination.dense_shape == layer.weight.shape
    assert workload.aggregation.sparse.shape == (layer.num_nodes, layer.num_nodes)
    assert workload.aggregation.dense_shape == (layer.num_nodes, layer.out_features)


def test_combination_rhs_is_resident(small_workloads):
    for workload in small_workloads:
        assert workload.combination.rhs_resident is True
        assert workload.aggregation.rhs_resident is False


def test_phase_mac_operations(small_workloads):
    phase = small_workloads[0].aggregation
    assert phase.mac_operations == phase.sparse.nnz * phase.rhs_cols
    assert small_workloads[0].mac_operations == (
        small_workloads[0].combination.mac_operations + phase.mac_operations
    )


def test_phase_byte_helpers(small_workloads):
    phase = small_workloads[0].aggregation
    assert phase.rhs_row_bytes == phase.rhs_cols * 8
    assert phase.output_bytes == phase.output_shape[0] * phase.output_shape[1] * 8
    assert phase.dense_bytes == phase.dense_shape[0] * phase.dense_shape[1] * 8


def test_phase_dimension_validation(rng):
    sparse = dense_to_csr(rng.standard_normal((4, 5)))
    with pytest.raises(ValueError):
        SpDeGemmPhase(name="bad", sparse=sparse, dense_shape=(6, 3))


def test_build_model_workloads(small_model):
    workloads = build_model_workloads(small_model)
    assert len(workloads) == small_model.num_layers
    assert all(w.num_nodes == small_model.num_nodes for w in workloads)


def _scenario_config(num_nodes: int) -> ExperimentConfig:
    spec = registry.scenario_from_dict(
        {
            "name": f"memory-probe-{num_nodes}",
            "generator": "chung-lu",
            "num_nodes": num_nodes,
            "average_degree": 16,
            "num_communities": 64,
            "feature_lengths": [128, 64, 16],
        }
    )
    return ExperimentConfig(datasets=(spec.name,), scenarios=(spec,))


def _csr_bytes(csr) -> int:
    return csr.indptr.nbytes + csr.indices.nbytes + csr.data.nbytes


def test_bundle_construction_memory_is_bounded():
    """A bundle keeps X's structure as bits: no indices, values, dense X or XW.

    numpy reports its buffers to tracemalloc, and Python its objects, so
    both figures are the sizes of what was allocated on any host.  What a
    bundle keeps is its graph's edge list and adjacency pair and its
    feature patterns, indptr plus one bit per cell (plus plans and
    weights, in the slack); an int64 index per kept feature cell, which
    outweighs all of that, exceeds the first bound.  The peak is label
    propagation's: its adjacency lists, one pointer per entry sharing one
    int per node, and its per-node label histograms, within five pointers
    an entry.  A fresh int per entry (28 bytes more) exceeds the second.
    """
    get_bundle("memory-probe-300", _scenario_config(300))  # imports, registries
    config = _scenario_config(10_000)
    gc.collect()
    tracemalloc.start()
    try:
        bundle = get_bundle("memory-probe-10000", config)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    layers = bundle.model.layers
    graph = bundle.dataset.graph
    assert all(isinstance(layer.features_csr, SparsityPattern) for layer in layers)
    for layer in layers:
        assert layer.features_csr.bits.nbytes == layer.num_nodes * -(-layer.in_features // 8)
    pattern_bytes = sum(
        layer.features_csr.indptr.nbytes + layer.features_csr.bits.nbytes for layer in layers
    )
    adjacency_bytes = _csr_bytes(graph.adjacency()) + _csr_bytes(layers[0].adjacency)
    structure = pattern_bytes + adjacency_bytes + graph.src.nbytes + graph.dst.nbytes
    pointer_bytes = 8 * graph.adjacency().nnz
    assert retained <= 1.2 * structure
    assert peak <= 1.2 * structure + 5 * pointer_bytes
    # A phase holds shapes only: it has no field a dense RHS could live in.
    assert "dense" not in {field.name for field in dataclasses.fields(SpDeGemmPhase)}
