"""Unit tests for the SpDeGEMM workload descriptions."""

import dataclasses
import gc
import tracemalloc

import numpy as np
import pytest

from repro.accelerators.gamma import GAMMASimulator
from repro.accelerators.hygcn import HyGCNSimulator
from repro.accelerators.workload import (
    SpDeGemmPhase,
    build_layer_workload,
    build_model_workloads,
)
from repro.core.preprocess import GrowPreprocessor
from repro.graph import registry
from repro.graph.datasets import load_dataset
from repro.graph.generators import rmat_graph
from repro.graph.partition import PartitionResult
from repro.harness.config import ExperimentConfig
from repro.harness.workloads import get_bundle
from repro.scaleout.shard import ClusterCoupling
from repro.sparse import blocks
from repro.sparse.convert import dense_to_csr
from repro.sparse.pattern import SparsityPattern
from repro.sparse.tiling import tile_statistics


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


def _scenario_spec(num_nodes: int):
    return registry.scenario_from_dict(
        {
            "name": f"memory-probe-{num_nodes}",
            "generator": "chung-lu",
            "num_nodes": num_nodes,
            "average_degree": 16,
            "num_communities": 64,
            "feature_lengths": [128, 64, 16],
        }
    )


def _scenario_config(num_nodes: int) -> ExperimentConfig:
    spec = _scenario_spec(num_nodes)
    return ExperimentConfig(datasets=(spec.name,), scenarios=(spec,))


def _storage_bytes(array: np.ndarray) -> int:
    """Bytes an array stores: a zero-stride view stores one element."""
    return array.itemsize if array.ndim == 1 and array.strides == (0,) else array.nbytes


def _csr_bytes(csr) -> int:
    return sum(_storage_bytes(array) for array in (csr.indptr, csr.indices, csr.data))


def _traced(build):
    """``build()``, with the bytes it left allocated and its peak, from zero."""
    gc.collect()
    tracemalloc.start()
    try:
        built = build()
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return built, retained, peak


def test_bundle_construction_memory_is_bounded():
    """A bundle keeps X's structure as bits: no indices, values, dense X or XW.

    numpy reports its buffers to tracemalloc, and Python its objects, so
    both figures are the sizes of what was allocated on any host.  What a
    bundle keeps is its graph's edge list and adjacency pair and its
    feature patterns, indptr plus one bit per cell (plus plans and
    weights, in the slack); A's values are one shared 1.0.  An int64 index
    per kept feature cell, which outweighs all of that, exceeds the first
    bound.  The peak is label propagation's, which runs before A-hat and
    the features exist: its adjacency lists, one pointer per entry sharing
    one int per node, and its per-node label histograms, within three
    pointers an entry.  A fresh int per entry (28 bytes more) exceeds the
    second, and so does A-hat built before the partitioner.
    """
    get_bundle("memory-probe-300", _scenario_config(300))  # imports, registries
    config = _scenario_config(10_000)
    bundle, retained, peak = _traced(lambda: get_bundle("memory-probe-10000", config))
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
    assert peak <= 1.2 * structure + 3 * pointer_bytes
    # A phase holds shapes only: it has no field a dense RHS could live in.
    assert "dense" not in {field.name for field in dataclasses.fields(SpDeGemmPhase)}


def _plan_bytes(plan) -> int:
    return plan.cluster_of_node.nbytes + sum(
        array.nbytes for array in plan.clusters + plan.hdn_lists
    )


def test_cold_path_stages_peak_at_their_output_plus_blocks(monkeypatch):
    """Each cold-path stage holds what it builds plus block-sized scratch.

    Blocks of 2**12 entries make an array as long as A (160k entries at
    10k nodes) forty blocks long, so one such temporary outweighs the
    allowance of blocks; a node-long array (degrees, CDFs, per-row flags,
    a row order) is the other unit.  Generation's output is its candidate
    batch: 1.5 candidates per kept edge, each with a source, a destination
    and, when drawn in its community, a grouped position, within 2.5 times
    the kept edge list.  R-MAT's batch is 2 candidates per missing edge, a
    source and a destination each, under the same bound.  HDN selection
    builds the plan (labels, clusters, HDN lists); the HDN profile and its
    per-cluster counts keep O(longest list + clusters) integers.  Each of
    the three groups the rows by cluster once and walks blocks of whole
    clusters or row blocks of one: the whole-matrix passes read 4.8, 2.3
    and 5.1 MB against bounds of 1.3, 0.9 and 0.9 MB.
    """
    monkeypatch.setattr(blocks, "BLOCK_ENTRIES", 1 << 12)
    block_bytes = 8 * blocks.BLOCK_ENTRIES
    preprocessor = GrowPreprocessor(target_cluster_nodes=512)

    def stages(num_nodes: int):
        spec = _scenario_spec(num_nodes)
        dataset, _, generate_peak = _traced(lambda: load_dataset(spec.name, spec=spec))
        graph = dataset.graph
        adjacency, adjacency_retained, adjacency_peak = _traced(graph.adjacency)
        labels = preprocessor.plan_from_graph(graph).cluster_of_node
        partition = PartitionResult(labels, int(labels.max()) + 1)
        plan, _, select_peak = _traced(
            lambda: preprocessor.plan_from_partition(adjacency, partition)
        )
        normalized, _, normalize_peak = _traced(graph.normalized_adjacency)
        profile, _, profile_peak = _traced(lambda: plan.hdn_profile(normalized))
        _counts, _, counts_peak = _traced(lambda: profile.cluster_counts(profile.longest // 2))
        return graph, adjacency, normalized, plan, {
            "generate": generate_peak,
            "adjacency": adjacency_peak,
            "adjacency retained": adjacency_retained,
            "select": select_peak,
            "normalize": normalize_peak,
            "profile": profile_peak,
            "cluster counts": counts_peak,
        }

    stages(300)  # imports, registries
    graph, adjacency, normalized, plan, peaks = stages(10_000)
    rmat, _, rmat_peak = _traced(lambda: rmat_graph(10_000, 16.0, num_communities=64))
    node_bytes = 8 * graph.num_nodes
    assert adjacency.nnz >= 32 * blocks.BLOCK_ENTRIES
    assert plan.num_clusters >= 16
    edge_bytes = graph.src.nbytes + graph.dst.nbytes
    assert peaks["generate"] <= 2.5 * edge_bytes + 8 * node_bytes + 8 * block_bytes
    rmat_edge_bytes = rmat.src.nbytes + rmat.dst.nbytes
    assert rmat_edge_bytes >= 16 * block_bytes
    assert rmat_peak <= 2.5 * rmat_edge_bytes + 8 * node_bytes + 8 * block_bytes
    assert peaks["adjacency retained"] <= 1.01 * _csr_bytes(adjacency)
    assert peaks["adjacency"] <= _csr_bytes(adjacency) + 3 * node_bytes + 4 * block_bytes
    assert peaks["select"] <= _plan_bytes(plan) + 8 * node_bytes + 8 * block_bytes
    assert peaks["normalize"] <= _csr_bytes(normalized) + 8 * node_bytes + 4 * block_bytes
    assert peaks["profile"] <= 8 * node_bytes + 8 * block_bytes
    assert peaks["cluster counts"] <= 8 * node_bytes + 8 * block_bytes
    # A stores no values: a read-only view of one 1.0.
    assert adjacency.data.strides == (0,)
    assert np.array_equal(adjacency.data, np.ones(adjacency.nnz))
    with pytest.raises(ValueError):
        adjacency.data[0] = 2.0


def test_model_passes_peak_at_their_output_plus_blocks(monkeypatch):
    """The simulators' passes over a 10k-node bundle hold their output plus
    node-long arrays and block-sized scratch.

    With blocks of 2**12 entries, A-hat's 170k non-zeros are over forty
    blocks and X's 640k over 150.  GCNAX's tile statistics hold their
    output twice (the blocks' parts and their concatenation), and so does
    the cluster coupling its distinct cross-cluster keys; GAMMA's LRU
    replay holds one block's Python ints and its cache, HyGCN's window
    count one block.  The whole-matrix passes read, in MB: tiles of X 15.4
    and of A-hat 8.3, coupling 4.4, GAMMA 6.7 and HyGCN 4.1, against bounds
    of 0.64, 4.3, 1.6, 0.42 and 0.42.
    """
    monkeypatch.setattr(blocks, "BLOCK_ENTRIES", 1 << 12)
    block_bytes = 8 * blocks.BLOCK_ENTRIES
    bundle = get_bundle("memory-probe-10000", _scenario_config(10_000))
    layer = bundle.workloads[0]
    pattern, normalized = layer.combination.sparse, layer.aggregation.sparse
    adjacency = bundle.dataset.graph.adjacency()
    node_bytes = 8 * adjacency.n_rows
    assert isinstance(pattern, SparsityPattern)
    assert normalized.nnz >= 40 * blocks.BLOCK_ENTRIES
    assert pattern.nnz >= 150 * blocks.BLOCK_ENTRIES

    for matrix in (pattern, normalized):
        stats, _, peak = _traced(lambda: tile_statistics(matrix, 32, 32))
        output = sum(
            array.nbytes
            for array in (stats.tile_ids, stats.nnz_per_tile, stats.distinct_cols_per_tile)
        )
        assert peak <= 2 * output + 4 * node_bytes + 8 * block_bytes

    coupling, _, peak = _traced(lambda: ClusterCoupling(adjacency, bundle.plan))
    output = sum(
        array.nbytes
        for array in (
            coupling.cluster_of_node,
            coupling.cluster_nnz,
            coupling.halo_pairs,
            coupling.partial_pairs,
            coupling.cluster_graph.src,
            coupling.cluster_graph.dst,
        )
    )
    # Node-long scratch: the clusters' concatenation, their ids repeated,
    # the row counts and their float64 weights.
    assert peak <= 2 * output + 6 * node_bytes + 8 * block_bytes

    _stats, _, peak = _traced(lambda: GAMMASimulator().run_phase(layer.aggregation))
    assert peak <= 2 * node_bytes + 8 * block_bytes

    hygcn = HyGCNSimulator()
    _stats, _, peak = _traced(
        lambda: hygcn._aggregation_engine(normalized, pattern.n_cols, pattern.density)
    )
    assert peak <= 2 * node_bytes + 8 * block_bytes
