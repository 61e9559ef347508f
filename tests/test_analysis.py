"""Unit tests for the characterisation/analysis helpers."""

import numpy as np
import pytest

from repro.accelerators.base import AcceleratorResult, PhaseStats
from repro.analysis.breakdown import latency_breakdown
from repro.analysis.sparsity import characterize_dataset, layer_matrix_densities
from repro.analysis.tiles import effective_bandwidth_utilization
from repro.sparse.convert import dense_to_csr


def test_characterize_dataset(small_dataset, small_model):
    row = characterize_dataset(small_dataset, small_model)
    assert row.name == "cora"
    assert row.num_nodes == small_dataset.num_nodes
    assert row.num_edges == small_dataset.graph.num_edges
    assert 0 < row.density_a < 1
    assert row.density_w == 1.0
    table_row = row.as_row()
    assert table_row["dataset"] == "cora"


def test_layer_matrix_densities(small_model):
    densities = layer_matrix_densities(small_model, layer=0)
    assert set(densities) == {"A", "X", "XW", "W"}
    assert densities["W"] == 1.0
    assert densities["A"] < densities["XW"]
    with pytest.raises(IndexError):
        layer_matrix_densities(small_model, layer=9)


def test_effective_bandwidth_utilization_bounds():
    # One non-zero per tile: 12 effectual bytes of a 64-byte line.
    dense = np.zeros((64, 64))
    dense[0, 0] = 1.0
    dense[40, 40] = 1.0
    util = effective_bandwidth_utilization(dense_to_csr(dense), 32, 32)
    assert util == pytest.approx(12 / 64)
    assert effective_bandwidth_utilization(dense_to_csr(np.zeros((8, 8))), 4, 4) == 0.0


def test_dense_tiles_fully_utilized():
    dense = np.ones((32, 32))
    util = effective_bandwidth_utilization(dense_to_csr(dense), 32, 32)
    assert util > 0.95


def _result_with(agg_cycles, comb_cycles):
    result = AcceleratorResult(accelerator="x", workload="w")
    result.phases = [
        PhaseStats(name="combination", compute_cycles=comb_cycles),
        PhaseStats(name="aggregation", compute_cycles=agg_cycles),
    ]
    return result


def test_latency_breakdown_and_fraction():
    result = _result_with(agg_cycles=300, comb_cycles=100)
    breakdown = latency_breakdown(result)
    assert breakdown["aggregation"] == 300
    assert breakdown["total"] == 400
    assert breakdown["aggregation"] / breakdown["total"] == pytest.approx(0.75)
    assert latency_breakdown(_result_with(0, 0))["total"] == 0
