"""Workload characterisation: densities, tile occupancy, bandwidth, breakdowns."""

from repro.analysis.sparsity import (
    DatasetCharacterization,
    characterize_dataset,
    layer_matrix_densities,
)
from repro.analysis.tiles import effective_bandwidth_utilization
from repro.analysis.breakdown import latency_breakdown

__all__ = [
    "DatasetCharacterization",
    "characterize_dataset",
    "layer_matrix_densities",
    "effective_bandwidth_utilization",
    "latency_breakdown",
]
