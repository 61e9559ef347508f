"""GCN model substrate: features, layers, MAC counting."""

from repro.gcn.features import generate_feature_matrix, generate_weight_matrix
from repro.gcn.layer import GCNLayer, GCNModel, build_model_for_dataset
from repro.gcn.ops_count import (
    ExecutionOrder,
    layer_mac_counts,
    mac_count_a_xw,
    mac_count_ax_w,
    model_mac_counts,
)

__all__ = [
    "generate_feature_matrix",
    "generate_weight_matrix",
    "GCNLayer",
    "GCNModel",
    "build_model_for_dataset",
    "ExecutionOrder",
    "layer_mac_counts",
    "mac_count_ax_w",
    "mac_count_a_xw",
    "model_mac_counts",
]
