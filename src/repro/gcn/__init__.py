"""GCN model substrate: features, layers, MAC counting."""

from repro.gcn.features import generate_feature_matrix, generate_weight_matrix
from repro.gcn.layer import GCNLayer, GCNModel, build_model_for_dataset
from repro.gcn.ops_count import layer_mac_counts, mac_count_a_xw, mac_count_ax_w

__all__ = [
    "generate_feature_matrix",
    "generate_weight_matrix",
    "GCNLayer",
    "GCNModel",
    "build_model_for_dataset",
    "layer_mac_counts",
    "mac_count_ax_w",
    "mac_count_a_xw",
]
