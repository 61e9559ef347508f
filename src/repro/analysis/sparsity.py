"""Matrix-density characterisation (paper Table I and Figure 3).

The heterogeneous sparsity of the two SpDeGEMMs — the adjacency matrix A is
orders of magnitude sparser than the feature matrix X, while XW and W are
fully dense — is the observation motivating GROW.  These helpers measure the
densities of all four matrices for any dataset/model pair.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gcn.layer import GCNModel
from repro.graph.datasets import SyntheticDataset


@dataclass
class DatasetCharacterization:
    """Measured statistics of one synthetic dataset (the Table I row).

    Attributes:
        name: dataset name.
        num_nodes / num_edges / average_degree: measured graph statistics.
        density_a: density of the adjacency matrix.
        density_x0 / density_x1: densities of the layer input feature matrices.
        density_w: density of the weight matrices (always 1.0).
        feature_lengths: layer widths used by the synthetic model.
    """

    name: str
    num_nodes: int
    num_edges: int
    average_degree: float
    density_a: float
    density_x0: float
    density_x1: float
    density_w: float
    feature_lengths: tuple[int, ...]

    def as_row(self) -> dict[str, object]:
        """Row dictionary for the Table I report."""
        return {
            "dataset": self.name,
            "nodes": self.num_nodes,
            "edges": self.num_edges,
            "avg_degree": round(self.average_degree, 2),
            "density_A": f"{self.density_a:.2e}",
            "density_X0": f"{self.density_x0:.3f}",
            "density_X1": f"{self.density_x1:.3f}",
            "density_W": f"{self.density_w:.1f}",
            "feature_lengths": "-".join(str(w) for w in self.feature_lengths),
        }


def _density(matrix: np.ndarray) -> float:
    matrix = np.asarray(matrix)
    if matrix.size == 0:
        return 0.0
    return float((matrix != 0).sum()) / matrix.size


def characterize_dataset(dataset: SyntheticDataset, model: GCNModel) -> DatasetCharacterization:
    """Measure the Table I statistics of a materialised dataset and its model."""
    graph = dataset.graph
    adjacency = graph.adjacency()
    layer0 = model.layers[0]
    layer1 = model.layers[1] if model.num_layers > 1 else model.layers[0]
    return DatasetCharacterization(
        name=dataset.name,
        num_nodes=graph.num_nodes,
        num_edges=adjacency.nnz,
        average_degree=graph.average_degree,
        density_a=adjacency.density,
        density_x0=layer0.feature_density,
        density_x1=layer1.feature_density,
        density_w=_density(layer0.weight),
        feature_lengths=dataset.feature_lengths,
    )


def layer_matrix_densities(model: GCNModel, layer: int = 0) -> dict[str, float]:
    """Densities of the four matrices of one layer: A, X, XW, W (Figure 3)."""
    if not 0 <= layer < model.num_layers:
        raise IndexError(f"layer {layer} out of range")
    target = model.layers[layer]
    xw = target.combination()
    return {
        "A": target.adjacency.density,
        "X": target.feature_density,
        "XW": _density(xw),
        "W": _density(target.weight),
    }
