"""GCN layer and model descriptions.

A :class:`GCNLayer` bundles everything one graph-convolution layer needs:
the normalised adjacency A (sparse), the input feature matrix X (a CSR, or
a sparsity pattern whose values are replayed on demand), and the weight
matrix W (dense).  A :class:`GCNModel` stacks layers, threading each
layer's output features into the next layer's input, which is how
multi-layer inference is simulated end to end.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.gcn.features import FeatureDraws, generate_feature_pattern, generate_weight_matrix
from repro.graph.datasets import SyntheticDataset
from repro.graph.graph import Graph
from repro.sparse.convert import dense_to_csr
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import PatternValuesError, SparsityPattern


@dataclass(init=False)
class GCNLayer:
    """One graph-convolution layer, ``X_out = sigma(A @ X @ W)``.

    The simulators price X by where its non-zeros are, never by what they
    hold, so a model built by :func:`build_model_for_dataset` keeps X as a
    :class:`~repro.sparse.pattern.SparsityPattern` plus the generator state
    its draws began at.  Only the reference paths read values
    (:attr:`features`, :meth:`combination`, :meth:`forward`); each access
    replays the draws.

    Attributes:
        adjacency: normalised adjacency matrix A in CSR form.
        features_csr: input feature matrix X in CSR form, or its sparsity
            pattern; the layer's only copy of X (a dense X given to the
            constructor is compressed).
        weight: dense weight matrix W.
        name: label used in reports (e.g. ``"cora-layer0"``).
        apply_relu: whether the non-linearity is applied to the output.
        feature_draws: where X's draws began, so :attr:`features` can
            replay the values a pattern leaves out; ``None`` otherwise.
    """

    adjacency: CSRMatrix
    features_csr: CSRMatrix | SparsityPattern
    weight: np.ndarray
    name: str
    apply_relu: bool
    feature_draws: FeatureDraws | None

    def __init__(
        self,
        adjacency: CSRMatrix,
        features: CSRMatrix | SparsityPattern | np.ndarray,
        weight: np.ndarray,
        name: str = "layer",
        apply_relu: bool = True,
        feature_draws: FeatureDraws | None = None,
    ) -> None:
        self.adjacency = adjacency
        self.features_csr = (
            features
            if isinstance(features, (CSRMatrix, SparsityPattern))
            else dense_to_csr(features)
        )
        self.weight = np.asarray(weight, dtype=np.float64)
        self.name = name
        self.apply_relu = apply_relu
        self.feature_draws = feature_draws
        n = self.adjacency.n_rows
        if self.adjacency.n_cols != n:
            raise ValueError("adjacency matrix must be square")
        if self.features_csr.n_rows != n:
            raise ValueError(
                f"feature rows ({self.features_csr.n_rows}) must equal number of nodes ({n})"
            )
        if self.weight.shape[0] != self.in_features:
            raise ValueError(
                "weight rows must equal feature columns: "
                f"{self.weight.shape[0]} vs {self.in_features}"
            )

    @property
    def num_nodes(self) -> int:
        return self.adjacency.n_rows

    @property
    def in_features(self) -> int:
        return self.features_csr.n_cols

    @property
    def out_features(self) -> int:
        return self.weight.shape[1]

    @property
    def features(self) -> np.ndarray:
        """X as a dense array, rebuilt on every access (reference paths only).

        A pattern's values are replayed from :attr:`feature_draws`; a
        pattern without them raises :class:`PatternValuesError`.
        """
        if isinstance(self.features_csr, CSRMatrix):
            return self.features_csr.to_dense()
        if self.feature_draws is None:
            raise PatternValuesError(
                f"{self.name}: X is a sparsity pattern and no draws were recorded to replay"
            )
        return self.feature_draws.replay(self.num_nodes, self.in_features)

    @property
    def feature_density(self) -> float:
        """Measured density of the input feature matrix."""
        return self.features_csr.density

    def combination(self) -> np.ndarray:
        """The combination product ``XW`` (dense)."""
        return self.features @ self.weight

    def forward(self, features: np.ndarray | None = None) -> np.ndarray:
        """Reference forward pass ``sigma(A (X W))``, on ``features`` when given."""
        xw = self.combination() if features is None else features @ self.weight
        out = self.adjacency.matmul_dense(xw)
        if self.apply_relu:
            out = np.maximum(out, 0.0)
        return out


@dataclass
class GCNModel:
    """A stack of GCN layers sharing one adjacency matrix."""

    layers: list[GCNLayer]
    name: str = "gcn"

    def __post_init__(self) -> None:
        if not self.layers:
            raise ValueError("model must have at least one layer")
        for prev, nxt in zip(self.layers, self.layers[1:]):
            if prev.out_features != nxt.in_features:
                raise ValueError(
                    f"layer width mismatch: {prev.name} outputs {prev.out_features}, "
                    f"{nxt.name} expects {nxt.in_features}"
                )

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def num_nodes(self) -> int:
        return self.layers[0].num_nodes

    def forward(self) -> np.ndarray:
        """Reference end-to-end forward pass, re-threading features layer to layer."""
        activations = self.layers[0].features
        for layer in self.layers:
            activations = layer.forward(activations)
        return activations


def build_model_for_dataset(
    dataset: SyntheticDataset,
    seed: int = 0,
    graph: Graph | None = None,
) -> GCNModel:
    """Construct a GCN model matching a dataset's published configuration.

    The feature widths and feature densities come from the dataset spec
    (Table I).  Layer 1's input features are generated at the published X(1)
    density rather than taken from layer 0's output, so each layer's sparsity
    structure matches the paper's characterisation independently of the
    numerical forward pass.  X is kept as a sparsity pattern drawn exactly
    as the dense generator draws it (see :class:`GCNLayer`).
    """
    rng = np.random.default_rng(seed)
    source_graph = graph if graph is not None else dataset.graph
    adjacency = source_graph.normalized_adjacency()
    layers: list[GCNLayer] = []
    widths = dataset.feature_lengths
    for layer_idx in range(dataset.num_layers):
        in_width, out_width = widths[layer_idx], widths[layer_idx + 1]
        density = dataset.feature_density(layer_idx)
        draws = FeatureDraws(state=rng.bit_generator.state, density=density)
        features = generate_feature_pattern(dataset.num_nodes, in_width, density, rng)
        weight = generate_weight_matrix(in_width, out_width, rng)
        layers.append(
            GCNLayer(
                adjacency=adjacency,
                features=features,
                weight=weight,
                name=f"{dataset.name}-layer{layer_idx}",
                apply_relu=layer_idx < dataset.num_layers - 1,
                feature_draws=draws,
            )
        )
    return GCNModel(layers=layers, name=dataset.name)
