"""Synthetic stand-ins for the paper's eight graph datasets (Table I).

The real datasets (Cora, Citeseer, Pubmed, Flickr, Reddit, Yelp, Pokec,
Amazon) are obtained by the paper through PyTorch Geometric, SNAP and OGB.
This reproduction runs offline, so each dataset is replaced by a synthetic
graph whose statistics match the published values: node count, average
degree (hence adjacency density), degree-distribution shape, community
structure, and the feature lengths / feature-matrix densities of Table I.

Each spec carries both the published statistics (reported for reference) and
the synthetic sizing actually generated (``synthetic_nodes`` /
``synthetic_degree``), chosen so that a full eight-dataset sweep runs in
seconds while preserving the orderings the evaluation depends on: relative
graph sizes, degree ordering, adjacency-density ordering (Reddit stays an
order of magnitude denser than the social/e-commerce graphs), power-law
degree skew, community structure, and the feature widths / feature densities
of Table I.  ``load_dataset(name, num_nodes=...)`` overrides the node count
and rescales the degree to keep the density.

The eight Table I specs are registered as *built-ins* with the runtime
dataset registry (:mod:`repro.graph.registry`); ``load_dataset`` resolves
any registered name — built-in or runtime-defined scenario — and dispatches
on the spec's generator family (chung-lu, erdos-renyi, powerlaw-cluster,
rmat).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.graph import registry
from repro.graph.generators import (
    chung_lu_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    rmat_graph,
)
from repro.graph.graph import Graph
from repro.graph.registry import DatasetSpec

__all__ = [
    "DATASET_NAMES",
    "DatasetSpec",
    "LARGE_DATASETS",
    "SMALL_DATASETS",
    "SyntheticDataset",
    "dataset_spec",
    "load_all_datasets",
    "load_dataset",
]


# Published statistics from Table I of the paper.  Feature lengths are the
# "Feature length" row; densities are the "Density of X(0)" / "X(1)" rows.
# The synthetic node counts preserve the relative-size ordering of Table I;
# the degrees keep the adjacency-density ordering (the large social/
# e-commerce graphs stay the sparsest, Reddit stays an order of magnitude
# denser), which the tile-occupancy and bandwidth characterisation depends on.
_SPECS: dict[str, DatasetSpec] = {
    "cora": DatasetSpec(
        name="cora", num_nodes=2708, num_edges=13264,
        feature_lengths=(1433, 16, 7), density_x0=0.0127, density_x1=0.780,
        num_communities=8, powerlaw_exponent=2.3,
        synthetic_nodes=1000, synthetic_degree=4.9,
    ),
    "citeseer": DatasetSpec(
        name="citeseer", num_nodes=3327, num_edges=12431,
        feature_lengths=(3703, 16, 6), density_x0=0.0085, density_x1=0.891,
        num_communities=8, powerlaw_exponent=2.3,
        synthetic_nodes=1200, synthetic_degree=3.7,
    ),
    "pubmed": DatasetSpec(
        name="pubmed", num_nodes=19717, num_edges=108365,
        feature_lengths=(500, 16, 3), density_x0=0.100, density_x1=0.776,
        num_communities=16, powerlaw_exponent=2.2,
        synthetic_nodes=2500, synthetic_degree=5.5,
    ),
    "flickr": DatasetSpec(
        name="flickr", num_nodes=89250, num_edges=989006,
        feature_lengths=(500, 64, 7), density_x0=0.464, density_x1=0.772,
        num_communities=32, powerlaw_exponent=2.1,
        synthetic_nodes=4000, synthetic_degree=10.0,
    ),
    "reddit": DatasetSpec(
        name="reddit", num_nodes=232965, num_edges=114848857,
        feature_lengths=(602, 64, 41), density_x0=1.00, density_x1=0.639,
        num_communities=50, powerlaw_exponent=1.8,
        synthetic_nodes=3000, synthetic_degree=150.0,
    ),
    "yelp": DatasetSpec(
        name="yelp", num_nodes=716847, num_edges=13954819,
        feature_lengths=(300, 64, 100), density_x0=1.00, density_x1=0.772,
        num_communities=64, powerlaw_exponent=2.0,
        synthetic_nodes=8000, synthetic_degree=14.0,
    ),
    "pokec": DatasetSpec(
        name="pokec", num_nodes=1632803, num_edges=46236731,
        feature_lengths=(60, 64, 48), density_x0=0.399, density_x1=0.772,
        num_communities=64, powerlaw_exponent=2.0,
        synthetic_nodes=10000, synthetic_degree=18.0,
    ),
    "amazon": DatasetSpec(
        name="amazon", num_nodes=2449029, num_edges=126167309,
        feature_lengths=(100, 64, 47), density_x0=0.990, density_x1=0.772,
        num_communities=64, powerlaw_exponent=1.9,
        synthetic_nodes=12000, synthetic_degree=24.0,
    ),
}

for _spec in _SPECS.values():
    registry.register_dataset(_spec, builtin=True)

#: The paper's eight Table I dataset names.  Runtime-registered scenarios
#: are deliberately *not* in this tuple (it is the default dataset list of
#: the experiment configuration); use ``repro.graph.registry.dataset_names``
#: for the full inventory.
DATASET_NAMES: tuple[str, ...] = tuple(_SPECS)

SMALL_DATASETS: tuple[str, ...] = ("cora", "citeseer", "pubmed", "flickr")
LARGE_DATASETS: tuple[str, ...] = ("reddit", "yelp", "pokec", "amazon")

# Feature widths are likewise shrunk proportionally (input width capped) so a
# dense XW matrix stays small; hidden/output widths are kept as published
# because they are already small.
_MAX_SYNTHETIC_INPUT_FEATURES = 128


@dataclass
class SyntheticDataset:
    """A materialised synthetic dataset: graph topology plus GCN dimensions.

    Attributes:
        spec: the published statistics this dataset mimics.
        graph: synthetic graph whose average degree and degree-distribution
            shape match the spec.
        feature_lengths: (possibly shrunk) layer widths used by experiments.
        density_x0, density_x1: feature-matrix densities, straight from the spec.
    """

    spec: DatasetSpec
    graph: Graph
    feature_lengths: tuple[int, ...]
    density_x0: float
    density_x1: float
    seed: int = 0

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_layers(self) -> int:
        return len(self.feature_lengths) - 1

    def feature_density(self, layer: int) -> float:
        """Density of the input feature matrix of layer ``layer``."""
        if layer == 0:
            return self.density_x0
        return self.density_x1


def dataset_spec(name: str) -> DatasetSpec:
    """Look up the statistics of a registered dataset by name.

    Resolves through the runtime registry (:mod:`repro.graph.registry`), so
    both the paper's built-ins and runtime-registered scenarios are found.
    """
    return registry.get_spec(name)


def _generate_graph(spec: DatasetSpec, n: int, degree: float, rng) -> Graph:
    """Dispatch to the spec's generator family.

    A runtime scenario at its own size is honoured exactly (up to the
    physical bounds ``degree <= n - 1`` and ``communities <= n``) — the
    definition *is* the workload.  Built-in stand-ins, and any spec under a
    node-count *override* (smoke shrinking, weak-scaling sweeps), keep the
    calibrated legacy rescaling of degree and community structure.
    """
    if n == spec.synthetic_nodes and not registry.is_builtin(spec.name):
        degree = min(degree, max(1.0, n - 1.0))
        communities = min(spec.num_communities, n)
    else:
        degree = max(1.5, min(degree, n / 4)) if n > 1 else degree
        communities = min(spec.num_communities, max(1, n // 64))
    if spec.generator == "chung-lu":
        return chung_lu_graph(
            num_nodes=n,
            average_degree=degree,
            exponent=spec.powerlaw_exponent,
            num_communities=communities,
            intra_community_prob=spec.intra_community_prob,
            rng=rng,
            name=spec.name,
        )
    if spec.generator == "erdos-renyi":
        return erdos_renyi_graph(n, degree, rng=rng, name=spec.name)
    if spec.generator == "powerlaw-cluster":
        return powerlaw_cluster_graph(n, degree, rng=rng, name=spec.name)
    if spec.generator == "rmat":
        return rmat_graph(
            n, degree, rng=rng, name=spec.name, num_communities=communities
        )
    raise ValueError(
        f"dataset {spec.name!r} names unknown generator {spec.generator!r}; "
        f"choose from {list(registry.GENERATOR_FAMILIES)}"
    )


def load_dataset(
    name: str | None = None,
    num_nodes: int | None = None,
    seed: int = 0,
    spec: DatasetSpec | None = None,
) -> SyntheticDataset:
    """Materialise a registered dataset (built-in or runtime scenario).

    Args:
        name: dataset name (case-insensitive), any registered dataset (see
            ``repro.graph.registry.dataset_names``).
        num_nodes: override the synthetic node count (default: the spec's
            ``synthetic_nodes``).
        seed: RNG seed so datasets are reproducible.
        spec: explicit spec to materialise (skips the registry lookup; used
            by harness configurations that carry their scenario definitions
            across process boundaries).
    """
    if spec is None:
        if name is None:
            raise TypeError("load_dataset needs a dataset name or an explicit spec")
        spec = registry.get_spec(name)
    # An explicit override keeps the historical floor of 16 (smoke shrinking
    # must never degenerate a stand-in) — except for scenarios *defined*
    # smaller than that, whose own size is the floor; a spec's unoverridden
    # node count is honoured exactly: the scenario definition *is* the
    # workload.
    floor = min(16, int(spec.synthetic_nodes))
    n = max(floor, int(num_nodes)) if num_nodes is not None else int(spec.synthetic_nodes)
    # Scale the target degree with any node-count override so density is kept.
    degree = spec.synthetic_degree * (n / spec.synthetic_nodes)
    # A deterministic per-dataset offset (Python's hash() is salted per run).
    name_offset = sum(ord(ch) * (i + 1) for i, ch in enumerate(spec.name))
    rng = np.random.default_rng(seed + name_offset)
    graph = _generate_graph(spec, n, degree, rng)
    # The input width is capped; hidden and output widths are never shrunk.
    input_width = min(spec.feature_lengths[0], _MAX_SYNTHETIC_INPUT_FEATURES)
    feature_lengths = (input_width,) + tuple(spec.feature_lengths[1:])
    return SyntheticDataset(
        spec=spec,
        graph=graph,
        feature_lengths=feature_lengths,
        density_x0=spec.density_x0,
        density_x1=spec.density_x1,
        seed=seed,
    )


def load_all_datasets(
    num_nodes: dict[str, int] | None = None, seed: int = 0
) -> dict[str, SyntheticDataset]:
    """Materialise all eight datasets, keyed by name, in Table I order."""
    overrides = num_nodes or {}
    return {
        name: load_dataset(name, num_nodes=overrides.get(name), seed=seed)
        for name in DATASET_NAMES
    }
