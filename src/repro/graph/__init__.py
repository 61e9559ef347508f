"""Graph substrate: containers, synthetic generators, partitioning.

The paper evaluates GROW on eight public graph datasets (Cora through
Amazon).  Because this reproduction runs offline, :mod:`repro.graph.datasets`
provides synthetic stand-ins whose statistics (node count, average degree,
adjacency density, power-law degree distribution, community structure) match
the published values of Table I, with a ``scale`` knob so experiments finish
quickly.
"""

from repro.graph.graph import Graph
from repro.graph.generators import (
    chung_lu_graph,
    erdos_renyi_graph,
    powerlaw_cluster_graph,
    powerlaw_degree_sequence,
    rmat_graph,
)
from repro.graph.registry import (
    GENERATOR_FAMILIES,
    dataset_names,
    define_scenario,
    known_dataset,
    register_dataset,
    scenario_from_dict,
    scenario_to_dict,
    unregister_dataset,
)
from repro.graph.datasets import (
    DATASET_NAMES,
    DatasetSpec,
    SyntheticDataset,
    dataset_spec,
    load_dataset,
    load_all_datasets,
)
from repro.graph.partition import (
    PartitionResult,
    partition_edge_cut,
    partition_graph,
)

__all__ = [
    "Graph",
    "chung_lu_graph",
    "erdos_renyi_graph",
    "powerlaw_cluster_graph",
    "powerlaw_degree_sequence",
    "rmat_graph",
    "GENERATOR_FAMILIES",
    "dataset_names",
    "define_scenario",
    "known_dataset",
    "register_dataset",
    "scenario_from_dict",
    "scenario_to_dict",
    "unregister_dataset",
    "DATASET_NAMES",
    "DatasetSpec",
    "SyntheticDataset",
    "dataset_spec",
    "load_dataset",
    "load_all_datasets",
    "PartitionResult",
    "partition_edge_cut",
    "partition_graph",
]
