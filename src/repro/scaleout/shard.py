"""Partition-aware sharding: assign graph clusters to chips, derive halos.

The scale-out system reuses GROW's own preprocessing artefact — the
:class:`~repro.core.preprocess.PreprocessPlan` produced by graph
partitioning — as its unit of distribution: whole clusters are assigned to
chips, never individual nodes, so each chip keeps the intra-cluster locality
the HDN cache depends on.

Two assignment methods are provided, mirroring :mod:`repro.graph.partition`:

* ``"metis"`` — build the *cluster graph* (one vertex per cluster, an edge
  where adjacency non-zeros cross the cluster boundary) and partition it
  with :func:`~repro.graph.partition.metis_like_partition`, so
  strongly-coupled clusters land on the same chip and inter-chip traffic is
  minimised.
* ``"greedy"`` — longest-processing-time packing of clusters onto chips by
  non-zero count (the PE-array scheduling rule shared with
  :mod:`repro.core.multi_pe`), balancing load but ignoring coupling.

From the assignment the planner derives, per chip, the owned node set, the
per-chip renumbered :class:`PreprocessPlan`, the row-sliced per-chip
workloads, and the *halo*: remote nodes whose dense (XW) rows the chip's
aggregation references.  Two exchange patterns are quantified as chip-pair
matrices:

* ``halo_counts[src, dst]`` — dense rows owned by ``src`` that ``dst`` must
  fetch before aggregating (the halo-exchange pattern);
* ``partial_counts[src, dst]`` — output rows owned by ``dst`` for which
  ``src`` holds at least one referenced column, i.e. partially-aggregated
  rows ``src`` would send if the reduction were distributed instead.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.accelerators.workload import LayerWorkload, SpDeGemmPhase
from repro.core.multi_pe import greedy_longest_first
from repro.core.preprocess import PreprocessPlan
from repro.graph.graph import Graph
from repro.graph.partition import partition_graph
from repro.sparse.csr import CSRMatrix
from repro.sparse.unique import sorted_unique

#: Cluster-to-chip assignment methods.
SHARD_METHODS = ("metis", "greedy")


@dataclass
class ChipShard:
    """Everything one chip owns under a shard plan.

    Attributes:
        chip_id: the chip this shard belongs to.
        nodes: global node ids owned by the chip, ascending (these are the
            output rows the chip computes).
        clusters: owned clusters as global-node-id arrays, in the global
            plan's cluster order.
        hdn_lists: per owned cluster, the global ids of its HDN columns.
        halo_nodes: global ids of remote nodes referenced by the chip's
            adjacency rows (their dense rows must arrive over the fabric).
    """

    chip_id: int
    nodes: np.ndarray
    clusters: list[np.ndarray]
    hdn_lists: list[np.ndarray]
    halo_nodes: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def empty(self) -> bool:
        """True when the chip owns no nodes (more chips than clusters)."""
        return self.nodes.size == 0

    def local_plan(self) -> PreprocessPlan:
        """The chip's preprocessing plan in *local row* coordinates.

        Rows are renumbered to ``0 .. num_nodes - 1`` in ascending global-id
        order (matching :meth:`chip_workloads` row slicing); HDN lists keep
        global column ids because the dense RHS keeps its global indexing.
        """
        cluster_of_node = np.zeros(self.num_nodes, dtype=np.int64)
        local_clusters: list[np.ndarray] = []
        for local_cluster_id, members in enumerate(self.clusters):
            # ``nodes`` is ascending and holds every member: a member's local
            # id is its position there.
            local_members = np.searchsorted(self.nodes, members)
            local_clusters.append(local_members)
            cluster_of_node[local_members] = local_cluster_id
        return PreprocessPlan(
            num_nodes=self.num_nodes,
            cluster_of_node=cluster_of_node,
            clusters=local_clusters,
            hdn_lists=[lst.copy() for lst in self.hdn_lists],
            hdn_list_capacity=max((lst.size for lst in self.hdn_lists), default=0) or 1,
            partitioned=len(local_clusters) > 1,
        )


@dataclass
class ShardPlan:
    """Assignment of a partitioned graph to the chips of a topology.

    Attributes:
        num_chips: chips in the system (shards list has exactly this length).
        num_nodes: nodes of the underlying graph.
        chip_of_node: owning chip of every node.
        chip_of_cluster: owning chip of every cluster of the source plan.
        shards: per-chip shard, indexed by chip id.
        halo_counts: ``[src, dst]`` dense rows ``dst`` fetches from ``src``.
        partial_counts: ``[src, dst]`` partial output rows ``src`` would send
            to ``dst`` under a distributed reduction.
        method: assignment method used (``"metis"`` or ``"greedy"``).
    """

    num_chips: int
    num_nodes: int
    chip_of_node: np.ndarray
    chip_of_cluster: np.ndarray
    shards: list[ChipShard]
    halo_counts: np.ndarray
    partial_counts: np.ndarray
    method: str

    def validate(self) -> None:
        """Check that shards cover every node exactly once, halos are remote."""
        seen = (
            np.concatenate([shard.nodes for shard in self.shards])
            if self.shards
            else np.empty(0, dtype=np.int64)
        )
        if seen.size != self.num_nodes or sorted_unique(seen).size != self.num_nodes:
            raise ValueError("shards must cover every node exactly once")
        for shard in self.shards:
            if shard.halo_nodes.size and np.any(
                self.chip_of_node[shard.halo_nodes] == shard.chip_id
            ):
                raise ValueError(f"chip {shard.chip_id} lists an owned node in its halo")
        if self.halo_counts.shape != (self.num_chips, self.num_chips):
            raise ValueError("halo_counts must be a num_chips x num_chips matrix")
        if np.any(np.diag(self.halo_counts)) or np.any(np.diag(self.partial_counts)):
            raise ValueError("chips never exchange with themselves")

    @property
    def halo_rows_total(self) -> int:
        """Total dense rows crossing chips under halo exchange (per layer)."""
        return int(self.halo_counts.sum())

    @property
    def partial_rows_total(self) -> int:
        """Total partial rows crossing chips under distributed reduction."""
        return int(self.partial_counts.sum())

    def fingerprint(self) -> dict[str, Any]:
        """JSON-safe identity used in reports and cache keys."""
        return {
            "num_chips": self.num_chips,
            "num_nodes": self.num_nodes,
            "method": self.method,
            "nodes_per_chip": [shard.num_nodes for shard in self.shards],
            "halo_rows_total": self.halo_rows_total,
            "partial_rows_total": self.partial_rows_total,
        }


def _cluster_graph(adjacency, cluster_of_node: np.ndarray, num_clusters: int) -> Graph:
    """The cluster-coupling graph: one vertex per cluster, edges where
    adjacency non-zeros cross cluster boundaries."""
    row_ids = np.repeat(np.arange(adjacency.n_rows), adjacency.row_nnz())
    src_clusters = cluster_of_node[row_ids]
    dst_clusters = cluster_of_node[adjacency.indices]
    cross = src_clusters != dst_clusters
    # Distinct (src, dst) pairs in lexicographic order, as one int64 key each.
    keys = sorted_unique(src_clusters[cross] * np.int64(num_clusters) + dst_clusters[cross])
    return Graph(
        num_nodes=num_clusters,
        src=keys // num_clusters,
        dst=keys % num_clusters,
        name="cluster-graph",
        undirected=False,
    )


def _assign_clusters(
    adjacency,
    plan: PreprocessPlan,
    num_chips: int,
    method: str,
    seed: int,
) -> np.ndarray:
    """Chip id of every cluster of ``plan``."""
    if method not in SHARD_METHODS:
        raise ValueError(f"unknown shard method {method!r}; choose from {SHARD_METHODS}")
    num_clusters = plan.num_clusters
    row_nnz = adjacency.row_nnz()
    cluster_nnz = np.array(
        [int(row_nnz[members].sum()) for members in plan.clusters], dtype=np.float64
    )
    if num_chips == 1:
        return np.zeros(num_clusters, dtype=np.int64)
    if method == "greedy" or num_clusters <= num_chips:
        # One cluster per chip (or fewer clusters than chips): LPT packing is
        # optimal and the cluster graph degenerates, so skip partitioning.
        return greedy_longest_first(cluster_nnz, num_chips)
    # Renumber plan clusters densely (cluster_of_node may skip empty ids).
    dense_cluster_of_node = np.zeros(plan.num_nodes, dtype=np.int64)
    for dense_id, members in enumerate(plan.clusters):
        dense_cluster_of_node[members] = dense_id
    graph = _cluster_graph(adjacency, dense_cluster_of_node, num_clusters)
    partition = partition_graph(graph, num_chips, seed=seed)
    return partition.assignment


def build_shard_plan(
    graph: Graph,
    plan: PreprocessPlan,
    num_chips: int,
    method: str = "metis",
    seed: int = 0,
) -> ShardPlan:
    """Assign the clusters of a preprocessing plan to ``num_chips`` chips.

    Args:
        graph: the source graph (its adjacency defines the halo sets).
        plan: GROW preprocessing plan whose clusters are the shard units.
        num_chips: chips to shard across; chips beyond the cluster count
            receive empty shards.
        method: ``"metis"`` (cluster-graph partitioning, the default) or
            ``"greedy"`` (LPT packing by non-zero count).
        seed: partitioner seed (``"metis"`` only).
    """
    if num_chips < 1:
        raise ValueError("num_chips must be at least 1")
    adjacency = graph.adjacency()
    chip_of_cluster = _assign_clusters(adjacency, plan, num_chips, method, seed)

    chip_of_node = np.zeros(plan.num_nodes, dtype=np.int64)
    for cluster_id, members in enumerate(plan.clusters):
        chip_of_node[members] = chip_of_cluster[cluster_id]

    shards: list[ChipShard] = []
    for chip in range(num_chips):
        clusters = [
            members
            for cluster_id, members in enumerate(plan.clusters)
            if chip_of_cluster[cluster_id] == chip
        ]
        hdn_lists = [
            plan.hdn_lists[cluster_id]
            for cluster_id in range(plan.num_clusters)
            if chip_of_cluster[cluster_id] == chip
        ]
        nodes = (
            np.sort(np.concatenate(clusters), kind="stable")
            if clusters
            else np.empty(0, dtype=np.int64)
        )
        referenced = adjacency.select_rows(nodes).indices
        halo = sorted_unique(referenced[chip_of_node[referenced] != chip])
        shards.append(
            ChipShard(
                chip_id=chip,
                nodes=nodes,
                clusters=clusters,
                hdn_lists=hdn_lists,
                halo_nodes=halo,
            )
        )

    halo_counts = np.zeros((num_chips, num_chips), dtype=np.int64)
    for shard in shards:
        if shard.halo_nodes.size:
            owners, counts = np.unique(chip_of_node[shard.halo_nodes], return_counts=True)
            halo_counts[owners, shard.chip_id] = counts

    # Distributed-reduction pairs: one partial row per (column-owner chip,
    # output row) pair whose column owner differs from the row owner.
    partial_counts = np.zeros((num_chips, num_chips), dtype=np.int64)
    if adjacency.nnz and num_chips > 1:
        row_ids = np.repeat(np.arange(adjacency.n_rows), adjacency.row_nnz())
        row_chip = chip_of_node[row_ids]
        col_chip = chip_of_node[adjacency.indices]
        cross = row_chip != col_chip
        if cross.any():
            # Unique (column owner, output row) pairs, then count per chip pair.
            key = col_chip[cross].astype(np.int64) * plan.num_nodes + row_ids[cross]
            unique_keys = sorted_unique(key)
            src = unique_keys // plan.num_nodes
            dst = chip_of_node[unique_keys % plan.num_nodes]
            pair_key = src * num_chips + dst
            pairs, counts = np.unique(pair_key, return_counts=True)
            partial_counts[pairs // num_chips, pairs % num_chips] = counts

    shard_plan = ShardPlan(
        num_chips=num_chips,
        num_nodes=plan.num_nodes,
        chip_of_node=chip_of_node,
        chip_of_cluster=chip_of_cluster,
        shards=shards,
        halo_counts=halo_counts,
        partial_counts=partial_counts,
        method=method,
    )
    shard_plan.validate()
    return shard_plan


def chip_workloads(workloads: list[LayerWorkload], shard: ChipShard) -> list[LayerWorkload]:
    """Row-slice a model's layer workloads down to one chip's owned rows.

    The chip computes the output rows of its owned nodes: its combination
    streams the owned rows of X against the (replicated) weight matrix, and
    its aggregation streams the owned rows of A against the full dense XW.
    Remote XW rows are staged into the chip's local memory by the halo
    exchange before the layer runs, so the per-chip simulation still reads
    every referenced row from local DRAM — the fabric transfer and the
    local reads are separate physical channels, both priced (see the
    modeling note in :mod:`repro.scaleout.engine`).  Slicing every row
    (the one-chip case) reproduces the original workload exactly.

    Each distinct LHS is sliced once: the layers' aggregation phases share
    one adjacency, and so do their slices, which lets the chip's plan reuse
    one HDN profile for every layer.
    """
    slices: dict[int, CSRMatrix] = {}

    def owned(phase: SpDeGemmPhase) -> SpDeGemmPhase:
        # ``workloads`` keeps every LHS alive, so ids stay unique meanwhile.
        if id(phase.sparse) not in slices:
            slices[id(phase.sparse)] = phase.sparse.select_rows(shard.nodes)
        return dataclasses.replace(phase, sparse=slices[id(phase.sparse)])

    return [
        LayerWorkload(
            name=layer.name,
            combination=owned(layer.combination),
            aggregation=owned(layer.aggregation),
        )
        for layer in workloads
    ]
