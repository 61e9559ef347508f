"""Partition-aware sharding: assign graph clusters to chips, derive halos.

The scale-out system reuses GROW's own preprocessing artefact — the
:class:`~repro.core.preprocess.PreprocessPlan` produced by graph
partitioning — as its unit of distribution: whole clusters are assigned to
chips, never individual nodes, so each chip keeps the intra-cluster locality
the HDN cache depends on, and a chip's GROW run is priced from its clusters'
counts in the plan (:meth:`~repro.core.accelerator.GrowSimulator.run_model`
with ``clusters=``).

Two assignment methods are provided, mirroring :mod:`repro.graph.partition`:

* ``"metis"`` — build the *cluster graph* (one vertex per cluster, an edge
  where adjacency non-zeros cross the cluster boundary) and partition it
  with :func:`~repro.graph.partition.partition_graph`, so
  strongly-coupled clusters land on the same chip and inter-chip traffic is
  minimised.
* ``"greedy"`` — longest-processing-time packing of clusters onto chips by
  non-zero count (the PE-array scheduling rule shared with
  :mod:`repro.core.multi_pe`), balancing load but ignoring coupling.

A non-zero that crosses chips also crosses clusters, so one pass over the
adjacency (:class:`ClusterCoupling`, memoised on the plan) holds what every
chip count needs: the cluster graph, each cluster's non-zeros, and the
distinct cross-cluster pairs the halos and reductions are counted from.
From the assignment the planner derives, per chip, the owned node set, the
owned clusters and the *halo*: remote nodes whose dense (XW) rows the chip's
aggregation references.  Two exchange patterns are quantified as chip-pair
matrices:

* ``halo_counts[src, dst]`` — dense rows owned by ``src`` that ``dst`` must
  fetch before aggregating (the halo-exchange pattern);
* ``partial_counts[src, dst]`` — output rows owned by ``dst`` for which
  ``src`` holds at least one referenced column, i.e. partially-aggregated
  rows ``src`` would send if the reduction were distributed instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.multi_pe import greedy_longest_first
from repro.core.preprocess import PreprocessPlan
from repro.graph.graph import Graph
from repro.graph.partition import partition_graph
from repro.obs import metrics
from repro.sparse import blocks
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
        clusters: indices of the owned clusters in the source plan,
            ascending (the plan's processing order).
        halo_nodes: global ids of remote nodes referenced by the chip's
            adjacency rows (their dense rows must arrive over the fabric).
    """

    chip_id: int
    nodes: np.ndarray
    clusters: np.ndarray
    halo_nodes: np.ndarray

    @property
    def num_nodes(self) -> int:
        return int(self.nodes.size)

    @property
    def empty(self) -> bool:
        """True when the chip owns no nodes (more chips than clusters)."""
        return self.nodes.size == 0


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


class ClusterCoupling:
    """How a plan's clusters couple through an adjacency, for any chip count.

    Chips own whole clusters, so a non-zero that crosses chips also crosses
    clusters: the distinct cross-cluster pairs below are all a shard plan
    reads of the adjacency, and they are far fewer than its non-zeros.  The
    adjacency is read a row block at a time.

    Attributes:
        cluster_of_node: dense cluster id (plan order) of every node.
        cluster_nnz: adjacency non-zeros per cluster (float64, LPT weights).
        halo_pairs: distinct ``row cluster * n + column`` keys of the
            cross-cluster non-zeros, ascending.
        partial_pairs: distinct ``column cluster * n + row`` keys of the
            cross-cluster non-zeros, ascending.
        cluster_graph: one vertex per cluster, an edge per distinct
            cross-cluster (row cluster, column cluster) pair.
    """

    def __init__(self, adjacency: CSRMatrix, plan: PreprocessPlan) -> None:
        n = adjacency.n_rows
        num_clusters = plan.num_clusters
        sizes = np.array([members.size for members in plan.clusters], dtype=np.int64)
        self.cluster_of_node = np.zeros(n, dtype=np.int64)
        self.cluster_of_node[
            np.concatenate([np.empty(0, dtype=np.int64)] + plan.clusters)
        ] = np.repeat(np.arange(num_clusters), sizes)
        row_nnz = adjacency.row_nnz()
        self.cluster_nnz = np.bincount(
            self.cluster_of_node, weights=row_nnz, minlength=num_clusters
        )
        # Each row block's distinct cross-cluster keys; one sorted-unique of
        # their concatenation merges them.
        halo, partial, coupled = [], [], []
        for rows, cols in blocks.entries(adjacency.indptr, adjacency.indices):
            row_cluster = self.cluster_of_node[rows]
            col_cluster = self.cluster_of_node[cols]
            cross = row_cluster != col_cluster
            rows, cols = rows[cross], cols[cross]
            row_cluster, col_cluster = row_cluster[cross], col_cluster[cross]
            halo.append(sorted_unique(row_cluster * n + cols))
            partial.append(sorted_unique(col_cluster * n + rows))
            coupled.append(sorted_unique(row_cluster * num_clusters + col_cluster))
        empty = [np.empty(0, dtype=np.int64)]
        self.halo_pairs = sorted_unique(np.concatenate(empty + halo))
        self.partial_pairs = sorted_unique(np.concatenate(empty + partial))
        # Distinct (src, dst) cluster pairs in lexicographic order, as one
        # int64 key each.
        keys = sorted_unique(np.concatenate(empty + coupled))
        self.cluster_graph = Graph(
            num_nodes=num_clusters,
            src=keys // num_clusters,
            dst=keys % num_clusters,
            name="cluster-graph",
            undirected=False,
        )
        metrics.inc("scaleout.coupling.builds")

    @property
    def num_clusters(self) -> int:
        return int(self.cluster_nnz.size)


def _assign_clusters(
    coupling: ClusterCoupling, num_chips: int, method: str, seed: int
) -> np.ndarray:
    """Chip id of every cluster."""
    if num_chips == 1:
        return np.zeros(coupling.num_clusters, dtype=np.int64)
    if method == "greedy" or coupling.num_clusters <= num_chips:
        # One cluster per chip (or fewer clusters than chips): LPT packing is
        # optimal and the cluster graph degenerates, so skip partitioning.
        return greedy_longest_first(coupling.cluster_nnz, num_chips)
    return partition_graph(coupling.cluster_graph, num_chips, seed=seed).assignment


def _owned(chip_of: np.ndarray, num_chips: int) -> list[np.ndarray]:
    """Each chip's indices into ``chip_of``, ascending."""
    order = np.argsort(chip_of, kind="stable")
    bounds = np.concatenate([[0], np.cumsum(np.bincount(chip_of, minlength=num_chips))])
    return [order[bounds[chip] : bounds[chip + 1]] for chip in range(num_chips)]


def _split(keys: np.ndarray, num_chips: int, n: int) -> list[np.ndarray]:
    """Ascending ``chip * n + node`` keys -> each chip's nodes, ascending."""
    bounds = np.searchsorted(keys, np.arange(num_chips + 1) * n)
    nodes = keys % n
    return [nodes[bounds[chip] : bounds[chip + 1]] for chip in range(num_chips)]


def _pair_counts(src: np.ndarray, dst: np.ndarray, num_chips: int) -> np.ndarray:
    """``[src, dst]`` occurrence counts of chip pairs."""
    return np.bincount(src * num_chips + dst, minlength=num_chips * num_chips).reshape(
        num_chips, num_chips
    )


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
    if method not in SHARD_METHODS:
        raise ValueError(f"unknown shard method {method!r}; choose from {SHARD_METHODS}")
    # One coupling pass per (plan, adjacency), memoised on the plan: it
    # lives as long as the bundle and serves every chip count.
    adjacency = graph.adjacency()
    coupling = plan.derived("cluster_coupling", adjacency, lambda: ClusterCoupling(adjacency, plan))
    n = plan.num_nodes
    chip_of_cluster = _assign_clusters(coupling, num_chips, method, seed)
    chip_of_node = chip_of_cluster[coupling.cluster_of_node]

    nodes = _owned(chip_of_node, num_chips)
    clusters = _owned(chip_of_cluster, num_chips)

    # Halo: distinct (requesting chip, remote column) pairs.
    halo_chip = chip_of_cluster[coupling.halo_pairs // n]
    halo_col = coupling.halo_pairs % n
    remote = chip_of_node[halo_col] != halo_chip
    halo_keys = sorted_unique(halo_chip[remote] * n + halo_col[remote])
    halo_nodes = _split(halo_keys, num_chips, n)
    halo_counts = _pair_counts(chip_of_node[halo_keys % n], halo_keys // n, num_chips)

    # Distributed-reduction pairs: one partial row per (column-owner chip,
    # output row) pair whose column owner differs from the row owner.
    partial_chip = chip_of_cluster[coupling.partial_pairs // n]
    partial_row = coupling.partial_pairs % n
    remote = chip_of_node[partial_row] != partial_chip
    partial_keys = sorted_unique(partial_chip[remote] * n + partial_row[remote])
    partial_counts = _pair_counts(
        partial_keys // n, chip_of_node[partial_keys % n], num_chips
    )

    shard_plan = ShardPlan(
        num_chips=num_chips,
        num_nodes=plan.num_nodes,
        chip_of_node=chip_of_node,
        chip_of_cluster=chip_of_cluster,
        shards=[
            ChipShard(
                chip_id=chip,
                nodes=nodes[chip],
                clusters=clusters[chip],
                halo_nodes=halo_nodes[chip],
            )
            for chip in range(num_chips)
        ],
        halo_counts=halo_counts,
        partial_counts=partial_counts,
        method=method,
    )
    shard_plan.validate()
    return shard_plan
