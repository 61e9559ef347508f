"""GROW's software preprocessing pass.

The paper augments the METIS graph partitioner with a pass that derives, for
every cluster, the list of its top-N high-degree nodes (Section V-C).  The
partitioned graph and the per-cluster HDN ID lists are computed once offline
and reused for every inference, so the runtime hardware only needs to fetch
one cluster's HDN ID list before starting that cluster.

:class:`GrowPreprocessor` produces a :class:`PreprocessPlan` from a graph (or
directly from an adjacency matrix); the GROW simulator consumes the plan.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Hashable, TypeVar

import numpy as np

from repro.core.hdn_profile import ClusterStream, HDNProfile
from repro.graph.graph import Graph
from repro.graph.partition import PartitionResult, partition_graph
from repro.obs import trace
from repro.sparse import blocks
from repro.sparse.csr import CSRMatrix
from repro.sparse.unique import sorted_unique

T = TypeVar("T")


@dataclass
class PreprocessPlan:
    """Output of the preprocessing pass, consumed by the GROW simulator.

    Attributes:
        num_nodes: number of graph nodes (rows of the adjacency matrix).
        cluster_of_node: cluster id of every node; identity plan has one cluster.
        clusters: node ids of each cluster, in processing order.
        hdn_lists: for each cluster, the node ids of its top-N high-degree
            nodes (the columns whose RHS rows will be pinned in the HDN cache).
        hdn_list_capacity: the N used when deriving the lists.
        partitioned: whether graph partitioning was applied.
        preprocessing_seconds: measured wall-clock cost of the offline pass
            (the paper quotes tens of milliseconds to tens of minutes).
    """

    num_nodes: int
    cluster_of_node: np.ndarray
    clusters: list[np.ndarray]
    hdn_lists: list[np.ndarray]
    hdn_list_capacity: int
    partitioned: bool
    preprocessing_seconds: float = 0.0
    _derived: dict[tuple, tuple[object, object]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def num_clusters(self) -> int:
        return len(self.clusters)

    def derived(self, kind: Hashable, matrix: CSRMatrix, build: Callable[[], T]) -> T:
        """What ``build`` derives from this plan and ``matrix``, built once.

        Memoised on the plan by ``kind`` and the matrix's identity, so a
        bundle plan's derived values live as long as the bundle.  The entry
        holds the matrix, so no other object can take its id meanwhile.
        """
        key = (kind, id(matrix))
        entry = self._derived.get(key)
        if entry is None:
            entry = self._derived[key] = (matrix, build())
        return entry[1]

    def hdn_profile(self, lhs: CSRMatrix) -> HDNProfile:
        """The HDN rank profile of the aggregation LHS ``lhs`` under this plan."""
        return self.derived("hdn_profile", lhs, lambda: HDNProfile(lhs, self))

    def validate(self) -> None:
        """Check internal consistency (every node in exactly one cluster)."""
        seen = np.concatenate(self.clusters) if self.clusters else np.empty(0, dtype=np.int64)
        if seen.size != self.num_nodes or sorted_unique(seen).size != self.num_nodes:
            raise ValueError("clusters must cover every node exactly once")
        for cluster_id, hdns in enumerate(self.hdn_lists):
            if hdns.size > self.hdn_list_capacity:
                raise ValueError(f"cluster {cluster_id} HDN list exceeds capacity")


def _top_referenced_columns(adjacency: CSRMatrix, capacity: int) -> np.ndarray:
    """Top-``capacity`` columns by reference count (the non-zeros pointing at
    them), ties by ascending column: the globally highest-degree nodes."""
    counts = np.bincount(adjacency.indices, minlength=adjacency.n_cols)
    candidates = np.argsort(-counts, kind="stable")
    candidates = candidates[counts[candidates] > 0]
    return candidates[:capacity].astype(np.int64)


@dataclass
class GrowPreprocessor:
    """Builds :class:`PreprocessPlan` objects for the GROW simulator.

    Attributes:
        num_clusters: number of clusters to partition into (ignored when
            partitioning is disabled); ``None`` chooses one cluster per
            ``target_cluster_nodes`` nodes.
        target_cluster_nodes: desired nodes per cluster when ``num_clusters``
            is not given.
        hdn_list_capacity: maximum HDN ids per cluster (paper default 4096).
        seed: RNG seed of the partitioner.
    """

    num_clusters: int | None = None
    target_cluster_nodes: int = 512
    hdn_list_capacity: int = 4096
    seed: int = 0

    def plan_without_partitioning(self, adjacency: CSRMatrix) -> PreprocessPlan:
        """Plan that treats the whole graph as one cluster (no partitioning).

        The HDN list then simply holds the globally highest-degree nodes,
        which is the "GROW w/o G.P." configuration of Figures 17-22.
        """
        n = adjacency.n_rows
        all_nodes = np.arange(n, dtype=np.int64)
        with trace.span("preprocess.hdn_select", clusters=1, nodes=n):
            hdns = _top_referenced_columns(adjacency, self.hdn_list_capacity)
        return PreprocessPlan(
            num_nodes=n,
            cluster_of_node=np.zeros(n, dtype=np.int64),
            clusters=[all_nodes],
            hdn_lists=[hdns],
            hdn_list_capacity=self.hdn_list_capacity,
            partitioned=False,
        )

    def plan_from_graph(self, graph: Graph, partitioned: bool = True) -> PreprocessPlan:
        """Plan built by partitioning a graph and deriving per-cluster HDN lists."""
        import time

        adjacency = graph.adjacency()
        if not partitioned:
            return self.plan_without_partitioning(adjacency)
        started = time.perf_counter()  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
        clusters_wanted = self.num_clusters
        if clusters_wanted is None:
            clusters_wanted = max(1, graph.num_nodes // self.target_cluster_nodes)
        if clusters_wanted <= 1:
            plan = self.plan_without_partitioning(adjacency)
            plan.preprocessing_seconds = time.perf_counter() - started  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
            return plan
        with trace.span("preprocess.partition", nodes=graph.num_nodes, clusters=clusters_wanted):
            partition = partition_graph(graph, clusters_wanted, seed=self.seed)
        plan = self.plan_from_partition(adjacency, partition)
        plan.preprocessing_seconds = time.perf_counter() - started  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
        return plan

    def plan_from_partition(
        self, adjacency: CSRMatrix, partition: PartitionResult
    ) -> PreprocessPlan:
        """Plan built from an existing partition of the adjacency matrix.

        For every cluster the HDN list holds the columns most referenced by
        that cluster's rows.  Heavily referenced hub nodes outside the
        cluster are candidates too, which degrades gracefully on graphs with
        weak community structure (e.g. Reddit).
        """
        with trace.span(
            "preprocess.hdn_select",
            clusters=partition.num_clusters,
            nodes=adjacency.n_rows,
        ):
            # Group nodes by cluster with one stable argsort: within a cluster
            # the stable sort preserves ascending node ids, so each slice
            # equals the ``np.where(assignment == cluster_id)`` scan it
            # replaces.
            node_order = np.argsort(partition.assignment, kind="stable")
            sizes = np.bincount(partition.assignment, minlength=partition.num_clusters)
            bounds = np.concatenate([[0], np.cumsum(sizes)])
            stream = ClusterStream(adjacency, node_order, bounds)
            nnz_bounds = stream.nnz_bounds
            n_cols = adjacency.n_cols
            clusters: list[np.ndarray] = []
            hdn_lists: list[np.ndarray] = []
            # Count distinct (cluster, column) reference pairs one block of
            # whole clusters at a time, order each cluster's candidates by
            # (count desc, column asc) — the order the per-cluster
            # ``np.argsort(-counts, kind="stable")`` produced — and keep the
            # top ``hdn_list_capacity`` of each.
            for lo, hi in blocks.row_blocks(nnz_bounds):
                cols = stream.columns(bounds[lo], bounds[hi])
                local = np.repeat(np.arange(hi - lo), np.diff(nnz_bounds[lo : hi + 1]))
                pairs, counts = sorted_unique(local * n_cols + cols, return_counts=True)
                pair_cluster = pairs // n_cols
                # One sort of a packed (cluster, top - count, column) key, one
                # distinct key per pair: below ``(hi - lo) * top * n_cols``,
                # and top is at most a block's entries unless the block is
                # one cluster.
                top = counts.max(initial=0)
                key = (pair_cluster * top + (top - counts)) * n_cols + pairs % n_cols
                order = np.argsort(key, kind="stable")
                candidates = pairs[order] % n_cols
                cand_bounds = np.searchsorted(pair_cluster[order], np.arange(hi - lo + 1))
                for local_id in range(hi - lo):
                    nodes = node_order[bounds[lo + local_id] : bounds[lo + local_id + 1]]
                    if nodes.size == 0:
                        continue
                    clusters.append(nodes.astype(np.int64))
                    start = cand_bounds[local_id]
                    end = min(cand_bounds[local_id + 1], start + self.hdn_list_capacity)
                    hdn_lists.append(candidates[start:end].astype(np.int64))
        return PreprocessPlan(
            num_nodes=adjacency.n_rows,
            cluster_of_node=partition.assignment.copy(),
            clusters=clusters,
            hdn_lists=hdn_lists,
            hdn_list_capacity=self.hdn_list_capacity,
            partitioned=True,
        )
