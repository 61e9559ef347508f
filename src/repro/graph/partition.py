"""Graph partitioning: the software preprocessing pass of GROW.

The paper uses METIS to partition the input graph into clusters so that
intra-cluster edges dominate, then renumbers nodes cluster-by-cluster.  After
renumbering, the non-zeros of the adjacency matrix concentrate near the block
diagonal (paper Figure 14), which is what makes GROW's per-cluster HDN
caching effective.

The partitioner here, :func:`partition_graph`, stands in for METIS:
community detection by label propagation, followed by balanced packing of
communities into the requested number of clusters and a boundary-refinement
pass.  Like METIS it produces balanced clusters whose intra-cluster edges
dominate.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from repro.graph.graph import Graph
from repro.sparse.blocks import row_blocks
from repro.sparse.csr import CSRMatrix
from repro.sparse.unique import run_starts, sorted_unique


@dataclass
class PartitionResult:
    """Outcome of partitioning a graph.

    Attributes:
        assignment: ``assignment[i]`` is the cluster id of node ``i``.
        num_clusters: number of clusters actually produced.
    """

    assignment: np.ndarray
    num_clusters: int


#: Cluster capacity as a multiple of the ideal size, ``n / num_clusters``.
_BALANCE_SLACK = 1.25

#: Boundary-refinement passes; they stop early once one moves nothing.
_REFINEMENT_PASSES = 2

#: Label-propagation sweeps; they stop early once one moves fewer than
#: ``max(1, n // 200)`` nodes.
_MAX_SWEEPS = 10


def _adjacency_lists(adjacency: CSRMatrix, nodes: list[int]) -> list[list[int]]:
    """Python adjacency lists whose entries are ``nodes``' own ints.

    Every entry naming node ``i`` points at ``nodes[i]``, so the lists cost
    one pointer per entry and one int per node, where slices of
    ``indices.tolist()`` would hold a fresh int per entry.  They are built
    one row block at a time, with no full-length temporary.
    """
    indptr = adjacency.indptr
    node = nodes.__getitem__
    lists: list[list[int]] = []
    for lo, hi in row_blocks(indptr):
        base = indptr[lo]
        shared = list(map(node, adjacency.indices[base:indptr[hi]].tolist()))
        bounds = (indptr[lo : hi + 1] - base).tolist()
        lists.extend(shared[start:stop] for start, stop in pairwise(bounds))
    return lists


def _label_propagation(
    graph: Graph,
    rng: np.random.Generator,
    max_label_size: float | None = None,
) -> np.ndarray:
    """Community detection by size-constrained asynchronous label propagation.

    Every node repeatedly adopts the label most common among its neighbours;
    on real-world (and the synthetic community-structured) graphs this
    converges in a handful of sweeps to the underlying communities.

    Unconstrained propagation has a well-known failure mode on graphs with
    heavy hubs: one hub's label floods the whole graph, collapsing every
    community into a single giant label (which the downstream packing can
    then only split arbitrarily).  ``max_label_size`` bounds how many members
    a label may absorb — a node never *joins* a label at capacity, though it
    may keep the one it already has — which keeps distinct communities
    distinct no matter how skewed the degree distribution is.
    """
    n = graph.num_nodes
    cap = float("inf") if max_label_size is None else max_label_size
    # The sweep is asynchronous (every decision sees the labels left by the
    # previous one), so it cannot be batched into array ops without changing
    # results.  Instead the whole sweep runs on plain Python ints over
    # adjacency lists that share the initial labels' ints, with per-element
    # work pushed into C; the lists live only as long as this call.
    #
    # Every decision is identical to the original array formulation — the
    # winner is the neighbourhood's most common label, ties broken by the
    # lowest label, size-capped labels skipped unless already held (an
    # order-independent argmax over the histogram, so it does not matter in
    # which order candidate labels are inspected).
    #
    # After the first ``fresh_sweeps`` sweeps the churn collapses to a few
    # percent of nodes, so the sweep switches to incremental evaluation:
    # each node's neighbour-label histogram is kept up to date by O(degree)
    # delta pushes whenever a neighbour changes label (valid because the
    # adjacency of an undirected graph is symmetric), and a node is skipped
    # outright — provably deciding "stay" again — when
    #   * its previous decision was "stay",
    #   * no neighbour changed label since that decision (``nb_stamp``), and
    #   * every candidate that was skipped for being at the size cap is
    #     still at the cap (a capped label turning *allowed* could out-vote
    #     the current label, but an allowed loser turning capped never
    #     changes an argmax).
    # The three cases are packed into one signed stamp per node: ``> 0``
    # clean stay at that step, ``< 0`` stay with exactly one cap-skipped
    # candidate (held in ``cap_of``), ``0`` must re-evaluate.
    from collections import Counter

    count_into = getattr(__import__("collections"), "_count_elements", None)
    if count_into is None:  # pragma: no cover - non-CPython fallback
        def count_into(mapping, iterable):
            mapping.update(Counter(iterable))

    labels = list(range(n))
    neighbor_lists = _adjacency_lists(graph.adjacency(), labels)
    label_sizes = [1] * n
    label_of = labels.__getitem__
    counts_of: list[dict[int, int]] | None = None
    nb_stamp = [0] * n
    last_eval = [0] * n
    cap_of = [0] * n
    step = 0
    fresh_sweeps = 2 if graph.undirected else _MAX_SWEEPS
    for _sweep in range(_MAX_SWEEPS):
        if _sweep == fresh_sweeps:
            # Build the persistent histograms and reset the stamps: skips
            # are only valid for evaluations made while deltas are tracked.
            counts_of = []
            build = counts_of.append
            for nb in neighbor_lists:
                c: dict[int, int] = {}
                count_into(c, map(label_of, nb))
                build(c)
            last_eval = [0] * n
        changed = 0
        if counts_of is None:
            for node in rng.permutation(n).tolist():
                neighbors = neighbor_lists[node]
                if not neighbors:
                    continue
                current = labels[node]
                if len(neighbors) == 1:
                    best = labels[neighbors[0]]
                    if best == current or label_sizes[best] >= cap:
                        continue
                else:
                    counts: dict[int, int] = {}
                    count_into(counts, map(label_of, neighbors))
                    best = -1
                    best_count = 0
                    for label, count in counts.items():
                        if count < best_count or (count == best_count and label > best):
                            continue
                        if label != current and label_sizes[label] >= cap:
                            continue
                        best = label
                        best_count = count
                    if best < 0 or best == current:
                        continue
                labels[node] = best
                label_sizes[current] -= 1
                label_sizes[best] += 1
                changed += 1
        else:
            for node in rng.permutation(n).tolist():
                step += 1
                le = last_eval[node]
                if le > 0:
                    if nb_stamp[node] < le:
                        continue
                elif le < 0:
                    if nb_stamp[node] < -le and label_sizes[cap_of[node]] >= cap:
                        continue
                counts = counts_of[node]
                if not counts:
                    continue
                current = labels[node]
                if len(counts) == 1:
                    (best,) = counts
                    if best == current:
                        last_eval[node] = step
                        continue
                    if label_sizes[best] >= cap:
                        last_eval[node] = -step
                        cap_of[node] = best
                        continue
                else:
                    capskips = None
                    best = -1
                    best_count = 0
                    for label, count in counts.items():
                        if count < best_count or (count == best_count and label > best):
                            continue
                        if label != current and label_sizes[label] >= cap:
                            capskips = label if capskips is None else True
                            continue
                        best = label
                        best_count = count
                    if best < 0 or best == current:
                        if capskips is None:
                            last_eval[node] = step
                        elif capskips is True:
                            last_eval[node] = 0
                        else:
                            last_eval[node] = -step
                            cap_of[node] = capskips
                        continue
                last_eval[node] = 0
                labels[node] = best
                label_sizes[current] -= 1
                label_sizes[best] += 1
                changed += 1
                for m in neighbor_lists[node]:
                    nb_stamp[m] = step
                    c = counts_of[m]
                    k = c[current] - 1
                    if k:
                        c[current] = k
                    else:
                        del c[current]
                    c[best] = c.get(best, 0) + 1
        if changed < max(1, n // 200):
            break
    return np.asarray(labels, dtype=np.int64)


def _pack_communities(
    labels: np.ndarray, num_clusters: int, capacity: float
) -> np.ndarray:
    """Pack communities into ``num_clusters`` balanced clusters.

    Communities larger than the capacity are split; the rest are assigned to
    the least-loaded cluster, largest first, so cluster sizes stay balanced.
    """
    n = labels.size
    assignment = np.full(n, -1, dtype=np.int64)
    loads = np.zeros(num_clusters, dtype=np.int64)
    # One stable sort groups every community's members, in ascending node
    # order, into one run per label (labels ascending, as np.unique lists
    # them): O(n log n), not a scan of all n nodes per community.
    by_label = np.argsort(labels, kind="stable")
    bounds = np.append(run_starts(labels[by_label]), n)
    counts = np.diff(bounds)
    order = np.argsort(-counts, kind="stable")
    for label_idx in order:
        members = by_label[bounds[label_idx]:bounds[label_idx + 1]]
        offset = 0
        while offset < members.size:
            target = int(np.argmin(loads))
            room = int(max(1, capacity - loads[target]))
            chunk = members[offset : offset + room]
            assignment[chunk] = target
            loads[target] += chunk.size
            offset += chunk.size
    return assignment


def _refine_boundary(
    graph: Graph,
    assignment: np.ndarray,
    num_clusters: int,
    capacity: float,
) -> np.ndarray:
    """Greedy boundary refinement: move nodes that reduce the edge cut.

    A pass visits the nodes in ascending order.  A node moves to the
    cluster holding most of its neighbours (the lowest id among ties) when
    that cluster out-votes the node's own and has room below ``capacity``;
    every later decision sees the move.  Passes stop early once one moves
    nothing.
    """
    # The pass is decided one row block at a time, from the labels the
    # block starts with, then walked in node order.  That is exact: a
    # node's votes read its neighbours' labels, so they change only when a
    # neighbour moves, and the room check reads the loads at the node's
    # turn.  Every row before a block's first mover sees the block's start
    # state; after a move, only the mover's in-neighbours later in the
    # block are decided again, when their turn comes.  Later blocks are
    # decided after the moves before them.
    adjacency = graph.adjacency()
    indptr, indices = adjacency.indptr, adjacency.indices
    in_indptr, in_indices = (indptr, indices) if graph.undirected else _transpose(adjacency)
    labels = np.array(assignment, dtype=np.int64)
    loads = np.bincount(assignment, minlength=num_clusters).tolist()
    for _sweep in range(_REFINEMENT_PASSES):
        moved = 0
        for lo, hi in row_blocks(indptr):
            movers, targets = _refinement_votes(indptr, indices, labels, lo, hi, num_clusters)
            queue = movers.tolist()
            target_of = dict(zip(queue, targets.tolist()))
            stale: set[int] = set()
            while queue:
                node = heapq.heappop(queue)
                if node in stale:
                    _mover, target = _refinement_votes(
                        indptr, indices, labels, node, node + 1, num_clusters
                    )
                    if not target.size:
                        continue
                    best = int(target[0])
                else:
                    best = target_of[node]
                if loads[best] + 1 > capacity:
                    continue
                loads[labels[node]] -= 1
                loads[best] += 1
                labels[node] = best
                moved += 1
                for m in in_indices[in_indptr[node] : in_indptr[node + 1]].tolist():
                    if node < m < hi and m not in stale:
                        stale.add(m)
                        if m not in target_of:
                            heapq.heappush(queue, m)
        if moved == 0:
            break
    return labels


def _refinement_votes(
    indptr: np.ndarray,
    indices: np.ndarray,
    labels: np.ndarray,
    lo: int,
    hi: int,
    num_clusters: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Rows ``lo .. hi - 1`` that want to move under ``labels``, and where to.

    A row's winner is the cluster with the most neighbour votes, the lowest
    id among ties; the row wants to move when the winner has more votes
    than the row's own cluster.  One sort of the block's (row, neighbour
    cluster) keys counts every vote.
    """
    counts = np.diff(indptr[lo : hi + 1])
    keys = np.repeat(np.arange(lo, hi, dtype=np.int64) * num_clusters, counts)
    keys += labels[indices[indptr[lo] : indptr[hi]]]
    pairs, votes = sorted_unique(keys, return_counts=True)
    rows = pairs // num_clusters
    firsts = run_starts(rows)
    if not firsts.size:
        return firsts, firsts
    top = np.maximum.reduceat(votes, firsts)
    # A row's pairs ascend by cluster, so its first top-vote pair is the winner.
    tops = np.flatnonzero(votes == np.repeat(top, np.diff(firsts, append=pairs.size)))
    winners = pairs[tops[run_starts(rows[tops])]]
    voters = rows[firsts]
    own = voters * num_clusters + labels[voters]
    at = np.minimum(np.searchsorted(pairs, own), pairs.size - 1)
    own_votes = np.where(pairs[at] == own, votes[at], 0)
    wants = top > own_votes
    return voters[wants], winners[wants] - voters[wants] * num_clusters


def _transpose(adjacency: CSRMatrix) -> tuple[np.ndarray, np.ndarray]:
    """``indptr`` and ``indices`` of the transpose: each node's in-neighbours."""
    n = adjacency.n_rows
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(adjacency.indices, minlength=n), out=indptr[1:])
    rows = np.repeat(np.arange(n, dtype=np.int64), adjacency.row_nnz())
    return indptr, rows[np.argsort(adjacency.indices, kind="stable")]


def partition_graph(graph: Graph, num_clusters: int, seed: int = 0) -> PartitionResult:
    """Partition a graph into ``num_clusters`` balanced clusters (the METIS stand-in).

    Three stages: (1) label propagation finds the graph's communities,
    (2) communities are packed into ``num_clusters`` clusters of roughly equal
    size (communities larger than a cluster are split), (3) a boundary
    refinement pass moves individual nodes that have more neighbours in
    another cluster, subject to a capacity of ``_BALANCE_SLACK`` times the
    ideal cluster size.
    """
    if num_clusters <= 0:
        raise ValueError("num_clusters must be positive")
    n = graph.num_nodes
    num_clusters = min(num_clusters, n)
    if num_clusters == 1:
        return PartitionResult(assignment=np.zeros(n, dtype=np.int64), num_clusters=1)
    rng = np.random.default_rng(seed)
    capacity = _BALANCE_SLACK * n / num_clusters
    labels = _label_propagation(graph, rng, max_label_size=capacity)
    assignment = _pack_communities(labels, num_clusters, capacity)
    assignment = _refine_boundary(graph, assignment, num_clusters, capacity)
    return PartitionResult(assignment=assignment, num_clusters=num_clusters)


def partition_edge_cut(graph: Graph, assignment: np.ndarray) -> int:
    """Number of (directed) adjacency non-zeros crossing cluster boundaries."""
    adj = graph.adjacency()
    assignment = np.asarray(assignment)
    row_ids = np.repeat(np.arange(adj.n_rows), adj.row_nnz())
    return int((assignment[row_ids] != assignment[adj.indices]).sum())
