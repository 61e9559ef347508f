"""Capacity-independent accounting of GROW's pinned HDN cache.

GROW processes the aggregation one cluster at a time.  At a cluster's start
the first ``R`` ids of its HDN ID list are loaded and their dense RHS rows
pinned, ``R`` being the cache's row capacity (paper Section V-C).  So a
non-zero hits exactly when its column's *rank* — the index of the column's
first occurrence in its own cluster's list — is below ``R``, and an output
row misses exactly when the largest rank among its non-zeros reaches ``R``.
This is the inclusion property behind Mattson et al.'s stack distances
("Evaluation techniques for storage hierarchies", IBM Systems Journal,
1970): one pass over a phase answers every capacity.

:class:`HDNProfile` makes that pass for one aggregation LHS under one
:class:`~repro.core.preprocess.PreprocessPlan` and keeps counts indexed by
``R``.  A column its cluster's list does not hold never hits, at any
capacity; nor does any column of a cluster whose list is empty.  ``R = 0``
(no cache, or a row larger than the cache) means no hits and no fill.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.obs import metrics
from repro.sparse import blocks
from repro.sparse.csr import CSRMatrix
from repro.sparse.unique import sorted_unique

if TYPE_CHECKING:
    from repro.core.preprocess import PreprocessPlan


@dataclass(frozen=True)
class ClusterStream:
    """A phase's non-zeros grouped by the plan cluster that streams them.

    Cluster ``i`` (the plan's ``i``-th) streams the rows labelled like its
    nodes in ``cluster_of_node``, in row order, so its non-zeros
    ``cols[nnz_bounds[i]:nnz_bounds[i + 1]]`` keep the streaming order.
    ``row_starts`` holds the offset of the first non-zero of every streamed
    row that has one; cluster ``i``'s are ``row_starts[row_bounds[i]:
    row_bounds[i + 1]]``.  Rows whose label no cluster carries stream
    nowhere.
    """

    cols: np.ndarray
    nnz_bounds: np.ndarray
    row_starts: np.ndarray
    row_bounds: np.ndarray

    @classmethod
    def of(
        cls, lhs: CSRMatrix, cluster_of_node: np.ndarray, clusters: list[np.ndarray]
    ) -> "ClusterStream":
        if cluster_of_node.size != lhs.n_rows:
            raise ValueError(
                f"plan labels {cluster_of_node.size} nodes, the phase has {lhs.n_rows} rows"
            )
        num_clusters = len(clusters)
        labels = np.array(
            [cluster_of_node[nodes[0]] if nodes.size else -1 for nodes in clusters],
            dtype=np.int64,
        )
        named = np.flatnonzero(labels >= 0)
        if sorted_unique(labels[named]).size != named.size:
            raise ValueError("every cluster must carry its own cluster_of_node label")
        # Unclaimed labels map past the last cluster, so their rows sort last.
        cluster_of_label = np.full(int(cluster_of_node.max(initial=-1)) + 1, num_clusters)
        cluster_of_label[labels[named]] = named
        cluster_of_row = cluster_of_label[cluster_of_node]

        # A stable sort keeps each cluster's rows ascending; their non-zeros
        # are gathered a row block at a time, each block with one fancy
        # index (an arange shifted per row).
        row_order = np.argsort(cluster_of_row, kind="stable")
        row_bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(cluster_of_row, minlength=num_clusters + 1))]
        )[: num_clusters + 1]
        streamed = row_order[: row_bounds[-1]]
        starts = lhs.indptr[streamed]
        lengths = lhs.indptr[streamed + 1] - starts
        offsets = np.concatenate([[0], np.cumsum(lengths)])
        if np.array_equal(streamed, np.arange(lhs.n_rows)):
            cols = lhs.indices
        else:
            cols = np.empty(int(offsets[-1]), dtype=lhs.indices.dtype)
            for lo, hi in blocks.row_blocks(offsets):
                take = np.repeat(starts[lo:hi] - offsets[lo:hi], lengths[lo:hi])
                take += np.arange(offsets[lo], offsets[hi])
                cols[offsets[lo] : offsets[hi]] = lhs.indices[take]
        touched = lengths > 0
        touched_before = np.concatenate([[0], np.cumsum(touched)])
        return cls(
            cols=cols,
            nnz_bounds=offsets[row_bounds],
            row_starts=offsets[:-1][touched],
            row_bounds=touched_before[row_bounds],
        )


@dataclass(frozen=True)
class ClusterCounts:
    """Per-cluster HDN outcome of one phase at one capacity, in plan order:
    lookups, hits, output rows with a miss, and rows prefetched at the
    cluster's start (each also an id loaded into the HDN ID list)."""

    nnz: np.ndarray
    hits: np.ndarray
    rows_with_miss: np.ndarray
    filled_rows: np.ndarray


def _stream_ranks(
    lhs: CSRMatrix,
    cluster_of_node: np.ndarray,
    clusters: list[np.ndarray],
    hdn_lists: list[np.ndarray],
    longest: int,
) -> tuple[ClusterStream, np.ndarray, np.ndarray]:
    """The stream, every streamed non-zero's rank and every streamed row's
    largest rank, with ``longest`` standing for "not listed"."""
    if len(hdn_lists) != len(clusters):
        raise ValueError("a plan needs exactly one HDN list per cluster")
    listed = [ids for ids in hdn_lists if ids.size]
    if listed and min(int(ids.min()) for ids in listed) < 0:
        raise ValueError("HDN node ids must be non-negative")
    stream = ClusterStream.of(lhs, cluster_of_node, clusters)
    dtype = np.int32 if longest < np.iinfo(np.int32).max else np.int64
    width = max([lhs.n_cols] + [int(ids.max()) + 1 for ids in listed])
    rank_of_col = np.full(width, longest, dtype=dtype)
    ranks = np.full(stream.cols.size, longest, dtype=dtype)
    for cluster, ids in enumerate(hdn_lists):
        lo, hi = stream.nnz_bounds[cluster], stream.nnz_bounds[cluster + 1]
        if ids.size == 0 or lo == hi:
            continue
        # One shared column-indexed table, loaded with this cluster's list
        # and cleared after: each cluster looks up its own list only.
        positions = np.arange(ids.size)
        rank_of_col[ids] = positions
        if not np.array_equal(rank_of_col[ids], positions):
            # A repeated id: the column's rank is its first occurrence.
            distinct, first = np.unique(ids, return_index=True)
            rank_of_col[distinct] = first
        ranks[lo:hi] = rank_of_col[stream.cols[lo:hi]]
        rank_of_col[ids] = longest
    return stream, ranks, np.maximum.reduceat(ranks, stream.row_starts)


def _below(values: np.ndarray, longest: int) -> np.ndarray:
    """``[R] -> how many values are below R``, for ``R = 0 .. longest``.

    Counted a block at a time: ``np.bincount`` copies narrower integers to
    ``intp`` first, and the values are as many as a phase's non-zeros.
    """
    histogram = np.zeros(longest + 1, dtype=np.int64)
    for lo, hi in blocks.spans(values.size):
        histogram += np.bincount(values[lo:hi], minlength=longest + 1)
    return np.concatenate([[0], np.cumsum(histogram[:longest])]).astype(np.int64)


def _segment_sums(flags: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """Set flags per segment ``flags[bounds[i]:bounds[i + 1]]``."""
    before = np.concatenate([[0], np.cumsum(flags)]).astype(np.int64)
    return before[bounds[1:]] - before[bounds[:-1]]


class HDNProfile:
    """Rank profile of one aggregation LHS under one preprocessing plan.

    Hits, rows with a miss and prefetched rows at any capacity are lookups
    in tables indexed by ``R``: O(longest list + clusters) integers, never
    an array per non-zero nor one per (cluster, list slot).  Per-cluster
    counts take one more pass the first time a capacity is asked for, and
    are kept.  The profile refers to the plan's arrays, not to the plan,
    which memoises it (:meth:`PreprocessPlan.hdn_profile`).
    """

    def __init__(self, lhs: CSRMatrix, plan: "PreprocessPlan") -> None:
        self.lhs = lhs
        self._plan_arrays = (plan.cluster_of_node, plan.clusters, plan.hdn_lists)
        self.list_sizes = np.array([ids.size for ids in plan.hdn_lists], dtype=np.int64)
        self.longest = int(self.list_sizes.max(initial=0))
        stream, ranks, row_max = _stream_ranks(lhs, *self._plan_arrays, self.longest)
        self.cluster_nnz = np.diff(stream.nnz_bounds)
        self.nnz = int(stream.cols.size)
        self.touched_rows = int(row_max.size)
        self._hits_below = _below(ranks, self.longest)
        self._rows_below = _below(row_max, self.longest)
        # sum(min(size, R)) adds, for each r < R, the lists longer than r.
        longer = self.list_sizes.size - _below(self.list_sizes, self.longest)[1:]
        self._fill_below = np.concatenate([[0], np.cumsum(longer)]).astype(np.int64)
        self._per_cluster: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        metrics.inc("grow.hdn_profile.builds")

    def _capped(self, cache_rows: int) -> int:
        return min(max(cache_rows, 0), self.longest)

    def hits(self, cache_rows: int) -> int:
        """Lookups served by a cache of ``cache_rows`` pinned rows."""
        return int(self._hits_below[self._capped(cache_rows)])

    def rows_with_miss(self, cache_rows: int) -> int:
        """Output rows with at least one miss at ``cache_rows`` pinned rows."""
        return self.touched_rows - int(self._rows_below[self._capped(cache_rows)])

    def filled_rows(self, cache_rows: int) -> int:
        """Rows prefetched over the phase: each cluster's ``min(list size, cache_rows)``."""
        return int(self._fill_below[self._capped(cache_rows)])

    def cluster_counts(self, cache_rows: int) -> ClusterCounts:
        """Per-cluster counts at ``cache_rows`` pinned rows."""
        capped = self._capped(cache_rows)
        if capped not in self._per_cluster:
            stream, ranks, row_max = _stream_ranks(self.lhs, *self._plan_arrays, self.longest)
            self._per_cluster[capped] = (
                _segment_sums(ranks < capped, stream.nnz_bounds),
                _segment_sums(row_max >= capped, stream.row_bounds),
            )
        hits, rows_with_miss = self._per_cluster[capped]
        return ClusterCounts(
            nnz=self.cluster_nnz,
            hits=hits,
            rows_with_miss=rows_with_miss,
            filled_rows=np.minimum(self.list_sizes, capped),
        )
