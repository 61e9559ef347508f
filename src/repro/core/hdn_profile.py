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
from typing import TYPE_CHECKING, Iterator

import numpy as np

from repro.obs import metrics
from repro.sparse import blocks
from repro.sparse.csr import CSRMatrix
from repro.sparse.unique import sorted_unique

if TYPE_CHECKING:
    from repro.core.preprocess import PreprocessPlan


class ClusterStream:
    """A phase's rows grouped by the plan cluster that streams them.

    Cluster ``i`` streams ``rows[row_bounds[i]:row_bounds[i + 1]]``, in row
    order: from a plan (:meth:`of`), the rows labelled like the plan's
    ``i``-th cluster's nodes in ``cluster_of_node``.  ``offsets[j]`` is the
    stream position of streamed row ``j``'s first non-zero and
    ``offsets[-1]`` the stream's length, so cluster ``i``'s non-zeros are
    stream positions ``nnz_bounds[i]`` to ``nnz_bounds[i + 1]``.  Rows whose
    label no cluster carries stream nowhere.  The stream keeps no column
    per non-zero: :meth:`columns` gathers a range of streamed rows' columns
    from the LHS, and :meth:`blocks` walks one cluster a row block at a time.
    """

    def __init__(self, lhs: CSRMatrix, rows: np.ndarray, row_bounds: np.ndarray) -> None:
        self.lhs = lhs
        self.rows = rows
        self.row_bounds = row_bounds
        self.offsets = np.zeros(rows.size + 1, dtype=np.int64)
        np.cumsum(lhs.indptr[rows + 1] - lhs.indptr[rows], out=self.offsets[1:])

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
        # A stable sort keeps each cluster's rows ascending.
        row_order = np.argsort(cluster_of_row, kind="stable")
        row_bounds = np.concatenate(
            [[0], np.cumsum(np.bincount(cluster_of_row, minlength=num_clusters + 1))]
        )[: num_clusters + 1]
        return cls(lhs, row_order[: row_bounds[-1]], row_bounds)

    @property
    def nnz_bounds(self) -> np.ndarray:
        """The stream position where each cluster's non-zeros begin, and the end."""
        return self.offsets[self.row_bounds]

    def columns(self, lo: int, hi: int) -> np.ndarray:
        """The columns of streamed rows ``lo`` to ``hi - 1``, in stream order:
        one fancy index of the LHS's columns (an arange shifted per row)."""
        offsets = self.offsets
        take = np.repeat(
            self.lhs.indptr[self.rows[lo:hi]] - offsets[lo:hi], np.diff(offsets[lo : hi + 1])
        )
        take += np.arange(offsets[lo], offsets[hi])
        return self.lhs.indices[take]

    def blocks(self, cluster: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Cluster ``cluster``'s non-zeros, one row block of at most
        ``BLOCK_ENTRIES`` of them at a time: each block's columns, and the
        positions in them where its rows with a non-zero begin."""
        lo = int(self.row_bounds[cluster])
        offsets = self.offsets[lo : self.row_bounds[cluster + 1] + 1]
        for first, last in blocks.row_blocks(offsets):
            starts = offsets[first:last] - offsets[first]
            touched = offsets[first + 1 : last + 1] > offsets[first:last]
            yield self.columns(lo + first, lo + last), starts[touched]


@dataclass(frozen=True)
class ClusterCounts:
    """Per-cluster HDN outcome of one phase at one capacity, in plan order:
    lookups, hits, output rows with a miss, and rows prefetched at the
    cluster's start (each also an id loaded into the HDN ID list)."""

    nnz: np.ndarray
    hits: np.ndarray
    rows_with_miss: np.ndarray
    filled_rows: np.ndarray


def _ranked_blocks(
    stream: ClusterStream, hdn_lists: list[np.ndarray], longest: int
) -> Iterator[tuple[int, np.ndarray, np.ndarray]]:
    """``(cluster, ranks, row maxima)`` of each row block of each cluster's
    non-zeros: every streamed non-zero's rank and every streamed row's
    largest rank, with ``longest`` standing for "not listed"."""
    if len(hdn_lists) != stream.row_bounds.size - 1:
        raise ValueError("a plan needs exactly one HDN list per cluster")
    listed = [ids for ids in hdn_lists if ids.size]
    if listed and min(int(ids.min()) for ids in listed) < 0:
        raise ValueError("HDN node ids must be non-negative")
    dtype = np.int32 if longest < np.iinfo(np.int32).max else np.int64
    width = max([stream.lhs.n_cols] + [int(ids.max()) + 1 for ids in listed])
    rank_of_col = np.full(width, longest, dtype=dtype)
    nnz_bounds = stream.nnz_bounds
    for cluster, ids in enumerate(hdn_lists):
        if nnz_bounds[cluster] == nnz_bounds[cluster + 1]:
            continue
        # One shared column-indexed table, loaded with this cluster's list
        # and cleared after: each cluster looks up its own list only.
        positions = np.arange(ids.size)
        rank_of_col[ids] = positions
        if not np.array_equal(rank_of_col[ids], positions):
            # A repeated id: the column's rank is its first occurrence.
            distinct, first = np.unique(ids, return_index=True)
            rank_of_col[distinct] = first
        for cols, row_starts in stream.blocks(cluster):
            ranks = rank_of_col[cols]
            yield cluster, ranks, np.maximum.reduceat(ranks, row_starts)
        rank_of_col[ids] = longest


def _below(histogram: np.ndarray) -> np.ndarray:
    """``[R] -> how many values are below R``, for ``R = 0 .. longest``, from
    the values' histogram over ``0 .. longest``."""
    return np.concatenate([[0], np.cumsum(histogram[:-1])]).astype(np.int64)


class HDNProfile:
    """Rank profile of one aggregation LHS under one preprocessing plan.

    Hits, rows with a miss and prefetched rows at any capacity are lookups
    in tables indexed by ``R``: O(longest list + clusters) integers, never
    an array per non-zero nor one per (cluster, list slot).  Both the build
    and the per-cluster counts walk the stream a row block at a time
    (:meth:`ClusterStream.blocks`); per-cluster counts take one more walk
    the first time a capacity is asked for, and are kept.  The profile
    refers to the plan's arrays, not to the plan, which memoises it
    (:meth:`PreprocessPlan.hdn_profile`).
    """

    def __init__(self, lhs: CSRMatrix, plan: "PreprocessPlan") -> None:
        self.lhs = lhs
        self._plan_arrays = (plan.cluster_of_node, plan.clusters, plan.hdn_lists)
        self.list_sizes = np.array([ids.size for ids in plan.hdn_lists], dtype=np.int64)
        self.longest = int(self.list_sizes.max(initial=0))
        stream = ClusterStream.of(lhs, plan.cluster_of_node, plan.clusters)
        # Histograms over 0 .. longest, counted a block at a time.
        hits = np.zeros(self.longest + 1, dtype=np.int64)
        rows = np.zeros(self.longest + 1, dtype=np.int64)
        for _cluster, ranks, row_max in _ranked_blocks(stream, plan.hdn_lists, self.longest):
            hits += np.bincount(ranks, minlength=self.longest + 1)
            rows += np.bincount(row_max, minlength=self.longest + 1)
        self.cluster_nnz = np.diff(stream.nnz_bounds)
        self.nnz = int(stream.offsets[-1])
        self.touched_rows = int(rows.sum())
        self._hits_below = _below(hits)
        self._rows_below = _below(rows)
        # sum(min(size, R)) adds, for each r < R, the lists longer than r.
        sizes_below = _below(np.bincount(self.list_sizes, minlength=self.longest + 1))
        longer = self.list_sizes.size - sizes_below[1:]
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
            cluster_of_node, clusters, hdn_lists = self._plan_arrays
            stream = ClusterStream.of(self.lhs, cluster_of_node, clusters)
            hits = np.zeros(len(clusters), dtype=np.int64)
            rows_with_miss = np.zeros(len(clusters), dtype=np.int64)
            for cluster, ranks, row_max in _ranked_blocks(stream, hdn_lists, self.longest):
                hits[cluster] += np.count_nonzero(ranks < capped)
                rows_with_miss[cluster] += np.count_nonzero(row_max >= capped)
            self._per_cluster[capped] = (hits, rows_with_miss)
        hits, rows_with_miss = self._per_cluster[capped]
        return ClusterCounts(
            nnz=self.cluster_nnz,
            hits=hits,
            rows_with_miss=rows_with_miss,
            filled_rows=np.minimum(self.list_sizes, capped),
        )
