"""Graph container built on the sparse-matrix substrate.

A :class:`Graph` owns the adjacency structure of an (undirected or directed)
graph and produces the normalised adjacency matrix used by GCN inference,
``A_hat = D^{-1/2} (A + I) D^{-1/2}`` (Kipf & Welling normalisation), which
the paper treats as the sparse LHS of the aggregation SpDeGEMM.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.sparse.blocks import row_blocks
from repro.sparse.csr import CSRMatrix
from repro.sparse.unique import unique_in_place


@dataclass
class Graph:
    """A graph described by an edge list.

    Attributes:
        num_nodes: number of vertices; node ids are ``0 .. num_nodes - 1``.
        src: source node of each edge.
        dst: destination node of each edge.
        name: optional human-readable name of the dataset the graph models.
        undirected: when True, each stored edge represents both directions.
        communities: optional ground-truth community label per node (synthetic
            generators record the planted communities here so tests and
            oracle partitioning experiments can use them).
    """

    num_nodes: int
    src: np.ndarray
    dst: np.ndarray
    name: str = "graph"
    undirected: bool = True
    communities: np.ndarray | None = field(default=None, compare=False)
    _adjacency_cache: CSRMatrix | None = field(default=None, repr=False, compare=False)
    _normalized_cache: CSRMatrix | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.src = np.asarray(self.src, dtype=np.int64)
        self.dst = np.asarray(self.dst, dtype=np.int64)
        if self.src.shape != self.dst.shape:
            raise ValueError("src and dst must have the same length")
        if self.num_nodes <= 0:
            raise ValueError("graph must have at least one node")
        if self.src.size:
            if self.src.min() < 0 or self.src.max() >= self.num_nodes:
                raise ValueError("src node id out of range")
            if self.dst.min() < 0 or self.dst.max() >= self.num_nodes:
                raise ValueError("dst node id out of range")

    @property
    def num_edges(self) -> int:
        """Number of directed edges in the adjacency matrix.

        For undirected graphs this counts both directions, matching how the
        paper reports edge counts for its datasets (Table I counts non-zeros
        of the adjacency matrix).
        """
        return int(self.adjacency().nnz)

    @property
    def average_degree(self) -> float:
        """Average out-degree of the adjacency matrix."""
        return self.num_edges / self.num_nodes

    def adjacency(self) -> CSRMatrix:
        """The (binary, deduplicated) adjacency matrix in CSR format.

        A binary matrix stores no values: ``data`` is a read-only
        zero-stride view of one 1.0.
        """
        if self._adjacency_cache is None:
            n, m = self.num_nodes, self.src.size
            # Packed row-major keys, both directions of an undirected edge in
            # one array: their sorted distinct values are the CSR order, and
            # duplicate edges collapse to one binary entry.
            keys = np.empty(2 * m if self.undirected else m, dtype=np.int64)
            np.multiply(self.src, n, out=keys[:m])
            keys[:m] += self.dst
            if self.undirected:
                np.multiply(self.dst, n, out=keys[m:])
                keys[m:] += self.src
            indices = unique_in_place(keys)
            if indices.size < keys.size:
                indices = indices.copy()
            indptr = np.searchsorted(indices, np.arange(n + 1) * n)
            self._adjacency_cache = CSRMatrix(
                shape=(n, n),
                indptr=indptr,
                indices=np.remainder(indices, n, out=indices),
                data=np.broadcast_to(np.float64(1.0), indices.shape),
            )
        return self._adjacency_cache

    def degrees(self) -> np.ndarray:
        """Out-degree of every node (row non-zero counts of the adjacency)."""
        return self.adjacency().row_nnz()

    def normalized_adjacency(self) -> CSRMatrix:
        """Symmetrically normalised adjacency ``D^{-1/2}(A + I)D^{-1/2}``.

        The paper performs this normalisation offline as a one-time
        preprocessing step; we do the same and cache the result.  The
        diagonal is merged into the already sorted CSR: a self-loop already
        in A becomes 2.0, every other row gains a 1.0 at its sorted place.
        Rows are merged and scaled one block at a time, straight into the
        result's arrays.
        """
        if self._normalized_cache is not None:
            return self._normalized_cache
        adj = self.adjacency()
        n = self.num_nodes
        row_nnz = adj.row_nnz()
        # A is binary, so row i of A + I sums to its non-zeros plus one.
        inv_sqrt = 1.0 / np.sqrt((row_nnz + 1).astype(np.float64))

        # The rows that gain a diagonal entry: every row but a self-loop's.
        missing = np.full(n, True)
        missing[self.src[self.src == self.dst]] = False
        indptr = adj.indptr + np.concatenate([[0], np.cumsum(missing)])
        indices = np.empty(int(indptr[-1]), dtype=np.int64)
        data = np.empty(indices.size)
        for lo, hi in row_blocks(adj.indptr):
            cols = adj.indices[adj.indptr[lo] : adj.indptr[hi]]
            rows = np.repeat(np.arange(lo, hi), row_nnz[lo:hi])
            vals = np.ones(cols.size)
            # Where each row's diagonal entry sorts among the block's
            # row-major keys: on it, or where it goes.
            at = np.searchsorted(rows * n + cols, np.arange(lo, hi) * (n + 1))
            vals[at[~missing[lo:hi]]] += 1.0
            add = np.flatnonzero(missing[lo:hi])
            cols = np.insert(cols, at[add], lo + add)
            rows = np.insert(rows, at[add], lo + add)
            vals = np.insert(vals, at[add], 1.0)
            out = slice(indptr[lo], indptr[hi])
            indices[out] = cols
            np.multiply(vals, inv_sqrt[rows], out=data[out])
            data[out] *= inv_sqrt[cols]
        self._normalized_cache = CSRMatrix(shape=(n, n), indptr=indptr, indices=indices, data=data)
        return self._normalized_cache

    @classmethod
    def from_edge_list(
        cls, num_nodes: int, edges: list[tuple[int, int]], name: str = "graph", undirected: bool = True
    ) -> "Graph":
        """Build a graph from a Python list of ``(src, dst)`` tuples."""
        if edges:
            src, dst = zip(*edges)
        else:
            src, dst = (), ()
        return cls(
            num_nodes=num_nodes,
            src=np.asarray(src, dtype=np.int64),
            dst=np.asarray(dst, dtype=np.int64),
            name=name,
            undirected=undirected,
        )


def top_degree_edge_coverage(graph: Graph, k: int) -> float:
    """Fraction of adjacency non-zeros incident to the top-``k`` degree nodes.

    This is the quantity the HDN cache exploits: for power-law graphs a small
    ``k`` covers a large fraction of edges.
    """
    degrees = graph.degrees()
    total = degrees.sum()
    if total == 0:
        return 0.0
    k = min(k, degrees.size)
    top = -np.sort(-degrees, kind="stable")[:k]
    return float(top.sum()) / float(total)
