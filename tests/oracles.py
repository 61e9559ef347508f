"""Functional references the tests compare against.

:class:`COOMatrix` and :func:`coo_to_csr` are the coordinate format the
adjacency references build A and Â through: duplicates summed, then
compressed.

The simulators price a dataflow from shapes and sparsity alone; they never
compute the product.  These kernels do, one per dataflow the paper
contrasts, so tests can check that each loop order gives the same answer:

* inner product  — output-stationary dot products (AWB-GCN),
* outer product  — column-of-LHS times row-of-RHS rank-1 updates (GCNAX),
* row-wise / Gustavson product — one LHS row scales several RHS rows (GROW,
  MatRaptor, GAMMA), plus GROW's multi-row-stationary window.

The GCN references compute ``sigma(A (X W))`` straight from numpy;
:func:`model_mac_counts` sums a model's MAC counts in both execution
orders, and :func:`relabel` renumbers a graph's nodes, the layout change
partitioning applies, which no simulated total may notice.

The HDN references are GROW's cache as hardware state: the CAM-like HDN ID
list, the pinned HDN cache, and the per-cluster loop that fills both at each
cluster's start and looks up every non-zero.  The simulator answers the same
questions from a rank profile (:mod:`repro.core.hdn_profile`).

The partitioning references pack communities into clusters one label at a
time, finding each community's members with a scan of every node (the
partitioner groups them with one sort), and refine the cluster boundaries
with the Python sweep over fresh-int adjacency lists that the partitioner's
block-decided walk over the CSR replaced.

:func:`pattern_of` packs a CSR's stored positions into the
:class:`~repro.sparse.pattern.SparsityPattern` a bundle keeps for X, and
:func:`pattern_indices` unpacks a pattern's column indices back, all of
them at once.

The cold-path construction references hold whole-length scratch where the
code they were replaced by holds block-sized scratch: the normalisation
merged over arrays as long as A (:func:`normalized_adjacency_reference`),
the Chung-Lu batch sampler drawing each purpose's uniforms in one call
(:func:`sample_batch_reference`), and the R-MAT generator drawing each
batch's uniforms in one call and deduplicating copies of its keys
(:func:`rmat_graph_reference`).

The baseline references are the loops the baselines replaced: an LRU cache
replayed over an ``OrderedDict`` (GAMMA's fiber cache and GROW's
demand-based HDN cache replay through ``functools.lru_cache``), and GCNAX's
phase priced tile by tile in floating point from the full tile statistics
(the simulator prices a memoised tile-size histogram in integers).

The model passes' references hold scratch as long as a matrix's non-zeros
where the simulators walk row blocks: the tile statistics from one sort of
every non-zero's (strip, column) key (:func:`tile_statistics_reference`),
HyGCN's window count over every non-zero at once
(:func:`window_hits_reference`), the cluster coupling from whole-matrix
cross-cluster masks (:class:`ClusterCouplingReference`), and HDN selection
from one ``np.unique`` and a three-key ``np.lexsort`` over every
(cluster, column) pair (:func:`plan_from_partition_reference`).

:func:`sram_leakage_mw` is the SRAM leakage model the energy model no
longer reads.

The scale-out references are the chip path the engine replaced: each chip
row-slices the workloads (:func:`chip_workloads`) and renumbers its clusters
into a local plan (:func:`local_plan`) before a GROW run, and each chip
count's shard plan rescans the adjacency for its cluster graph
(:func:`cluster_graph_reference`) and every chip's halo
(:func:`build_shard_plan_reference`).  The simulator prices a chip from the
bundle plan's per-cluster counts, and derives every chip count's shard plan
from one memoised cluster-coupling pass.

:func:`powerlaw_fit_exponent` measures the exponent a generated graph's
degree distribution follows, for the scenario tests.
"""

from __future__ import annotations

import dataclasses
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro.accelerators.base import NNZ_BYTES, PhaseStats
from repro.accelerators.gcnax import GCNAXConfig
from repro.accelerators.workload import LayerWorkload, SpDeGemmPhase
from repro.core.accelerator import ClusterStats
from repro.core.config import GrowConfig
from repro.core.multi_pe import greedy_longest_first
from repro.core.preprocess import GrowPreprocessor, PreprocessPlan
from repro.core.runahead import RunaheadModel
from repro.energy.sram_model import KB
from repro.gcn.layer import GCNLayer, GCNModel
from repro.gcn.ops_count import LayerMacCounts, mac_count_a_xw, mac_count_ax_w
from repro.graph.generators import _edgeless_graph
from repro.graph.graph import Graph
from repro.graph.partition import PartitionResult, partition_graph
from repro.scaleout.shard import SHARD_METHODS, ChipShard, ShardPlan
from repro.sparse import blocks
from repro.sparse.csr import CSRMatrix
from repro.sparse.pattern import SparsityPattern
from repro.sparse.tiling import TileStatistics, tile_grid_shape
from repro.sparse.unique import run_starts, sorted_unique


@dataclass
class COOMatrix:
    """A sparse matrix in coordinate format.

    Attributes:
        shape: ``(n_rows, n_cols)`` of the logical matrix.
        rows: integer array of row indices, one per non-zero.
        cols: integer array of column indices, one per non-zero.
        vals: float array of non-zero values, aligned with ``rows``/``cols``.
    """

    shape: tuple[int, int]
    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray

    def __post_init__(self) -> None:
        self.rows = np.asarray(self.rows, dtype=np.int64)
        self.cols = np.asarray(self.cols, dtype=np.int64)
        self.vals = np.asarray(self.vals, dtype=np.float64)
        if not (self.rows.shape == self.cols.shape == self.vals.shape):
            raise ValueError(
                "rows, cols and vals must have identical shapes, got "
                f"{self.rows.shape}, {self.cols.shape}, {self.vals.shape}"
            )
        n_rows, n_cols = self.shape
        if self.rows.size:
            if self.rows.min() < 0 or self.rows.max() >= n_rows:
                raise ValueError("row index out of bounds")
            if self.cols.min() < 0 or self.cols.max() >= n_cols:
                raise ValueError("column index out of bounds")

    @property
    def nnz(self) -> int:
        """Number of stored non-zero entries."""
        return int(self.vals.size)

    @property
    def density(self) -> float:
        """Fraction of matrix cells that are non-zero."""
        n_rows, n_cols = self.shape
        total = n_rows * n_cols
        if total == 0:
            return 0.0
        return self.nnz / total

    @classmethod
    def empty(cls, shape: tuple[int, int]) -> "COOMatrix":
        """Create an all-zero matrix of the given shape."""
        return cls(
            shape=shape,
            rows=np.empty(0, dtype=np.int64),
            cols=np.empty(0, dtype=np.int64),
            vals=np.empty(0, dtype=np.float64),
        )

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "COOMatrix":
        """Build a COO matrix from a dense 2-D array."""
        dense = np.asarray(dense, dtype=np.float64)
        if dense.ndim != 2:
            raise ValueError("from_dense expects a 2-D array")
        rows, cols = np.nonzero(dense)
        return cls(shape=dense.shape, rows=rows, cols=cols, vals=dense[rows, cols])

    def to_dense(self) -> np.ndarray:
        """Materialise the matrix as a dense 2-D array."""
        dense = np.zeros(self.shape, dtype=np.float64)
        # np.add.at handles duplicate coordinates by accumulation, matching
        # the usual sparse-matrix semantics.
        np.add.at(dense, (self.rows, self.cols), self.vals)
        return dense

    def deduplicate(self) -> "COOMatrix":
        """Return a copy with duplicate coordinates summed."""
        if self.nnz == 0:
            return COOMatrix.empty(self.shape)
        n_rows, n_cols = self.shape
        keys = self.rows * n_cols + self.cols
        if keys.size == 1 or np.all(np.diff(keys) > 0):
            # Already sorted row-major with no duplicates (the common case for
            # matrices straight out of ``from_dense`` or a prior deduplicate):
            # sorting and summing would reproduce the input exactly.
            return COOMatrix(
                shape=self.shape,
                rows=self.rows.copy(),
                cols=self.cols.copy(),
                vals=self.vals.copy(),
            )
        order = np.argsort(keys, kind="stable")
        keys = keys[order]
        vals = self.vals[order]
        # ``keys`` is sorted now, so the unique keys are the run starts: the
        # same (unique_keys, first-index) pair ``np.unique(keys,
        # return_index=True)`` computes, minus its internal re-sort.
        start = run_starts(keys)
        unique_keys = keys[start]
        summed = np.add.reduceat(vals, start)
        return COOMatrix(
            shape=self.shape,
            rows=unique_keys // n_cols,
            cols=unique_keys % n_cols,
            vals=summed,
        )

    def transpose(self) -> "COOMatrix":
        """Return the transposed matrix (rows and columns swapped)."""
        return COOMatrix(
            shape=(self.shape[1], self.shape[0]),
            rows=self.cols.copy(),
            cols=self.rows.copy(),
            vals=self.vals.copy(),
        )

    def row_counts(self) -> np.ndarray:
        """Number of non-zero entries in each row."""
        return np.bincount(self.rows, minlength=self.shape[0]).astype(np.int64)

    def col_counts(self) -> np.ndarray:
        """Number of non-zero entries in each column."""
        return np.bincount(self.cols, minlength=self.shape[1]).astype(np.int64)

    def permute(self, row_perm: np.ndarray | None = None, col_perm: np.ndarray | None = None) -> "COOMatrix":
        """Relabel rows/columns according to permutations.

        ``row_perm[i]`` gives the new index of old row ``i`` (and likewise for
        columns).  This is the operation graph partitioning applies to the
        adjacency matrix: nodes are renumbered, values are unchanged.
        """
        rows = self.rows if row_perm is None else np.asarray(row_perm)[self.rows]
        cols = self.cols if col_perm is None else np.asarray(col_perm)[self.cols]
        return COOMatrix(shape=self.shape, rows=rows, cols=cols, vals=self.vals.copy())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, COOMatrix):
            return NotImplemented
        if self.shape != other.shape:
            return False
        return np.array_equal(self.deduplicate().to_dense(), other.deduplicate().to_dense())


def coo_to_csr(coo: COOMatrix) -> CSRMatrix:
    """Convert a COO matrix to CSR, summing duplicates and sorting columns."""
    # deduplicate() returns entries sorted row-major (ascending row, then
    # ascending column), which is exactly CSR order — no further sort needed.
    coo = coo.deduplicate()
    n_rows, n_cols = coo.shape
    counts = np.bincount(coo.rows, minlength=n_rows)
    indptr = np.concatenate([[0], np.cumsum(counts)])
    return CSRMatrix(shape=coo.shape, indptr=indptr, indices=coo.cols.copy(), data=coo.vals.copy())


def _checked_rhs(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    dense = np.asarray(dense, dtype=np.float64)
    if dense.shape[0] != sparse.n_cols:
        raise ValueError(
            f"dimension mismatch: sparse is {sparse.shape}, dense is {dense.shape}"
        )
    return dense


def spmm_reference(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Numpy reference result of ``sparse @ dense`` used as ground truth."""
    return sparse.matmul_dense(dense)


def spmm_gustavson(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Row-wise (Gustavson) product: GROW's dataflow.

    For every non-zero ``A[i, k]`` of the LHS row ``i``, the RHS row ``k`` is
    scaled and accumulated into output row ``i``.  Output rows are independent
    of each other, which is what enables GROW's multi-row runahead execution.
    """
    dense = _checked_rhs(sparse, dense)
    out = np.zeros((sparse.n_rows, dense.shape[1]), dtype=np.float64)
    for i in range(sparse.n_rows):
        cols, vals = sparse.row(i)
        for k, a_ik in zip(cols, vals):
            out[i] += a_ik * dense[k]
    return out


def spmm_outer_product(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Outer product: GCNAX's dataflow.

    Column ``k`` of the LHS is multiplied with row ``k`` of the RHS to form a
    rank-1 contribution to the whole output; partial outputs from different
    ``k`` must be accumulated, which is why the outer-product dataflow keeps
    2-D output tiles resident on chip.  The columns are walked through one
    stable argsort of the CSR column indices, which keeps each column's rows
    ascending.
    """
    dense = _checked_rhs(sparse, dense)
    order = np.argsort(sparse.indices, kind="stable")
    row_ids = np.repeat(np.arange(sparse.n_rows), sparse.row_nnz())[order]
    vals = sparse.data[order]
    starts = np.searchsorted(sparse.indices[order], np.arange(sparse.n_cols + 1))
    out = np.zeros((sparse.n_rows, dense.shape[1]), dtype=np.float64)
    for k in range(sparse.n_cols):
        lo, hi = starts[k], starts[k + 1]
        if hi > lo:
            out[row_ids[lo:hi]] += np.outer(vals[lo:hi], dense[k])
    return out


def spmm_inner_product(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """Inner product: AWB-GCN's dataflow.

    Every output element ``C[i, j]`` is produced by a full dot product of LHS
    row ``i`` with RHS column ``j``.
    """
    dense = _checked_rhs(sparse, dense)
    n_out_cols = dense.shape[1]
    out = np.zeros((sparse.n_rows, n_out_cols), dtype=np.float64)
    for i in range(sparse.n_rows):
        cols, vals = sparse.row(i)
        if cols.size == 0:
            continue
        for j in range(n_out_cols):
            out[i, j] = float(np.dot(vals, dense[cols, j]))
    return out


def spmm_mac_count(sparse: CSRMatrix, dense_cols: int) -> int:
    """Number of effectual multiply-accumulate operations of ``sparse @ dense``.

    Every non-zero of the sparse matrix contributes one MAC per output column.
    This is the quantity Figure 2 of the paper compares across execution
    orders.
    """
    return sparse.nnz * int(dense_cols)


def row_stationary_execute(sparse: CSRMatrix, dense: np.ndarray) -> np.ndarray:
    """``sparse @ dense`` with the row-wise product, vectorised per row.

    Equivalent to :func:`spmm_gustavson`; each output row is one LHS row's
    values times the RHS rows its columns select.
    """
    return row_stationary_execute_multi_row(sparse, dense, window=1)


def row_stationary_execute_multi_row(
    sparse: CSRMatrix, dense: np.ndarray, window: int
) -> np.ndarray:
    """The row-wise product, processing ``window`` output rows at a time.

    Functionally identical to :func:`row_stationary_execute`: the
    multi-row-stationary window (runahead execution) changes scheduling,
    never results.
    """
    if window < 1:
        raise ValueError("window must be at least 1")
    dense = _checked_rhs(sparse, dense)
    out = np.zeros((sparse.n_rows, dense.shape[1]), dtype=np.float64)
    for start in range(0, sparse.n_rows, window):
        for i in range(start, min(start + window, sparse.n_rows)):
            cols, vals = sparse.row(i)
            if cols.size:
                out[i] = vals @ dense[cols]
    return out


def model_mac_counts(model: GCNModel) -> LayerMacCounts:
    """Aggregate MAC counts of a whole model under both execution orders."""
    ax_w = sum(mac_count_ax_w(layer) for layer in model.layers)
    a_xw = sum(mac_count_a_xw(layer) for layer in model.layers)
    return LayerMacCounts(layer_name=model.name, ax_then_w=ax_w, a_then_xw=a_xw)


def relabel(graph: Graph, permutation: np.ndarray, name_suffix: str = "-relabel") -> Graph:
    """Return a new graph with node ids renumbered by ``permutation``.

    ``permutation[i]`` is the new id of old node ``i``.  This is the
    operation that graph partitioning performs: the topology is unchanged,
    only node ids (hence the adjacency-matrix layout) change.
    """
    permutation = np.asarray(permutation, dtype=np.int64)
    if permutation.size != graph.num_nodes:
        raise ValueError("permutation length must equal num_nodes")
    if np.sort(permutation, kind="stable").tolist() != list(range(graph.num_nodes)):
        raise ValueError("permutation must be a bijection over node ids")
    communities = None
    if graph.communities is not None:
        communities = np.empty_like(graph.communities)
        communities[permutation] = graph.communities
    return Graph(
        num_nodes=graph.num_nodes,
        src=permutation[graph.src],
        dst=permutation[graph.dst],
        name=graph.name + name_suffix,
        undirected=graph.undirected,
        communities=communities,
    )


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit."""
    return np.maximum(np.asarray(x, dtype=np.float64), 0.0)


def gcn_layer_forward(
    adjacency: CSRMatrix,
    features: np.ndarray,
    weight: np.ndarray,
    apply_relu: bool = True,
) -> np.ndarray:
    """Reference single-layer forward pass ``sigma(A (X W))``."""
    xw = np.asarray(features, dtype=np.float64) @ np.asarray(weight, dtype=np.float64)
    out = adjacency.matmul_dense(xw)
    return relu(out) if apply_relu else out


def layer_output_reference(layer: GCNLayer) -> np.ndarray:
    """Reference output of one already-constructed layer."""
    return gcn_layer_forward(layer.adjacency, layer.features, layer.weight, layer.apply_relu)


@dataclass
class HDNIdList:
    """The CAM that holds the ids of the currently cached high-degree nodes.

    The ids are kept sorted and distinct, beside a boolean membership bitmap
    over ``0 .. max id`` that is built once per load, so a lookup is one
    gather instead of a search per column.
    """

    capacity: int
    node_ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    _member: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be non-negative")
        node_ids = self._normalise(self.node_ids)
        if node_ids.size > self.capacity:
            raise ValueError(
                f"HDN ID list overflow: {node_ids.size} ids, capacity {self.capacity}"
            )
        self._store(node_ids)

    @staticmethod
    def _normalise(node_ids: np.ndarray) -> np.ndarray:
        """Sorted, distinct, non-negative ids (a copy the list owns)."""
        node_ids = sorted_unique(np.array(node_ids, dtype=np.int64))
        if node_ids.size and node_ids[0] < 0:
            raise ValueError(f"HDN node ids must be non-negative, got {node_ids[0]}")
        return node_ids

    def _store(self, node_ids: np.ndarray) -> None:
        self.node_ids = node_ids
        self._member = np.zeros(int(node_ids[-1]) + 1 if node_ids.size else 0, dtype=bool)
        self._member[node_ids] = True

    def load(self, node_ids: np.ndarray) -> None:
        """Replace the list contents with a new cluster's HDN ids."""
        self._store(self._normalise(node_ids)[: self.capacity])

    def lookup(self, columns: np.ndarray) -> np.ndarray:
        """Boolean hit mask for a batch of column ids; out-of-range ids miss."""
        columns = np.asarray(columns, dtype=np.int64)
        member = self._member
        if member.size == 0:
            return np.zeros(columns.shape, dtype=bool)
        hits = member.take(columns, mode="clip")
        hits &= (columns >= 0) & (columns < member.size)
        return hits

    @property
    def size(self) -> int:
        return int(self.node_ids.size)

    @property
    def storage_bytes(self) -> int:
        """Storage footprint at 3 bytes per node id (paper Section V-C)."""
        return self.capacity * 3


@dataclass
class HDNCache:
    """The SRAM that pins the dense RHS rows of the current cluster's HDNs."""

    capacity_bytes: int
    row_bytes: int = 0
    id_list: HDNIdList = field(default_factory=lambda: HDNIdList(capacity=4096))
    hits: int = 0
    misses: int = 0
    fill_bytes: int = 0
    lookup_bytes: int = 0

    @property
    def capacity_rows(self) -> int:
        """Number of RHS rows that fit at the current row size."""
        if self.row_bytes <= 0:
            return 0
        return min(self.capacity_bytes // self.row_bytes, self.id_list.capacity)

    def begin_phase(self, row_bytes: int) -> None:
        """Configure the cache for a new phase's dense-row size."""
        if row_bytes <= 0:
            raise ValueError("row_bytes must be positive")
        self.row_bytes = row_bytes

    def fill_cluster(self, hdn_node_ids: np.ndarray) -> int:
        """Load a cluster's HDN rows; returns the bytes fetched from DRAM."""
        hdn_node_ids = np.asarray(hdn_node_ids, dtype=np.int64)
        usable = hdn_node_ids[: self.capacity_rows]
        self.id_list.load(usable)
        fetched = int(usable.size) * self.row_bytes
        self.fill_bytes += fetched
        return fetched

    def lookup_batch(self, columns: np.ndarray) -> np.ndarray:
        """Hit mask for a batch of RHS row requests; updates hit/miss counters."""
        mask = self.id_list.lookup(columns)
        batch_hits = int(mask.sum())
        self.hits += batch_hits
        self.misses += int(mask.size - batch_hits)
        self.lookup_bytes += int(mask.size) * self.row_bytes
        return mask

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache."""
        total = self.hits + self.misses
        if total == 0:
            return 0.0
        return self.hits / total


def lru_hits_reference(column_stream: np.ndarray, capacity_rows: int) -> tuple[int, int]:
    """Run an LRU cache of ``capacity_rows`` entries over a row-reference stream.

    Returns ``(hits, misses)``, one ``OrderedDict`` operation per reference.
    """
    if capacity_rows <= 0:
        return 0, int(column_stream.size)
    cache: OrderedDict[int, None] = OrderedDict()
    hits = 0
    misses = 0
    for column in column_stream.tolist():
        if column in cache:
            hits += 1
            cache.move_to_end(column)
        else:
            misses += 1
            cache[column] = None
            if len(cache) > capacity_rows:
                cache.popitem(last=False)
    return hits, misses


def gcnax_phase_reference(config: GCNAXConfig, phase: SpDeGemmPhase) -> PhaseStats:
    """GCNAX's phase, priced tile by tile from the full tile statistics."""
    arch = config.arch
    granularity = arch.access_granularity
    rhs_row_bytes = phase.rhs_row_bytes
    rhs_row_lines = -(-rhs_row_bytes // granularity)

    tiles = tile_statistics_reference(phase.sparse, config.tile_rows, config.tile_cols)
    requested_sparse = tiles.total_nnz * NNZ_BYTES
    if tiles.num_tiles:
        per_tile_bytes = np.maximum(
            granularity,
            np.ceil(tiles.nnz_per_tile * NNZ_BYTES / granularity) * granularity,
        )
        transferred_sparse = int(per_tile_bytes.sum())
    else:
        transferred_sparse = 0

    if phase.rhs_resident:
        dense_requested = phase.dense_bytes
        dense_transferred = -(-phase.dense_bytes // granularity) * granularity
    else:
        dense_rows_fetched = tiles.total_distinct_cols
        dense_requested = dense_rows_fetched * rhs_row_bytes
        dense_transferred = dense_rows_fetched * rhs_row_lines * granularity

    output_bytes = -(-phase.output_bytes // granularity) * granularity
    dram_read = transferred_sparse + dense_transferred
    sparse_util = requested_sparse / transferred_sparse if transferred_sparse else 0.0
    return PhaseStats(
        name=phase.name,
        compute_cycles=phase.mac_operations / arch.num_macs,
        memory_cycles=(dram_read + output_bytes) / arch.bytes_per_cycle,
        stall_cycles=tiles.num_tiles * config.tile_fetch_overhead_cycles,
        mac_operations=phase.mac_operations,
        dram_read_bytes=dram_read,
        dram_write_bytes=output_bytes,
        requested_read_bytes=requested_sparse + dense_requested,
        sram_access_bytes={
            "sparse_buffer": transferred_sparse * 2,
            "dense_buffer": dense_transferred * 2,
            "output_buffer": phase.output_bytes * 2,
        },
        extra={
            "occupied_tiles": float(tiles.num_tiles),
            "mean_nnz_per_tile": float(tiles.nnz_per_tile.mean()) if tiles.num_tiles else 0.0,
            "sparse_bandwidth_utilization": float(min(1.0, sparse_util)),
            "dense_rows_fetched": float(0 if phase.rhs_resident else tiles.total_distinct_cols),
        },
    )


def _distinct_sorted(values: np.ndarray) -> int:
    """Number of distinct values in a non-decreasing array."""
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values[1:] != values[:-1])) + 1


def streaming_phase_reference(
    config: GrowConfig, phase: SpDeGemmPhase, plan: PreprocessPlan
) -> tuple[PhaseStats, list[ClusterStats]]:
    """GROW's aggregation phase, streamed cluster by cluster through the cache.

    Every cluster loads its own list into the ID list, an empty one included,
    so no cluster ever looks up the ids an earlier cluster left behind.
    """
    arch = config.arch
    granularity = arch.access_granularity
    row_bytes = phase.rhs_row_bytes
    row_lines = -(-row_bytes // granularity)

    cache = HDNCache(
        capacity_bytes=config.hdn_cache_bytes if config.enable_hdn_cache else 0,
        id_list=HDNIdList(capacity=config.hdn_id_capacity),
    )
    cache.begin_phase(row_bytes)
    cache_rows = config.hdn_cache_rows(row_bytes)
    lru = config.hdn_replacement == "lru" and config.enable_hdn_cache

    sparse = phase.sparse
    row_of_nnz = np.repeat(np.arange(sparse.n_rows), sparse.row_nnz())
    cluster_of_nnz = plan.cluster_of_node[row_of_nnz]
    total_hits = total_misses = total_rows_with_miss = fill_bytes = hdn_id_bytes = 0
    cluster_stats: list[ClusterStats] = []
    for cluster_id, (nodes, hdn_list) in enumerate(zip(plan.clusters, plan.hdn_lists)):
        if nodes.size:
            mask = cluster_of_nnz == plan.cluster_of_node[nodes[0]]
            cols, rows = sparse.indices[mask], row_of_nnz[mask]
        else:
            cols = rows = np.empty(0, dtype=np.int64)
        usable_hdns = hdn_list[:cache_rows]
        cluster_fill = 0
        if lru:
            # Demand-based alternative (Section VIII): no prefetch, no ID list,
            # and the missed-row count scaled from the miss ratio.
            hits, misses = lru_hits_reference(cols, cache_rows) if cols.size else (0, 0)
            missed_rows = (
                int(round(_distinct_sorted(rows) * (misses / cols.size))) if cols.size else 0
            )
        else:
            cluster_fill = cache.fill_cluster(usable_hdns)
            hdn_id_bytes += int(usable_hdns.size) * 3
            hit_mask = cache.lookup_batch(cols)
            hits = int(hit_mask.sum())
            misses = int(cols.size - hits)
            missed_rows = _distinct_sorted(rows[~hit_mask])
        fill_bytes += cluster_fill
        total_hits += hits
        total_misses += misses
        total_rows_with_miss += missed_rows
        cluster_stats.append(
            ClusterStats(
                cluster_id=cluster_id,
                nnz=int(cols.size),
                hits=hits,
                misses=misses,
                rows_with_miss=missed_rows,
                compute_cycles=cols.size * phase.rhs_cols / arch.num_macs,
                memory_bytes=(
                    -(-int(cols.size) * NNZ_BYTES // granularity) * granularity
                    + cluster_fill
                    + misses * row_lines * granularity
                    + -(-int(nodes.size) * row_bytes // granularity) * granularity
                ),
            )
        )

    sparse_requested = sparse.nnz * NNZ_BYTES
    sparse_transferred = -(-sparse_requested // granularity) * granularity
    fill_transferred = -(-fill_bytes // granularity) * granularity if fill_bytes else 0
    hdn_id_transferred = -(-hdn_id_bytes // granularity) * granularity if hdn_id_bytes else 0
    output_bytes = -(-phase.output_bytes // granularity) * granularity
    dram_read = (
        sparse_transferred
        + total_misses * row_lines * granularity
        + fill_transferred
        + hdn_id_transferred
    )
    runahead = RunaheadModel(
        degree=config.effective_runahead,
        dram_latency_cycles=arch.dram_latency_cycles,
        ldn_entries=config.ldn_table_entries,
    )
    lookups = total_hits + total_misses
    stats = PhaseStats(
        name=phase.name,
        compute_cycles=phase.mac_operations / arch.num_macs,
        memory_cycles=(dram_read + output_bytes) / arch.bytes_per_cycle,
        stall_cycles=runahead.exposed_stall_cycles(total_rows_with_miss),
        mac_operations=phase.mac_operations,
        dram_read_bytes=dram_read,
        dram_write_bytes=output_bytes,
        requested_read_bytes=(
            sparse_requested + total_misses * row_bytes + fill_bytes + hdn_id_bytes
        ),
        sram_access_bytes={
            "i_buf_sparse": sparse_transferred * 2,
            "hdn_cache": fill_bytes + total_hits * row_bytes,
            "hdn_id_list": lookups * 3,
            "o_buf_dense": phase.output_bytes * 2,
        },
        extra={
            "hdn_hit_rate": total_hits / lookups if lookups else 0.0,
            "hdn_hits": float(total_hits),
            "hdn_misses": float(total_misses),
            "rows_with_miss": float(total_rows_with_miss),
            "num_clusters": float(plan.num_clusters),
            "hdn_cache_rows": float(cache_rows),
            "partitioned": 1.0 if plan.partitioned else 0.0,
        },
    )
    return stats, cluster_stats


def pattern_of(csr: CSRMatrix) -> SparsityPattern:
    """The sparsity pattern of ``csr``'s stored positions, packed from a dense mask."""
    mask = np.zeros(csr.shape, dtype=bool)
    mask[np.repeat(np.arange(csr.n_rows), csr.row_nnz()), csr.indices] = True
    indptr = np.concatenate([[0], np.cumsum(mask.sum(axis=1))])
    return SparsityPattern(shape=csr.shape, indptr=indptr, bits=np.packbits(mask, axis=1))


def pattern_indices(pattern: SparsityPattern) -> np.ndarray:
    """Column index of each non-zero of ``pattern``, in CSR order.

    Unpacks the bits one row block of at most ``BLOCK_ENTRIES`` cells at a
    time into an array allocated once at its final size, 8 bytes per
    non-zero.
    """
    n_rows, n_cols = pattern.shape
    indices = np.empty(pattern.nnz, dtype=np.int64)
    block_rows = max(1, blocks.BLOCK_ENTRIES // max(1, n_cols))
    for start in range(0, n_rows, block_rows):
        stop = min(start + block_rows, n_rows)
        kept = np.unpackbits(pattern.bits[start:stop], axis=1, count=n_cols).view(bool)
        np.remainder(
            np.flatnonzero(kept), n_cols, out=indices[pattern.indptr[start]:pattern.indptr[stop]]
        )
    return indices


def tile_statistics_reference(
    matrix: CSRMatrix | SparsityPattern, tile_rows: int, tile_cols: int
) -> TileStatistics:
    """Occupied tiles, their non-zeros and their distinct columns, in one sort.

    The non-zeros are keyed by (row strip, column) and sorted once.  The
    distinct keys are the distinct (tile, column) pairs and their run lengths
    the non-zeros of each pair; the pairs' tile ids are non-decreasing, so
    runs of equal tile id give each tile's distinct columns and, summed, its
    non-zeros.  A pattern's column indices are derived for the call.
    """
    _grid_rows, grid_cols = tile_grid_shape(matrix.shape, tile_rows, tile_cols)
    indices = matrix.indices if isinstance(matrix, CSRMatrix) else pattern_indices(matrix)
    n_cols = np.int64(matrix.n_cols)
    strip = np.repeat(np.arange(matrix.n_rows, dtype=np.int64) // tile_rows, matrix.row_nnz())
    pairs, pair_nnz = sorted_unique(strip * n_cols + indices, return_counts=True)
    pair_tile = (pairs // n_cols) * grid_cols + (pairs % n_cols) // tile_cols
    starts = run_starts(pair_tile)
    return TileStatistics(
        tile_ids=pair_tile[starts],
        nnz_per_tile=np.add.reduceat(pair_nnz, starts),
        distinct_cols_per_tile=np.diff(starts, append=pair_tile.size),
    )


def window_hits_reference(adjacency: CSRMatrix, window_rows: int) -> int:
    """HyGCN's window-cache hits from every non-zero's row at once."""
    row_of_nnz = np.repeat(np.arange(adjacency.n_rows), adjacency.row_nnz())
    in_window = np.abs(adjacency.indices - row_of_nnz) < window_rows
    return int(in_window.sum())


class ClusterCouplingReference:
    """A plan's cluster coupling from whole-matrix arrays: every non-zero's
    row and column cluster and their cross-cluster mask at once."""

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
        row_cluster = np.repeat(self.cluster_of_node, row_nnz)
        col_cluster = self.cluster_of_node[adjacency.indices]
        cross = row_cluster != col_cluster
        rows = np.repeat(np.arange(n), row_nnz)[cross]
        cols = adjacency.indices[cross]
        row_cluster, col_cluster = row_cluster[cross], col_cluster[cross]
        self.halo_pairs = sorted_unique(row_cluster * n + cols)
        self.partial_pairs = sorted_unique(col_cluster * n + rows)
        # Distinct (src, dst) cluster pairs in lexicographic order, as one
        # int64 key each.
        keys = sorted_unique(row_cluster * num_clusters + col_cluster)
        self.cluster_graph = Graph(
            num_nodes=num_clusters,
            src=keys // num_clusters,
            dst=keys % num_clusters,
            name="cluster-graph",
            undirected=False,
        )


def plan_from_partition_reference(
    preprocessor: GrowPreprocessor, adjacency: CSRMatrix, partition: PartitionResult
) -> PreprocessPlan:
    """HDN selection over every non-zero at once: one ``np.unique`` of the
    (cluster, column) keys and one three-key ``np.lexsort`` of the pairs."""
    assignment = partition.assignment
    num_clusters = partition.num_clusters
    node_order = np.argsort(assignment, kind="stable")
    sizes = np.bincount(assignment, minlength=num_clusters)
    bounds = np.concatenate([[0], np.cumsum(sizes)])

    # Count distinct (cluster, column) reference pairs, then order candidates
    # per cluster by (count desc, column asc) and keep the top
    # ``hdn_list_capacity`` of each.
    n_cols = adjacency.n_cols
    row_of_nnz = np.repeat(np.arange(adjacency.n_rows), np.diff(adjacency.indptr))
    pair_keys = assignment[row_of_nnz] * n_cols + adjacency.indices
    unique_pairs, pair_counts = np.unique(pair_keys, return_counts=True)
    pair_cluster = unique_pairs // n_cols
    pair_col = unique_pairs % n_cols
    candidate_order = np.lexsort((pair_col, -pair_counts, pair_cluster))
    cand_cluster = pair_cluster[candidate_order]
    cand_col = pair_col[candidate_order]
    cand_bounds = np.searchsorted(cand_cluster, np.arange(num_clusters + 1))

    clusters: list[np.ndarray] = []
    hdn_lists: list[np.ndarray] = []
    for cluster_id in range(num_clusters):
        nodes = node_order[bounds[cluster_id] : bounds[cluster_id + 1]].astype(np.int64)
        if nodes.size == 0:
            continue
        clusters.append(nodes)
        start = cand_bounds[cluster_id]
        end = min(cand_bounds[cluster_id + 1], start + preprocessor.hdn_list_capacity)
        hdn_lists.append(cand_col[start:end].astype(np.int64))
    return PreprocessPlan(
        num_nodes=adjacency.n_rows,
        cluster_of_node=partition.assignment.copy(),
        clusters=clusters,
        hdn_lists=hdn_lists,
        hdn_list_capacity=preprocessor.hdn_list_capacity,
        partitioned=True,
    )


#: Leakage of the SRAM model's 45 nm anchor: about 1 mW per 32 KB.
_REFERENCE_LEAKAGE_MW_PER_KB = 1.0 / 32.0


def sram_leakage_mw(capacity_bytes: int) -> float:
    """Leakage power of an SRAM of the given capacity, in milliwatts."""
    if capacity_bytes <= 0:
        return 0.0
    return _REFERENCE_LEAKAGE_MW_PER_KB * (capacity_bytes / KB)


def normalized_adjacency_reference(graph: Graph) -> CSRMatrix:
    """``D^-1/2 (A + I) D^-1/2`` merged over whole-matrix arrays.

    The body of ``Graph.normalized_adjacency`` before it wrote block by
    block into the result's arrays: the row-major keys, two ``np.insert``
    copies, the row of every entry and the values, each as long as A.
    """
    adj = graph.adjacency()
    n = graph.num_nodes
    indptr, cols, vals = adj.indptr.copy(), adj.indices.copy(), adj.data.copy()
    # Where each diagonal entry (i, i) sorts among the row-major keys of
    # the non-zeros, and whether it is already one of them.
    keys = np.repeat(np.arange(n) * n, adj.row_nnz()) + cols
    diagonal = np.arange(n)
    at = np.searchsorted(keys, diagonal * (n + 1))
    present = at < keys.size
    present[present] = keys[at[present]] == diagonal[present] * (n + 1)
    vals[at[present]] += 1.0
    missing = ~present
    cols = np.insert(cols, at[missing], diagonal[missing])
    vals = np.insert(vals, at[missing], 1.0)
    indptr = indptr + np.concatenate([[0], np.cumsum(missing)])
    rows = np.repeat(np.arange(n), np.diff(indptr))
    degree = np.bincount(rows, weights=vals, minlength=n)
    inv_sqrt = np.zeros(n)
    nonzero = degree > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degree[nonzero])
    normalized_vals = vals * inv_sqrt[rows] * inv_sqrt[cols]
    return CSRMatrix(shape=(n, n), indptr=indptr, indices=cols, data=normalized_vals)


def sample_batch_reference(
    rng: np.random.Generator,
    batch_size: int,
    global_cdf: np.ndarray,
    community: np.ndarray,
    community_members: list[np.ndarray],
    community_cdfs: list[np.ndarray],
    intra_community_prob: float,
) -> tuple[np.ndarray, np.ndarray]:
    """One batch of Chung-Lu candidate edges, each purpose's uniforms in one call.

    The sampler nested in ``chung_lu_graph`` before its draws were chunked,
    with its enclosing function's names as parameters: every draw as long
    as the batch, and the intra-community draws grouped by a stable
    argsort of their sources' communities.
    """
    num_nodes = community.size
    num_communities = len(community_cdfs)
    src = np.searchsorted(global_cdf, rng.random(batch_size)).astype(np.int64)
    dst = np.empty(batch_size, dtype=np.int64)
    intra = rng.random(batch_size) < intra_community_prob
    inter_mask = ~intra if num_communities > 1 else np.ones(batch_size, dtype=bool)
    n_inter = int(inter_mask.sum())
    if n_inter:
        dst[inter_mask] = np.searchsorted(global_cdf, rng.random(n_inter))
    if num_communities > 1:
        # One stable sort groups the intra-community draws by their
        # source's community, each group in ascending batch order: the
        # positions a per-community mask would select, in its order.
        intra_at = np.flatnonzero(intra)
        intra_community = community[src[intra_at]]
        grouped = intra_at[np.argsort(intra_community, kind="stable")]
        bounds = np.cumsum(np.bincount(intra_community, minlength=num_communities))
        for c in range(num_communities):
            start = bounds[c - 1] if c else 0
            count = int(bounds[c] - start)
            if count == 0:
                continue
            picks = np.searchsorted(community_cdfs[c], rng.random(count))
            dst[grouped[start:start + count]] = community_members[c][picks]
    # Remove self loops by redirecting them to a random other node.
    loops = src == dst
    if loops.any():
        dst[loops] = (
            dst[loops] + 1 + rng.integers(0, num_nodes - 1, size=int(loops.sum()))
        ) % num_nodes
    return src, dst


def rmat_graph_reference(
    num_nodes: int,
    average_degree: float,
    a: float = 0.57,
    b: float = 0.19,
    c: float = 0.19,
    rng: np.random.Generator | None = None,
    name: str = "rmat",
    num_communities: int = 1,
) -> Graph:
    """``rmat_graph`` drawing each batch's uniforms in one ``(batch, levels)``
    call and deduplicating a concatenated copy of every round's keys.

    The generator before it shared Chung-Lu's in-place edge accumulation and
    drew its uniforms a row block at a time.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    d = 1.0 - (a + b + c)
    if min(a, b, c, d) < 0 or max(a, b, c) <= 0:
        raise ValueError("quadrant probabilities must be non-negative with a+b+c <= 1")
    communities = None
    if num_communities > 1:
        # Contiguous id ranges: the recursion's high bits.
        communities = (
            np.arange(num_nodes, dtype=np.int64) * min(num_communities, num_nodes)
        ) // num_nodes
    if num_nodes == 1:
        return _edgeless_graph(name, communities=np.zeros(1, dtype=np.int64))
    levels = max(1, int(np.ceil(np.log2(num_nodes))))
    target_edges = max(1, int(round(num_nodes * average_degree / 2)))

    def _sample_batch(batch_size: int) -> tuple[np.ndarray, np.ndarray]:
        src = np.zeros(batch_size, dtype=np.int64)
        dst = np.zeros(batch_size, dtype=np.int64)
        draws = rng.random((batch_size, levels))
        for level in range(levels):
            r = draws[:, level]
            # Quadrants in probability order: a=(0,0), b=(0,1), c=(1,0), d=(1,1).
            src_bit = (r >= a + b).astype(np.int64)
            dst_bit = (((r >= a) & (r < a + b)) | (r >= a + b + c)).astype(np.int64)
            src = (src << 1) | src_bit
            dst = (dst << 1) | dst_bit
        in_range = (src < num_nodes) & (dst < num_nodes)
        src, dst = src[in_range], dst[in_range]
        loops = src == dst
        if loops.any():
            dst = dst.copy()
            dst[loops] = (
                dst[loops] + 1 + rng.integers(0, num_nodes - 1, size=int(loops.sum()))
            ) % num_nodes
        return src, dst

    # Same unique-undirected-edge accumulation as the Chung-Lu sampler: the
    # recursion concentrates draws on hub quadrants, so duplicates are common.
    unique_keys = np.empty(0, dtype=np.int64)
    for _round in range(12):
        remaining = target_edges - unique_keys.size
        if remaining <= 0:
            break
        batch = max(256, int(remaining * 2))
        src, dst = _sample_batch(batch)
        lo = np.minimum(src, dst)
        hi = np.maximum(src, dst)
        keys = lo * np.int64(num_nodes) + hi
        unique_keys = sorted_unique(np.concatenate([unique_keys, keys]))
    if unique_keys.size > target_edges:
        unique_keys = rng.permutation(unique_keys)[:target_edges]
    return Graph(
        num_nodes=num_nodes,
        src=(unique_keys // num_nodes).astype(np.int64),
        dst=(unique_keys % num_nodes).astype(np.int64),
        name=name,
        undirected=True,
        communities=communities,
    )


def pack_communities_reference(
    labels: np.ndarray, num_clusters: int, capacity: float
) -> np.ndarray:
    """Community packing with one ``np.where`` scan per community, O(n x communities).

    Largest community first (ties by ascending label), each into the
    least-loaded cluster, split where a cluster runs out of room.
    """
    assignment = np.full(labels.size, -1, dtype=np.int64)
    loads = np.zeros(num_clusters, dtype=np.int64)
    unique_labels, counts = np.unique(labels, return_counts=True)
    for label_idx in np.argsort(-counts, kind="stable"):
        members = np.where(labels == unique_labels[label_idx])[0]
        offset = 0
        while offset < members.size:
            target = int(np.argmin(loads))
            room = int(max(1, capacity - loads[target]))
            chunk = members[offset : offset + room]
            assignment[chunk] = target
            loads[target] += chunk.size
            offset += chunk.size
    return assignment


def adjacency_lists_reference(graph: Graph) -> list[list[int]]:
    """Python adjacency lists of a graph (plain ints, one list per node).

    Slices of one ``indices.tolist()``: a fresh int per entry.  The
    partitioner's lists share one int per node instead.
    """
    adj = graph.adjacency()
    indptr = adj.indptr.tolist()
    flat_indices = adj.indices.tolist()
    return [flat_indices[indptr[i] : indptr[i + 1]] for i in range(graph.num_nodes)]


def refine_boundary_reference(
    graph: Graph,
    assignment: np.ndarray,
    num_clusters: int,
    capacity: float,
    passes: int = 2,
    neighbor_lists: list[list[int]] | None = None,
) -> np.ndarray:
    """Greedy boundary refinement as a Python sweep over adjacency lists.

    Every node in order, votes counted per node; later passes skip nodes
    whose "stay" provably repeats.  The partitioner decides the votes of a
    row block at once from the CSR and re-decides only a mover's later
    in-neighbours.
    """
    # Like label propagation, each move is visible to every later decision,
    # so the sweep stays sequential — but runs on Python ints (O(degree) per
    # node) instead of one O(num_clusters) ``np.bincount`` per node.  The
    # winning cluster is the lowest id among those with the most neighbour
    # votes, exactly as ``np.argmax`` over the dense vote vector chose it.
    #
    # Later passes skip nodes that provably repeat their previous "stay"
    # decision: votes are unchanged when no neighbour moved since the node's
    # last evaluation (``nb_stamp``, valid on symmetric adjacencies), and a
    # stay forced purely by the capacity bound repeats while the blocking
    # cluster is still at capacity.  The signed ``last_eval`` stamp encodes
    # the cases exactly as in ``_label_propagation``.
    from collections import Counter

    count_into = getattr(__import__("collections"), "_count_elements", None)
    if count_into is None:  # pragma: no cover - non-CPython fallback
        def count_into(mapping, iterable):
            mapping.update(Counter(iterable))

    n = graph.num_nodes
    if neighbor_lists is None:
        neighbor_lists = adjacency_lists_reference(graph)
    labels = assignment.tolist()
    loads = np.bincount(assignment, minlength=num_clusters).tolist()
    label_of = labels.__getitem__
    track = graph.undirected
    nb_stamp = [0] * n
    last_eval = [0] * n
    cap_of = [0] * n
    step = 0
    for _sweep in range(passes):
        moved = 0
        for node in range(n):
            step += 1
            le = last_eval[node]
            if le > 0:
                if nb_stamp[node] < le:
                    continue
            elif le < 0:
                if nb_stamp[node] < -le and loads[cap_of[node]] + 1 > capacity:
                    continue
            neighbors = neighbor_lists[node]
            if not neighbors:
                continue
            current = labels[node]
            votes: dict[int, int] = {}
            count_into(votes, map(label_of, neighbors))
            if len(votes) == 1:
                # Uniform neighbourhood: the sole candidate only wins when it
                # differs from the current cluster (then votes.get(current)
                # is 0, so the move condition reduces to the capacity check).
                (best,) = votes
                best_votes = votes[best]
            else:
                best = -1
                best_votes = 0
                for cluster, count in votes.items():
                    if count > best_votes or (count == best_votes and cluster < best):
                        best = cluster
                        best_votes = count
            if best != current and best_votes > votes.get(current, 0):
                if loads[best] + 1 <= capacity:
                    labels[node] = best
                    loads[current] -= 1
                    loads[best] += 1
                    moved += 1
                    last_eval[node] = 0
                    if track:
                        for m in neighbors:
                            nb_stamp[m] = step
                    continue
                if track:
                    # Stay forced only by capacity: repeatable while the
                    # winning cluster stays full.
                    last_eval[node] = -step
                    cap_of[node] = best
                continue
            if track:
                last_eval[node] = step
        if moved == 0:
            break
    return np.asarray(labels, dtype=np.int64)


def chip_workloads(workloads: list[LayerWorkload], shard: ChipShard) -> list[LayerWorkload]:
    """Row-slice a model's layer workloads down to one chip's owned rows.

    The chip's combination streams the owned rows of X against the
    (replicated) weight matrix, and its aggregation streams the owned rows
    of A against the full dense XW.  Each distinct LHS is sliced once, so
    the layers' aggregation slices share one adjacency slice.
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


def local_plan(plan: PreprocessPlan, shard: ChipShard) -> PreprocessPlan:
    """The chip's preprocessing plan in *local row* coordinates.

    Rows are renumbered to ``0 .. num_nodes - 1`` in ascending global-id
    order (matching :func:`chip_workloads`); HDN lists keep global column
    ids because the dense RHS keeps its global indexing.
    """
    members = [plan.clusters[cluster] for cluster in shard.clusters]
    hdn_lists = [plan.hdn_lists[cluster] for cluster in shard.clusters]
    cluster_of_node = np.zeros(shard.num_nodes, dtype=np.int64)
    local_clusters: list[np.ndarray] = []
    for local_cluster_id, nodes in enumerate(members):
        # ``shard.nodes`` is ascending and holds every member: a member's
        # local id is its position there.
        local_members = np.searchsorted(shard.nodes, nodes)
        local_clusters.append(local_members)
        cluster_of_node[local_members] = local_cluster_id
    return PreprocessPlan(
        num_nodes=shard.num_nodes,
        cluster_of_node=cluster_of_node,
        clusters=local_clusters,
        hdn_lists=[lst.copy() for lst in hdn_lists],
        hdn_list_capacity=max((lst.size for lst in hdn_lists), default=0) or 1,
        partitioned=len(local_clusters) > 1,
    )


def cluster_graph_reference(
    adjacency: CSRMatrix, cluster_of_node: np.ndarray, num_clusters: int
) -> Graph:
    """The cluster-coupling graph from a scan of every adjacency non-zero."""
    row_ids = np.repeat(np.arange(adjacency.n_rows), adjacency.row_nnz())
    src_clusters = cluster_of_node[row_ids]
    dst_clusters = cluster_of_node[adjacency.indices]
    cross = src_clusters != dst_clusters
    keys = sorted_unique(src_clusters[cross] * np.int64(num_clusters) + dst_clusters[cross])
    return Graph(
        num_nodes=num_clusters,
        src=keys // num_clusters,
        dst=keys % num_clusters,
        name="cluster-graph",
        undirected=False,
    )


def build_shard_plan_reference(
    graph: Graph, plan: PreprocessPlan, num_chips: int, method: str = "metis", seed: int = 0
) -> ShardPlan:
    """A shard plan built per chip count from the adjacency: the cluster
    graph rescanned, and each chip's halo from its own rows' slice."""
    if method not in SHARD_METHODS:
        raise ValueError(f"unknown shard method {method!r}; choose from {SHARD_METHODS}")
    adjacency = graph.adjacency()
    num_clusters = plan.num_clusters
    row_nnz = adjacency.row_nnz()
    cluster_nnz = np.array(
        [int(row_nnz[members].sum()) for members in plan.clusters], dtype=np.float64
    )
    if num_chips == 1:
        chip_of_cluster = np.zeros(num_clusters, dtype=np.int64)
    elif method == "greedy" or num_clusters <= num_chips:
        chip_of_cluster = greedy_longest_first(cluster_nnz, num_chips)
    else:
        dense_cluster_of_node = np.zeros(plan.num_nodes, dtype=np.int64)
        for dense_id, members in enumerate(plan.clusters):
            dense_cluster_of_node[members] = dense_id
        cluster_graph = cluster_graph_reference(adjacency, dense_cluster_of_node, num_clusters)
        chip_of_cluster = partition_graph(cluster_graph, num_chips, seed=seed).assignment

    chip_of_node = np.zeros(plan.num_nodes, dtype=np.int64)
    for cluster_id, members in enumerate(plan.clusters):
        chip_of_node[members] = chip_of_cluster[cluster_id]

    shards: list[ChipShard] = []
    for chip in range(num_chips):
        owned = [c for c in range(num_clusters) if chip_of_cluster[c] == chip]
        nodes = (
            np.sort(np.concatenate([plan.clusters[c] for c in owned]), kind="stable")
            if owned
            else np.empty(0, dtype=np.int64)
        )
        referenced = adjacency.select_rows(nodes).indices
        shards.append(
            ChipShard(
                chip_id=chip,
                nodes=nodes,
                clusters=np.array(owned, dtype=np.int64),
                halo_nodes=sorted_unique(referenced[chip_of_node[referenced] != chip]),
            )
        )

    halo_counts = np.zeros((num_chips, num_chips), dtype=np.int64)
    for shard in shards:
        if shard.halo_nodes.size:
            owners, counts = np.unique(chip_of_node[shard.halo_nodes], return_counts=True)
            halo_counts[owners, shard.chip_id] = counts

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
            pairs, counts = np.unique(src * num_chips + dst, return_counts=True)
            partial_counts[pairs // num_chips, pairs % num_chips] = counts

    return ShardPlan(
        num_chips=num_chips,
        num_nodes=plan.num_nodes,
        chip_of_node=chip_of_node,
        chip_of_cluster=chip_of_cluster,
        shards=shards,
        halo_counts=halo_counts,
        partial_counts=partial_counts,
        method=method,
    )


def powerlaw_fit_exponent(graph: Graph, x_min: int = 1) -> float:
    """Maximum-likelihood power-law exponent of the degree distribution.

    Uses the discrete Hill estimator ``1 + n / sum(ln(d / (x_min - 0.5)))``
    over degrees ``>= x_min``.
    """
    degrees = graph.degrees().astype(np.float64)
    degrees = degrees[degrees >= x_min]
    if degrees.size == 0:
        return float("nan")
    return float(1.0 + degrees.size / np.sum(np.log(degrees / (x_min - 0.5))))
