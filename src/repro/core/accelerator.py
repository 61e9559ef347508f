"""The single-PE GROW simulator.

Combines the row-stationary dataflow, the HDN cache, the preprocessing plan
(graph partitioning + per-cluster HDN ID lists) and the runahead latency
model into a cycle-accounting simulation of one GROW processing engine.
The pinned HDN cache is accounted from the plan's memoised rank profile
(:mod:`repro.core.hdn_profile`), which answers every cache size at once.
Each phase is first counted (non-zeros, output rows, HDN outcome) and then
priced from the counts, so a run over some of a plan's clusters — one chip
of a scale-out system — sums the plan's per-cluster counts and is priced by
the same formulas.

The model follows the paper's architecture (Figure 8):

* the sparse LHS (A during aggregation, X during combination) streams through
  I-BUF_sparse in CSR form — contiguous, so its DRAM fetches are efficient;
* during combination the RHS (W) is small and pinned on chip;
* during aggregation the RHS rows (XW) are served from the HDN cache when the
  referenced node is in the current cluster's HDN ID list, and streamed from
  DRAM otherwise;
* output rows accumulate in O-BUF_dense and are written back once;
* exposed HDN-miss latency is hidden by the multi-row runahead window.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.accelerators.base import NNZ_BYTES, AcceleratorResult, PhaseStats, combine_results
from repro.accelerators.gamma import simulate_lru_hits
from repro.accelerators.workload import LayerWorkload, SpDeGemmPhase
from repro.core.config import GrowConfig
from repro.core.hdn_profile import ClusterCounts, ClusterStream
from repro.core.preprocess import PreprocessPlan
from repro.obs import trace
from repro.sparse.csr import CSRMatrix


@dataclass
class ClusterStats:
    """Per-cluster accounting of one aggregation phase (used by the multi-PE model)."""

    cluster_id: int
    nnz: int
    hits: int
    misses: int
    rows_with_miss: int
    compute_cycles: float
    memory_bytes: int


@dataclass(frozen=True)
class PhaseCounts:
    """The integers GROW prices one phase from.

    ``nnz`` non-zeros of the phase's LHS over ``rows`` output rows; the
    phase supplies the name and the RHS shape.  An aggregation adds the HDN
    cache's outcome at its row capacity: hits, misses, output rows with a
    miss, rows prefetched at the clusters' starts, and the clusters
    streamed.  A run over some of a plan's clusters (one chip of a
    scale-out system) sums each of these over its clusters.
    """

    phase: SpDeGemmPhase
    nnz: int
    rows: int
    hits: int = 0
    misses: int = 0
    rows_with_miss: int = 0
    filled_rows: int = 0
    num_clusters: int = 1
    partitioned: bool = False

    @property
    def mac_operations(self) -> int:
        """Effectual MACs: one per non-zero per RHS column."""
        return self.nnz * self.phase.rhs_cols

    @property
    def output_bytes(self) -> int:
        """Bytes of the dense output rows."""
        return self.rows * self.phase.rhs_cols * 8


def _replay_lru(lhs: CSRMatrix, plan: PreprocessPlan, cache_rows: int) -> ClusterCounts:
    """Demand-based alternative (Section VIII): rows are cached on first use
    and evicted by recency, one fresh cache per cluster, fed the cluster's
    stream a row block at a time; there is no prefetch fill and no pinned
    HDN ID list."""
    stream = ClusterStream.of(lhs, plan.cluster_of_node, plan.clusters)
    nnz = np.diff(stream.nnz_bounds)
    hits = np.zeros_like(nnz)
    rows_with_miss = np.zeros_like(nnz)
    for cluster in np.flatnonzero(nnz):
        column_blocks = (cols for cols, _row_starts in stream.blocks(cluster))
        hits[cluster], misses = simulate_lru_hits(column_blocks, cache_rows)
        # Approximate the missed-row count by scaling rows touched with the
        # miss ratio (an exact count would need a per-row LRU replay).
        lo, hi = stream.row_bounds[cluster], stream.row_bounds[cluster + 1]
        touched_rows = np.count_nonzero(np.diff(stream.offsets[lo : hi + 1]))
        rows_with_miss[cluster] = round(touched_rows * (misses / int(nnz[cluster])))
    return ClusterCounts(nnz, hits, rows_with_miss, filled_rows=np.zeros_like(nnz))


class GrowSimulator:
    """Cycle-accounting model of a single GROW processing engine."""

    name = "grow"

    def __init__(self, config: GrowConfig | None = None) -> None:
        self.config = config or GrowConfig()

    # ------------------------------------------------------------------
    # Phase simulation
    # ------------------------------------------------------------------
    def run_phase(
        self,
        phase: SpDeGemmPhase,
        plan: PreprocessPlan,
        clusters: np.ndarray | None = None,
    ) -> PhaseStats:
        """Simulate one SpDeGEMM phase.

        Aggregation phases use the preprocessing ``plan`` (clusters + HDN
        lists); the "w/o graph partitioning" configuration is a plan with
        one cluster.  Combination phases keep the RHS on chip and never
        consult the plan's HDN lists.  With ``clusters`` (indices into
        ``plan.clusters``) the phase covers only those clusters' rows.
        """
        # Phase granularity is the floor of the span taxonomy.
        if phase.rhs_resident:
            with trace.span("grow.phase", phase=phase.name, kind="combination"):
                return self._price_resident_phase(self._count_resident_phase(phase, plan, clusters))
        with trace.span("grow.phase", phase=phase.name, kind="aggregation"):
            return self._price_streaming_phase(self._count_streaming_phase(phase, plan, clusters))

    @staticmethod
    def _owned_rows(plan: PreprocessPlan, clusters: np.ndarray) -> np.ndarray:
        return np.concatenate([np.empty(0, dtype=np.int64)] + [plan.clusters[c] for c in clusters])

    def _count_resident_phase(
        self, phase: SpDeGemmPhase, plan: PreprocessPlan, clusters: np.ndarray | None
    ) -> PhaseCounts:
        if clusters is None:
            return PhaseCounts(phase, nnz=phase.sparse.nnz, rows=phase.sparse.n_rows)
        rows = self._owned_rows(plan, clusters)
        indptr = phase.sparse.indptr
        return PhaseCounts(phase, nnz=int((indptr[rows + 1] - indptr[rows]).sum()), rows=rows.size)

    def _price_resident_phase(self, counts: PhaseCounts) -> PhaseStats:
        """Combination: X streams in CSR, W is pinned on chip."""
        cfg = self.config
        arch = cfg.arch
        granularity = arch.access_granularity
        phase = counts.phase

        sparse_requested = counts.nnz * NNZ_BYTES
        sparse_transferred = -(-sparse_requested // granularity) * granularity
        rhs_requested = phase.dense_bytes
        rhs_transferred = -(-rhs_requested // granularity) * granularity
        output_bytes = -(-counts.output_bytes // granularity) * granularity

        mac_ops = counts.mac_operations
        compute_cycles = mac_ops / arch.num_macs
        dram_read = sparse_transferred + rhs_transferred
        memory_cycles = (dram_read + output_bytes) / arch.bytes_per_cycle

        return PhaseStats(
            name=phase.name,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            stall_cycles=0.0,
            mac_operations=mac_ops,
            dram_read_bytes=dram_read,
            dram_write_bytes=output_bytes,
            requested_read_bytes=sparse_requested + rhs_requested,
            sram_access_bytes={
                "i_buf_sparse": sparse_transferred * 2,
                "hdn_cache": rhs_transferred + mac_ops * 8,
                "o_buf_dense": counts.output_bytes * 2,
            },
            extra={"hdn_hit_rate": 1.0, "num_clusters": 1.0},
        )

    def _uses_lru(self) -> bool:
        return self.config.hdn_replacement == "lru" and self.config.enable_hdn_cache

    def _cluster_counts(
        self, phase: SpDeGemmPhase, plan: PreprocessPlan, cache_rows: int
    ) -> ClusterCounts:
        """Per-cluster HDN outcome at ``cache_rows``, in plan order.

        Pinned-cache counts come from the plan's rank profile.  LRU replays
        are memoised on the plan per capacity, so every chip of a scale-out
        system shares one replay of each cluster's stream.
        """
        if self._uses_lru():
            return plan.derived(
                ("lru_counts", cache_rows),
                phase.sparse,
                lambda: _replay_lru(phase.sparse, plan, cache_rows),
            )
        return plan.hdn_profile(phase.sparse).cluster_counts(cache_rows)

    def _count_streaming_phase(
        self, phase: SpDeGemmPhase, plan: PreprocessPlan, clusters: np.ndarray | None
    ) -> PhaseCounts:
        cache_rows = self.config.hdn_cache_rows(phase.rhs_row_bytes)
        if clusters is not None:
            counts = self._cluster_counts(phase, plan, cache_rows)
            nnz = int(counts.nnz[clusters].sum())
            hits = int(counts.hits[clusters].sum())
            return PhaseCounts(
                phase,
                nnz=nnz,
                rows=self._owned_rows(plan, clusters).size,
                hits=hits,
                misses=nnz - hits,
                rows_with_miss=int(counts.rows_with_miss[clusters].sum()),
                filled_rows=int(counts.filled_rows[clusters].sum()),
                num_clusters=len(clusters),
                partitioned=len(clusters) > 1,
            )
        if self._uses_lru():
            counts = self._cluster_counts(phase, plan, cache_rows)
            hits = int(counts.hits.sum())
            misses = int(counts.nnz.sum()) - hits
            rows_with_miss = int(counts.rows_with_miss.sum())
            filled_rows = 0
        else:
            profile = plan.hdn_profile(phase.sparse)
            hits = profile.hits(cache_rows)
            misses = profile.nnz - hits
            rows_with_miss = profile.rows_with_miss(cache_rows)
            filled_rows = profile.filled_rows(cache_rows)
        return PhaseCounts(
            phase,
            nnz=phase.sparse.nnz,
            rows=phase.sparse.n_rows,
            hits=hits,
            misses=misses,
            rows_with_miss=rows_with_miss,
            filled_rows=filled_rows,
            num_clusters=plan.num_clusters,
            partitioned=plan.partitioned,
        )

    def _price_streaming_phase(self, counts: PhaseCounts) -> PhaseStats:
        """Aggregation: A streams in CSR, XW rows hit the HDN cache or DRAM."""
        cfg = self.config
        arch = cfg.arch
        granularity = arch.access_granularity
        phase = counts.phase
        row_bytes = phase.rhs_row_bytes
        row_lines = -(-row_bytes // granularity)
        cache_rows = cfg.hdn_cache_rows(row_bytes)
        total_hits = counts.hits
        total_misses = counts.misses
        # Each prefetched row costs its dense row in DRAM and its 3-byte id.
        fill_bytes = counts.filled_rows * row_bytes
        hdn_id_bytes = counts.filled_rows * 3

        # --- DRAM traffic of the whole phase.
        sparse_requested = counts.nnz * NNZ_BYTES
        sparse_transferred = -(-sparse_requested // granularity) * granularity
        miss_requested = total_misses * row_bytes
        miss_transferred = total_misses * row_lines * granularity
        fill_transferred = -(-fill_bytes // granularity) * granularity if fill_bytes else 0
        hdn_id_transferred = -(-hdn_id_bytes // granularity) * granularity if hdn_id_bytes else 0
        output_bytes = -(-counts.output_bytes // granularity) * granularity

        dram_read = sparse_transferred + miss_transferred + fill_transferred + hdn_id_transferred
        requested_read = sparse_requested + miss_requested + fill_bytes + hdn_id_bytes

        mac_ops = counts.mac_operations
        compute_cycles = mac_ops / arch.num_macs
        memory_cycles = (dram_read + output_bytes) / arch.bytes_per_cycle
        stall_cycles = cfg.runahead_model().exposed_stall_cycles(counts.rows_with_miss)

        lookups = total_hits + total_misses
        return PhaseStats(
            name=phase.name,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            stall_cycles=stall_cycles,
            mac_operations=mac_ops,
            dram_read_bytes=dram_read,
            dram_write_bytes=output_bytes,
            requested_read_bytes=requested_read,
            sram_access_bytes={
                "i_buf_sparse": sparse_transferred * 2,
                "hdn_cache": fill_bytes + total_hits * row_bytes,
                "hdn_id_list": lookups * 3,
                "o_buf_dense": counts.output_bytes * 2,
            },
            extra={
                "hdn_hit_rate": total_hits / lookups if lookups else 0.0,
                "hdn_hits": float(total_hits),
                "hdn_misses": float(total_misses),
                "rows_with_miss": float(counts.rows_with_miss),
                "num_clusters": float(counts.num_clusters),
                "hdn_cache_rows": float(cache_rows),
                "partitioned": 1.0 if counts.partitioned else 0.0,
            },
        )

    # ------------------------------------------------------------------
    # Layer / model simulation
    # ------------------------------------------------------------------
    def run_layer(
        self,
        workload: LayerWorkload,
        plan: PreprocessPlan,
        clusters: np.ndarray | None = None,
    ) -> AcceleratorResult:
        """Simulate the combination and aggregation phases of one layer."""
        result = AcceleratorResult(accelerator=self.name, workload=workload.name)
        result.phases.append(self.run_phase(workload.combination, plan, clusters))
        result.phases.append(self.run_phase(workload.aggregation, plan, clusters))
        result.sram_capacities = self._sram_capacities()
        agg = result.phases[-1]
        result.extra["hdn_hit_rate"] = agg.extra.get("hdn_hit_rate", 0.0)
        return result

    def run_model(
        self,
        workloads: list[LayerWorkload],
        plan: PreprocessPlan,
        name: str | None = None,
        clusters: np.ndarray | None = None,
    ) -> AcceleratorResult:
        """Simulate all layers of a model back to back (one shared plan).

        ``clusters`` (indices into ``plan.clusters``) restricts the run to
        those clusters' rows: one chip of a scale-out system, priced from
        the plan's per-cluster counts with the same formulas.
        """
        with trace.span(
            "grow.run_model",
            model=name or workloads[0].name,
            layers=len(workloads),
        ):
            results = [self.run_layer(w, plan, clusters) for w in workloads]
        combined = combine_results(results, workload=name or workloads[0].name)
        combined.sram_capacities = self._sram_capacities()
        # Report the nnz-weighted aggregate hit rate across layers.
        hits = sum(p.extra.get("hdn_hits", 0.0) for r in results for p in r.phases)
        lookups = hits + sum(p.extra.get("hdn_misses", 0.0) for r in results for p in r.phases)
        combined.extra["hdn_hit_rate"] = hits / lookups if lookups else 0.0
        return combined

    def cluster_breakdown(self, phase: SpDeGemmPhase, plan: PreprocessPlan) -> list[ClusterStats]:
        """Per-cluster statistics of an aggregation phase (multi-PE scheduling)."""
        if phase.rhs_resident:
            raise ValueError("cluster breakdown is only defined for aggregation phases")
        arch = self.config.arch
        granularity = arch.access_granularity
        row_bytes = phase.rhs_row_bytes
        row_lines = -(-row_bytes // granularity)
        counts = self._cluster_counts(phase, plan, self.config.hdn_cache_rows(row_bytes))
        misses = counts.nnz - counts.hits
        nodes = np.array([members.size for members in plan.clusters], dtype=np.int64)
        memory_bytes = (
            -(-counts.nnz * NNZ_BYTES // granularity) * granularity
            + counts.filled_rows * row_bytes
            + misses * row_lines * granularity
            + -(-nodes * row_bytes // granularity) * granularity  # output rows
        )
        return [
            ClusterStats(
                cluster_id=cluster,
                nnz=int(counts.nnz[cluster]),
                hits=int(counts.hits[cluster]),
                misses=int(misses[cluster]),
                rows_with_miss=int(counts.rows_with_miss[cluster]),
                compute_cycles=int(counts.nnz[cluster]) * phase.rhs_cols / arch.num_macs,
                memory_bytes=int(memory_bytes[cluster]),
            )
            for cluster in range(plan.num_clusters)
        ]

    def _sram_capacities(self) -> dict[str, int]:
        cfg = self.config
        return {
            "i_buf_sparse": cfg.sparse_buffer_bytes,
            "hdn_id_list": cfg.hdn_id_list_bytes,
            "hdn_cache": cfg.hdn_cache_bytes,
            "o_buf_dense": cfg.output_buffer_bytes,
        }
