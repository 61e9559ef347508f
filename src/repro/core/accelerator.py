"""The single-PE GROW simulator.

Combines the row-stationary dataflow, the HDN cache, the preprocessing plan
(graph partitioning + per-cluster HDN ID lists) and the runahead latency
model into a cycle-accounting simulation of one GROW processing engine.

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
from repro.accelerators.workload import LayerWorkload, SpDeGemmPhase
from repro.core.config import GrowConfig
from repro.core.dataflow import RowStationaryDataflow
from repro.core.hdn_cache import HDNCache, HDNIdList
from repro.core.preprocess import GrowPreprocessor, PreprocessPlan
from repro.core.runahead import RunaheadModel
from repro.obs import trace


def _sorted_run_count(values: np.ndarray) -> int:
    """Number of distinct values in a non-decreasing array.

    The streaming loop's per-cluster row slices preserve the row-major
    non-zero order, so counting value runs equals ``np.unique(...).size``
    without the redundant sort.
    """
    if values.size == 0:
        return 0
    return int(np.count_nonzero(values[1:] != values[:-1])) + 1


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


class GrowSimulator:
    """Cycle-accounting model of a single GROW processing engine."""

    name = "grow"

    def __init__(self, config: GrowConfig | None = None) -> None:
        self.config = config or GrowConfig()

    # ------------------------------------------------------------------
    # Phase simulation
    # ------------------------------------------------------------------
    def run_phase(self, phase: SpDeGemmPhase, plan: PreprocessPlan | None = None) -> PhaseStats:
        """Simulate one SpDeGEMM phase.

        Aggregation phases use the preprocessing ``plan`` (clusters + HDN
        lists); when none is supplied, a single-cluster plan with globally
        selected HDNs is built on the fly (the "w/o graph partitioning"
        configuration).  Combination phases keep the RHS on chip and never
        consult the plan.
        """
        # Phase granularity is the floor of the span taxonomy: the per-cluster
        # loop inside the streaming model stays uninstrumented by design.
        if phase.rhs_resident:
            with trace.span("grow.phase", phase=phase.name, kind="combination"):
                return self._run_resident_phase(phase)
        with trace.span("grow.phase", phase=phase.name, kind="aggregation"):
            stats, _clusters = self._run_streaming_phase(phase, plan)
        return stats

    def _run_resident_phase(self, phase: SpDeGemmPhase) -> PhaseStats:
        """Combination: X streams in CSR, W is pinned on chip."""
        cfg = self.config
        arch = cfg.arch
        granularity = arch.access_granularity

        sparse_requested = phase.sparse.nnz * NNZ_BYTES
        sparse_transferred = -(-sparse_requested // granularity) * granularity
        rhs_requested = phase.dense_bytes
        rhs_transferred = -(-rhs_requested // granularity) * granularity
        output_bytes = -(-phase.output_bytes // granularity) * granularity

        mac_ops = phase.mac_operations
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
                "o_buf_dense": phase.output_bytes * 2,
            },
            extra={"hdn_hit_rate": 1.0, "num_clusters": 1.0},
        )

    def _run_streaming_phase(
        self, phase: SpDeGemmPhase, plan: PreprocessPlan | None
    ) -> tuple[PhaseStats, list[ClusterStats]]:
        """Aggregation: A streams in CSR, XW rows hit the HDN cache or DRAM."""
        cfg = self.config
        arch = cfg.arch
        granularity = arch.access_granularity
        row_bytes = phase.rhs_row_bytes
        row_lines = -(-row_bytes // granularity)

        if plan is None:
            preprocessor = GrowPreprocessor(hdn_list_capacity=cfg.hdn_id_capacity)
            plan = preprocessor.plan_without_partitioning(phase.sparse)

        cache = HDNCache(
            capacity_bytes=cfg.hdn_cache_bytes if cfg.enable_hdn_cache else 0,
            id_list=HDNIdList(capacity=cfg.hdn_id_capacity),
        )
        cache.begin_phase(row_bytes)
        cache_rows = cfg.hdn_cache_rows(row_bytes)

        trace = RowStationaryDataflow.trace(phase.sparse)
        cluster_of_nnz = plan.cluster_of_node[trace.row_of_nnz] if trace.nnz else np.empty(0, dtype=np.int64)

        # Group the non-zero stream by cluster label once (stable, so each
        # group keeps streaming order) instead of scanning the whole stream
        # with a fresh boolean mask per cluster: each cluster's slice below is
        # element-for-element the array the mask produced, at O(nnz log nnz)
        # total instead of O(nnz * num_clusters).
        # A stable argsort of integer keys is a radix sort whose pass count
        # scales with the key width; cluster ids are tiny, so narrowing the
        # dtype first yields the identical permutation in fewer passes.
        sort_keys = cluster_of_nnz
        if plan.num_clusters <= np.iinfo(np.uint16).max:
            sort_keys = cluster_of_nnz.astype(np.uint16)
        elif plan.num_clusters <= np.iinfo(np.int32).max:
            sort_keys = cluster_of_nnz.astype(np.int32)
        nnz_group_order = np.argsort(sort_keys, kind="stable")
        grouped_labels = cluster_of_nnz[nnz_group_order]
        grouped_cols = trace.col_of_nnz[nnz_group_order]
        grouped_rows = trace.row_of_nnz[nnz_group_order]
        empty_ids = np.empty(0, dtype=np.int64)

        total_hits = 0
        total_misses = 0
        total_rows_with_miss = 0
        fill_bytes = 0
        hdn_id_bytes = 0
        cluster_stats: list[ClusterStats] = []

        for cluster_id, (nodes, hdn_list) in enumerate(zip(plan.clusters, plan.hdn_lists)):
            if nodes.size:
                label = plan.cluster_of_node[nodes[0]]
                start = np.searchsorted(grouped_labels, label, side="left")
                end = np.searchsorted(grouped_labels, label, side="right")
                cols = grouped_cols[start:end]
                rows = grouped_rows[start:end]
            else:
                cols = rows = empty_ids
            usable_hdns = hdn_list[:cache_rows] if cfg.enable_hdn_cache else hdn_list[:0]

            if cfg.hdn_replacement == "lru" and cfg.enable_hdn_cache:
                # Demand-based alternative (Section VIII): rows are cached on
                # first use and evicted by recency; there is no prefetch fill
                # and no pinned HDN ID list.
                from repro.accelerators.gamma import simulate_lru_hits

                cluster_fill = 0
                if cols.size:
                    hits, misses = simulate_lru_hits(cols, cache_rows)
                    # Approximate the missed-row count by scaling rows touched
                    # with the miss ratio (an exact count would need the full
                    # per-row replay the pinned path avoids).
                    touched_rows = _sorted_run_count(rows)
                    missed_rows = int(round(touched_rows * (misses / cols.size)))
                    cache.hits += hits
                    cache.misses += misses
                else:
                    hits = misses = missed_rows = 0
            else:
                cluster_fill = cache.fill_cluster(usable_hdns) if usable_hdns.size else 0
                hdn_id_bytes += int(usable_hdns.size) * 3
                if cols.size:
                    hit_mask = cache.lookup_batch(cols)
                    hits = int(hit_mask.sum())
                    misses = int(cols.size - hits)
                    missed_rows = _sorted_run_count(rows[~hit_mask])
                else:
                    hits = misses = missed_rows = 0
            fill_bytes += cluster_fill
            total_hits += hits
            total_misses += misses
            total_rows_with_miss += missed_rows

            cluster_compute = cols.size * phase.rhs_cols / arch.num_macs
            cluster_memory_bytes = (
                -(-int(cols.size) * NNZ_BYTES // granularity) * granularity
                + cluster_fill
                + misses * row_lines * granularity
                + -(-int(nodes.size) * row_bytes // granularity) * granularity  # output rows
            )
            cluster_stats.append(
                ClusterStats(
                    cluster_id=cluster_id,
                    nnz=int(cols.size),
                    hits=hits,
                    misses=misses,
                    rows_with_miss=missed_rows,
                    compute_cycles=cluster_compute,
                    memory_bytes=cluster_memory_bytes,
                )
            )

        # --- DRAM traffic of the whole phase.
        sparse_requested = phase.sparse.nnz * NNZ_BYTES
        sparse_transferred = -(-sparse_requested // granularity) * granularity
        miss_requested = total_misses * row_bytes
        miss_transferred = total_misses * row_lines * granularity
        fill_transferred = -(-fill_bytes // granularity) * granularity if fill_bytes else 0
        hdn_id_transferred = -(-hdn_id_bytes // granularity) * granularity if hdn_id_bytes else 0
        output_bytes = -(-phase.output_bytes // granularity) * granularity

        dram_read = sparse_transferred + miss_transferred + fill_transferred + hdn_id_transferred
        requested_read = sparse_requested + miss_requested + fill_bytes + hdn_id_bytes

        mac_ops = phase.mac_operations
        compute_cycles = mac_ops / arch.num_macs
        memory_cycles = (dram_read + output_bytes) / arch.bytes_per_cycle

        runahead = RunaheadModel(
            degree=cfg.effective_runahead,
            dram_latency_cycles=arch.dram_latency_cycles,
            ldn_entries=cfg.ldn_table_entries,
        )
        stall_cycles = runahead.exposed_stall_cycles(total_rows_with_miss)

        lookups = total_hits + total_misses
        stats = PhaseStats(
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

    # ------------------------------------------------------------------
    # Layer / model simulation
    # ------------------------------------------------------------------
    def run_layer(self, workload: LayerWorkload, plan: PreprocessPlan | None = None) -> AcceleratorResult:
        """Simulate the combination and aggregation phases of one layer."""
        result = AcceleratorResult(accelerator=self.name, workload=workload.name)
        result.phases.append(self.run_phase(workload.combination, plan))
        result.phases.append(self.run_phase(workload.aggregation, plan))
        result.sram_capacities = self._sram_capacities()
        agg = result.phases[-1]
        result.extra["hdn_hit_rate"] = agg.extra.get("hdn_hit_rate", 0.0)
        return result

    def run_model(
        self,
        workloads: list[LayerWorkload],
        plan: PreprocessPlan | None = None,
        name: str | None = None,
    ) -> AcceleratorResult:
        """Simulate all layers of a model back to back (one shared plan)."""
        with trace.span(
            "grow.run_model",
            model=name or workloads[0].name,
            layers=len(workloads),
        ):
            results = [self.run_layer(w, plan) for w in workloads]
        combined = combine_results(results, workload=name or workloads[0].name)
        combined.sram_capacities = self._sram_capacities()
        # Report the nnz-weighted aggregate hit rate across layers.
        hits = sum(p.extra.get("hdn_hits", 0.0) for r in results for p in r.phases)
        lookups = hits + sum(p.extra.get("hdn_misses", 0.0) for r in results for p in r.phases)
        combined.extra["hdn_hit_rate"] = hits / lookups if lookups else 0.0
        return combined

    def cluster_breakdown(
        self, phase: SpDeGemmPhase, plan: PreprocessPlan | None = None
    ) -> list[ClusterStats]:
        """Per-cluster statistics of an aggregation phase (multi-PE scheduling)."""
        if phase.rhs_resident:
            raise ValueError("cluster breakdown is only defined for aggregation phases")
        _stats, clusters = self._run_streaming_phase(phase, plan)
        return clusters

    def _sram_capacities(self) -> dict[str, int]:
        cfg = self.config
        return {
            "i_buf_sparse": cfg.sparse_buffer_bytes,
            "hdn_id_list": cfg.hdn_id_list_bytes,
            "hdn_cache": cfg.hdn_cache_bytes,
            "o_buf_dense": cfg.output_buffer_bytes,
        }
