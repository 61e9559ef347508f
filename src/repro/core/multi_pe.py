"""Multi-PE GROW scaling model (paper Section VII-F, Figure 24).

Each processing engine (PE) owns a subset of the graph clusters; off-chip
memory bandwidth scales proportionally with the PE count and is shared as a
pool.  Because different clusters alternate between compute-bound and
memory-bound behaviour at different times, pooling the bandwidth lets a PE
momentarily use more than its 1/P share — which is the mechanism behind the
super-linear speedups the paper reports for the large graphs.

Timing model:

* ``P = 1``: clusters execute back to back, each bounded by the larger of its
  compute and memory time, plus the exposed runahead stalls.
* ``P > 1``: clusters are assigned to PEs greedily (longest first); the run
  finishes when the slowest PE finishes its compute, but no earlier than the
  pooled-bandwidth bound over the total traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.accelerators.workload import LayerWorkload
from repro.core.accelerator import ClusterStats, GrowSimulator
from repro.core.config import GrowConfig
from repro.core.preprocess import PreprocessPlan


def greedy_longest_first(weights: Sequence[float], num_bins: int) -> np.ndarray:
    """Longest-processing-time assignment of weighted items to bins.

    Items are visited heaviest first and each goes to the currently
    least-loaded bin — the classic LPT list-scheduling heuristic.  Returns
    the bin id of every item, in the items' original order.  This is the
    PE-array scheduling rule shared by the single-chip multi-PE model and
    the multi-chip shard planner (``repro.scaleout.shard``).
    """
    if num_bins < 1:
        raise ValueError("num_bins must be at least 1")
    weights = np.asarray(weights, dtype=np.float64)
    assignment = np.zeros(weights.size, dtype=np.int64)
    loads = np.zeros(num_bins, dtype=np.float64)
    for item in np.argsort(-weights, kind="stable"):
        target = int(np.argmin(loads))
        assignment[item] = target
        loads[target] += weights[item]
    return assignment


@dataclass
class MultiPEResult:
    """Outcome of a multi-PE aggregation run.

    Attributes:
        num_pes: number of processing engines.
        total_cycles: end-to-end aggregation latency.
        per_pe_compute_cycles: compute cycles assigned to each PE.
        throughput_vs_single: single-PE cycles divided by this run's cycles.
    """

    num_pes: int
    total_cycles: float
    per_pe_compute_cycles: list[float]
    throughput_vs_single: float


class MultiPEGrowSimulator:
    """Scaling model that distributes graph clusters across GROW PEs."""

    def __init__(self, config: GrowConfig | None = None) -> None:
        self.config = config or GrowConfig()
        self._single_pe = GrowSimulator(self.config)

    def _sequential_cycles(self, clusters: list[ClusterStats]) -> float:
        """Clusters back to back on one PE, each bound by compute or memory."""
        bytes_per_cycle = self.config.arch.bytes_per_cycle
        runahead = self.config.runahead_model()
        total = 0.0
        for cluster in clusters:
            memory_cycles = cluster.memory_bytes / bytes_per_cycle
            total += max(cluster.compute_cycles, memory_cycles)
            total += runahead.exposed_stall_cycles(cluster.rows_with_miss)
        return total

    def run_aggregation(
        self, workload: LayerWorkload, num_pes: int, plan: PreprocessPlan
    ) -> MultiPEResult:
        """Aggregation latency with ``num_pes`` PEs and proportional bandwidth."""
        if num_pes < 1:
            raise ValueError("num_pes must be at least 1")
        clusters = self._single_pe.cluster_breakdown(workload.aggregation, plan)
        single_cycles = self._sequential_cycles(clusters)
        if num_pes == 1:
            return MultiPEResult(
                num_pes=1,
                total_cycles=single_cycles,
                per_pe_compute_cycles=[sum(c.compute_cycles for c in clusters)],
                throughput_vs_single=1.0,
            )

        # Greedy longest-processing-time assignment of clusters to PEs.
        pe_of_cluster = greedy_longest_first([c.compute_cycles for c in clusters], num_pes)
        per_pe_compute = [0.0] * num_pes
        per_pe_rows_with_miss = [0] * num_pes
        for cluster, pe in zip(clusters, pe_of_cluster):
            per_pe_compute[int(pe)] += cluster.compute_cycles
            per_pe_rows_with_miss[int(pe)] += cluster.rows_with_miss

        runahead = self.config.runahead_model()
        compute_bound = max(
            compute + runahead.exposed_stall_cycles(rows)
            for compute, rows in zip(per_pe_compute, per_pe_rows_with_miss)
        )
        total_memory_bytes = sum(c.memory_bytes for c in clusters)
        pooled_bandwidth = self.config.arch.bytes_per_cycle * num_pes
        memory_bound = total_memory_bytes / pooled_bandwidth
        total_cycles = max(compute_bound, memory_bound)
        return MultiPEResult(
            num_pes=num_pes,
            total_cycles=total_cycles,
            per_pe_compute_cycles=per_pe_compute,
            throughput_vs_single=single_cycles / total_cycles if total_cycles else float("inf"),
        )
