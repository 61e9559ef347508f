"""GAMMA baseline: Gustavson sparse-sparse GEMM accelerator with a fiber cache.

GAMMA (Zhang et al., ASPLOS 2021) also uses the row-wise product, and unlike
MatRaptor it has an on-chip "fiber cache" that retains recently used RHS
rows.  The paper's Section VII-H points out why it still loses to GROW on
GCNs: the fiber cache is a generic recency-managed cache, not aware of the
power-law degree distribution, and the RHS is CSR-compressed, adding metadata
traffic.  The model below simulates the fiber cache with LRU replacement over
the actual column-reference stream of the sparse LHS, so its hit rate
reflects the real reuse pattern of each graph.
"""

from __future__ import annotations

import sys
from collections import deque
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable

import numpy as np

from repro.accelerators.base import (
    KB,
    NNZ_BYTES,
    AcceleratorConfig,
    AcceleratorResult,
    PhaseStats,
    combine_results,
)
from repro.accelerators.workload import LayerWorkload, SpDeGemmPhase
from repro.sparse import blocks


@dataclass(frozen=True)
class GAMMAConfig:
    """GAMMA architecture parameters.

    Attributes:
        arch: shared architecture parameters.
        fiber_cache_bytes: capacity of the recency-managed RHS row cache.
        merge_overhead_factor: compute overhead of the high-radix merge
            (smaller than MatRaptor's sort-based merge).
    """

    arch: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    fiber_cache_bytes: int = 128 * KB
    merge_overhead_factor: float = 1.1


def simulate_lru_hits(
    column_blocks: Iterable[np.ndarray], capacity_rows: int
) -> tuple[int, int]:
    """Run an LRU cache of ``capacity_rows`` entries over a row-reference stream.

    The stream arrives as consecutive blocks, and each block is fed to the
    cache as one ``tolist()``, so the Python ints live a block at a time;
    the cache carries across blocks.  Returns ``(hits, misses)``.  The
    stream is replayed through CPython's C-implemented bounded
    ``functools.lru_cache``, whose policy is exactly LRU: a hit moves the
    entry to most recent, a miss inserts it, and an insert into a full cache
    first evicts the least recent entry.  A capacity of zero or less caches
    nothing, so every reference misses.  The capacity is clamped to
    ``sys.maxsize``, which is exact (no stream is that long, and a cache at
    least as large as its stream never evicts) and keeps ``maxsize`` a
    Python int ``lru_cache`` accepts.  ``int`` returns an int argument
    itself, so a miss allocates nothing.
    """
    replay = lru_cache(maxsize=min(int(capacity_rows), sys.maxsize))(int)
    for columns in column_blocks:
        deque(map(replay, columns.tolist()), maxlen=0)
    info = replay.cache_info()
    return info.hits, info.misses


class GAMMASimulator:
    """Cycle-accounting model of GAMMA running the GCN SpDeGEMMs."""

    name = "gamma"

    def __init__(self, config: GAMMAConfig | None = None) -> None:
        self.config = config or GAMMAConfig()

    def run_phase(self, phase: SpDeGemmPhase) -> PhaseStats:
        """Simulate one SpDeGEMM phase on GAMMA."""
        cfg = self.config
        arch = cfg.arch
        granularity = arch.access_granularity

        lhs_requested = phase.sparse.nnz * NNZ_BYTES
        lhs_transferred = -(-lhs_requested // granularity) * granularity

        # The fiber cache holds CSR-compressed RHS rows.
        rhs_row_bytes = phase.rhs_cols * NNZ_BYTES
        rhs_row_lines = -(-rhs_row_bytes // granularity)
        capacity_rows = cfg.fiber_cache_bytes // max(1, rhs_row_bytes)

        if phase.rhs_resident:
            hits, misses = phase.sparse.nnz, 0
            rhs_fetches = phase.dense_shape[0]
        else:
            columns = phase.sparse.indices
            hits, misses = simulate_lru_hits(
                (columns[lo:hi] for lo, hi in blocks.spans(columns.size)), capacity_rows
            )
            rhs_fetches = misses
        rhs_requested = rhs_fetches * rhs_row_bytes
        rhs_transferred = rhs_fetches * rhs_row_lines * granularity

        output_elements = phase.output_shape[0] * phase.output_shape[1]
        output_bytes = -(-output_elements * NNZ_BYTES // granularity) * granularity

        mac_ops = phase.mac_operations
        compute_cycles = mac_ops * cfg.merge_overhead_factor / arch.num_macs
        dram_read = lhs_transferred + rhs_transferred
        dram_write = output_bytes
        memory_cycles = (dram_read + dram_write) / arch.bytes_per_cycle

        total_lookups = hits + misses
        return PhaseStats(
            name=phase.name,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            stall_cycles=0.0,
            mac_operations=mac_ops,
            dram_read_bytes=dram_read,
            dram_write_bytes=dram_write,
            requested_read_bytes=lhs_requested + rhs_requested,
            sram_access_bytes={
                "fiber_cache": total_lookups * rhs_row_bytes,
                "stream_buffer": lhs_transferred,
            },
            extra={
                "fiber_cache_hit_rate": hits / total_lookups if total_lookups else 0.0,
                "fiber_cache_capacity_rows": float(capacity_rows),
            },
        )

    def run_layer(self, workload: LayerWorkload) -> AcceleratorResult:
        """Simulate the two phases of one GCN layer."""
        result = AcceleratorResult(accelerator=self.name, workload=workload.name)
        for phase in workload.phases:
            result.phases.append(self.run_phase(phase))
        result.sram_capacities = {"fiber_cache": self.config.fiber_cache_bytes}
        return result

    def run_model(self, workloads: list[LayerWorkload], name: str | None = None) -> AcceleratorResult:
        """Simulate all layers of a model back to back."""
        results = [self.run_layer(w) for w in workloads]
        combined = combine_results(results, workload=name or workloads[0].name)
        combined.sram_capacities = results[0].sram_capacities
        return combined
