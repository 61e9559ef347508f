"""GCNAX baseline: outer-product SpDeGEMM accelerator with 2-D tiling.

GCNAX (Li et al., HPCA 2021) is the state-of-the-art baseline the paper
compares against.  Its defining characteristics, as characterised in the
paper's Section IV, are:

* the sparse LHS matrix is partitioned into rectangular 2-D tiles and the
  non-zeros of one tile are fetched from DRAM in CSC form (Figure 4);
* because the adjacency matrix is extremely sparse, most tiles hold only one
  or two non-zeros, so each tile fetch moves far less effectual data than the
  64-byte DRAM access granularity (Figures 5 and 6);
* the dense RHS rows needed by a tile's non-zeros are fetched per tile, with
  reuse only *within* the tile (the rigid dataflow cannot exploit the
  power-law reuse across tiles that GROW's HDN cache captures);
* output (partial-sum) tiles are kept on chip for the row strip being
  processed and written back once.

The model below reproduces those behaviours with exact per-tile traffic
accounting and bandwidth/compute-bound latency.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerators.base import (
    KB,
    NNZ_BYTES,
    AcceleratorConfig,
    AcceleratorResult,
    PhaseStats,
    combine_results,
)
from repro.accelerators.workload import LayerWorkload, SpDeGemmPhase
from repro.sparse.tiling import tile_profile


@dataclass(frozen=True)
class GCNAXConfig:
    """GCNAX architecture parameters.

    Attributes:
        arch: shared architecture parameters (MACs, bandwidth, ...).
        tile_rows / tile_cols: dimensions of the 2-D tiles the sparse LHS is
            partitioned into.
        tile_fetch_overhead_cycles: fixed per-tile control overhead (address
            generation, descriptor fetch) that the tile-serial dataflow cannot
            hide; zero disables it.
        sparse_buffer_bytes / dense_buffer_bytes / output_buffer_bytes:
            on-chip buffer capacities, used for the energy model and reported
            in ``sram_capacities``.
    """

    arch: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    tile_rows: int = 32
    tile_cols: int = 32
    tile_fetch_overhead_cycles: float = 8.0
    sparse_buffer_bytes: int = 64 * KB
    dense_buffer_bytes: int = 256 * KB
    output_buffer_bytes: int = 192 * KB


class GCNAXSimulator:
    """Cycle-accounting model of the GCNAX accelerator."""

    name = "gcnax"

    def __init__(self, config: GCNAXConfig | None = None) -> None:
        self.config = config or GCNAXConfig()

    # ------------------------------------------------------------------
    # Phase-level simulation
    # ------------------------------------------------------------------
    def run_phase(self, phase: SpDeGemmPhase) -> PhaseStats:
        """Simulate one SpDeGEMM phase and return its statistics."""
        cfg = self.config
        arch = cfg.arch
        granularity = arch.access_granularity
        rhs_row_bytes = phase.rhs_row_bytes
        rhs_row_lines = -(-rhs_row_bytes // granularity)  # ceil division

        tiles = tile_profile(phase.sparse, cfg.tile_rows, cfg.tile_cols)

        # --- Sparse LHS traffic: one fetch per occupied tile, rounded up to
        # whole DRAM lines.  This is where the bandwidth waste of Figure 6
        # comes from: a tile with one or two non-zeros still moves 64 bytes.
        requested_sparse = tiles.total_nnz * NNZ_BYTES
        transferred_sparse = tiles.fetched_bytes(NNZ_BYTES, granularity)

        # --- Dense RHS traffic.
        if phase.rhs_resident:
            # The weight matrix of combination fits on chip and is fetched once.
            dense_requested = phase.dense_bytes
            dense_transferred = -(-phase.dense_bytes // granularity) * granularity
        else:
            # Every tile fetches the RHS rows its non-zeros reference; reuse
            # exists only within the tile.
            dense_rows_fetched = tiles.total_distinct_cols
            dense_requested = dense_rows_fetched * rhs_row_bytes
            dense_transferred = dense_rows_fetched * rhs_row_lines * granularity

        # --- Output traffic: partial sums stay on chip for a row strip and
        # the final output matrix is written back once.
        output_bytes = -(-phase.output_bytes // granularity) * granularity

        dram_read = transferred_sparse + dense_transferred
        requested_read = requested_sparse + dense_requested
        dram_write = output_bytes

        mac_ops = phase.mac_operations
        compute_cycles = mac_ops / arch.num_macs
        memory_cycles = (dram_read + dram_write) / arch.bytes_per_cycle
        stall_cycles = tiles.num_tiles * cfg.tile_fetch_overhead_cycles

        sram_access = {
            "sparse_buffer": transferred_sparse * 2,
            "dense_buffer": dense_transferred * 2,
            "output_buffer": phase.output_bytes * 2,
        }
        sparse_util = (
            requested_sparse / transferred_sparse if transferred_sparse else 0.0
        )
        return PhaseStats(
            name=phase.name,
            compute_cycles=compute_cycles,
            memory_cycles=memory_cycles,
            stall_cycles=stall_cycles,
            mac_operations=mac_ops,
            dram_read_bytes=dram_read,
            dram_write_bytes=dram_write,
            requested_read_bytes=requested_read,
            sram_access_bytes=sram_access,
            extra={
                "occupied_tiles": float(tiles.num_tiles),
                "mean_nnz_per_tile": (
                    tiles.total_nnz / tiles.num_tiles if tiles.num_tiles else 0.0
                ),
                "sparse_bandwidth_utilization": float(min(1.0, sparse_util)),
                "dense_rows_fetched": float(
                    0 if phase.rhs_resident else tiles.total_distinct_cols
                ),
            },
        )

    # ------------------------------------------------------------------
    # Layer / model-level simulation
    # ------------------------------------------------------------------
    def run_layer(self, workload: LayerWorkload) -> AcceleratorResult:
        """Simulate the combination and aggregation phases of one layer."""
        result = AcceleratorResult(accelerator=self.name, workload=workload.name)
        for phase in workload.phases:
            stats = self.run_phase(phase)
            stats.name = f"{phase.name}"
            result.phases.append(stats)
        result.sram_capacities = {
            "sparse_buffer": self.config.sparse_buffer_bytes,
            "dense_buffer": self.config.dense_buffer_bytes,
            "output_buffer": self.config.output_buffer_bytes,
        }
        return result

    def run_model(self, workloads: list[LayerWorkload], name: str | None = None) -> AcceleratorResult:
        """Simulate all layers of a model back to back."""
        results = [self.run_layer(w) for w in workloads]
        combined = combine_results(results, workload=name or workloads[0].name)
        combined.sram_capacities = results[0].sram_capacities
        return combined
