"""GROW architecture configuration (paper Table III)."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.accelerators.base import KB, AcceleratorConfig
from repro.core.runahead import RunaheadModel


@dataclass(frozen=True)
class GrowConfig:
    """Configuration of one GROW processing engine.

    Defaults match the paper's Table III.  The three ``enable_*`` switches
    correspond to the ablation of Figure 21: the baseline GROW is the
    row-stationary dataflow with HDN caching but without runahead execution
    or graph partitioning; the full design enables all three.

    Attributes:
        arch: shared architecture parameters (MACs, bandwidth, DRAM latency).
        sparse_buffer_bytes: capacity of I-BUF_sparse (CSR stream of A / X).
        hdn_id_list_bytes: capacity of the CAM-based HDN ID list (3 B per id).
        hdn_cache_bytes: capacity of the HDN cache (rows of the dense RHS).
        output_buffer_bytes: capacity of O-BUF_dense (active output rows).
        runahead_degree: number of output rows concurrently in flight
            (the multi-row stationary window).
        ldn_table_entries: MSHR-like table tracking outstanding HDN misses.
        enable_hdn_cache: ablation switch for HDN caching.
        enable_runahead: ablation switch for runahead execution.
        num_pes: number of processing engines (Figure 24 scalability study).
        hdn_replacement: ``"pinned"`` (the paper's choice: high-degree nodes
            stay resident for the whole cluster) or ``"lru"`` (the
            demand-based alternative the paper's Section VIII discusses and
            rejects).
    """

    arch: AcceleratorConfig = field(default_factory=AcceleratorConfig)
    sparse_buffer_bytes: int = 12 * KB
    hdn_id_list_bytes: int = 12 * KB
    hdn_cache_bytes: int = 512 * KB
    output_buffer_bytes: int = 2 * KB
    runahead_degree: int = 16
    ldn_table_entries: int = 16
    enable_hdn_cache: bool = True
    enable_runahead: bool = True
    num_pes: int = 1
    hdn_replacement: str = "pinned"

    def __post_init__(self) -> None:
        if self.runahead_degree < 1:
            raise ValueError("runahead_degree must be at least 1")
        if self.num_pes < 1:
            raise ValueError("num_pes must be at least 1")
        if self.hdn_replacement not in ("pinned", "lru"):
            raise ValueError("hdn_replacement must be 'pinned' or 'lru'")

    @property
    def hdn_id_capacity(self) -> int:
        """Number of node ids the HDN ID list can hold (3 bytes per id)."""
        return self.hdn_id_list_bytes // 3

    def hdn_cache_rows(self, rhs_row_bytes: int) -> int:
        """Number of dense RHS rows the HDN cache can pin for a given row size."""
        if not self.enable_hdn_cache or rhs_row_bytes <= 0:
            return 0
        return min(self.hdn_cache_bytes // rhs_row_bytes, self.hdn_id_capacity)

    @property
    def effective_runahead(self) -> int:
        """Runahead window actually usable (1 when runahead is disabled)."""
        if not self.enable_runahead:
            return 1
        return max(1, min(self.runahead_degree, self.ldn_table_entries))

    def runahead_model(self) -> RunaheadModel:
        """The latency model of this configuration's runahead window."""
        return RunaheadModel(
            degree=self.effective_runahead,
            dram_latency_cycles=self.arch.dram_latency_cycles,
            ldn_entries=self.ldn_table_entries,
        )
