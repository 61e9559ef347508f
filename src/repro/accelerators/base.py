"""Shared accelerator configuration and result schema.

Every accelerator simulator in this repository (GROW and the baselines)
produces the same :class:`AcceleratorResult` structure: per-phase cycle and
traffic counts plus whole-run totals, so experiments can compare designs
without caring which simulator produced the numbers.
"""

from __future__ import annotations

from dataclasses import dataclass, field

KB = 1024

# Bytes of one sparse-matrix non-zero in the compressed stream: an 8-byte
# value plus a 4-byte index, matching the paper's 64-bit MAC datapath.
VALUE_BYTES = 8
INDEX_BYTES = 4
NNZ_BYTES = VALUE_BYTES + INDEX_BYTES


@dataclass(frozen=True)
class AcceleratorConfig:
    """Architecture parameters shared by all simulators.

    Defaults follow the paper's Table III.  The experiment harness overrides
    ``bandwidth_gbps`` (and cache sizes) when running the scaled-down
    synthetic datasets; see ``repro.harness.workloads`` for the scaling rules.

    Attributes:
        num_macs: number of multiply-accumulate units (vector width).
        frequency_ghz: clock frequency.
        bandwidth_gbps: off-chip memory bandwidth.
        dram_latency_cycles: round-trip latency of one DRAM access.
        access_granularity: minimum DRAM access size in bytes.
    """

    num_macs: int = 16
    frequency_ghz: float = 1.0
    bandwidth_gbps: float = 128.0
    dram_latency_cycles: int = 100
    access_granularity: int = 64

    @property
    def bytes_per_cycle(self) -> float:
        """Peak DRAM bytes deliverable per accelerator cycle."""
        return self.bandwidth_gbps * (1024 ** 3) / (self.frequency_ghz * 1e9)

    def with_bandwidth(self, bandwidth_gbps: float) -> "AcceleratorConfig":
        """Copy of this config with a different memory bandwidth."""
        return AcceleratorConfig(
            num_macs=self.num_macs,
            frequency_ghz=self.frequency_ghz,
            bandwidth_gbps=bandwidth_gbps,
            dram_latency_cycles=self.dram_latency_cycles,
            access_granularity=self.access_granularity,
        )


@dataclass
class PhaseStats:
    """Cycle and traffic accounting of one execution phase.

    Attributes:
        name: ``"combination"`` or ``"aggregation"`` (plus a layer suffix).
        compute_cycles: cycles the MAC array needs for the effectual MACs.
        memory_cycles: cycles to move the phase's DRAM traffic at peak bandwidth.
        stall_cycles: exposed latency that neither compute nor bandwidth hides.
        mac_operations: number of effectual MACs in the phase.
        dram_read_bytes / dram_write_bytes: DRAM traffic of the phase.
        requested_read_bytes: effectual bytes of the reads (for utilisation).
        sram_access_bytes: bytes moved through on-chip buffers, keyed by buffer.
        extra: simulator-specific metrics (hit rates, tile counts, ...).
    """

    name: str
    compute_cycles: float = 0.0
    memory_cycles: float = 0.0
    stall_cycles: float = 0.0
    mac_operations: int = 0
    dram_read_bytes: int = 0
    dram_write_bytes: int = 0
    requested_read_bytes: int = 0
    sram_access_bytes: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total_cycles(self) -> float:
        """Phase latency: the binding bound plus exposed stalls."""
        return max(self.compute_cycles, self.memory_cycles) + self.stall_cycles

    @property
    def dram_bytes(self) -> int:
        """Total DRAM traffic of the phase."""
        return self.dram_read_bytes + self.dram_write_bytes

    def to_dict(self) -> dict:
        """JSON-safe form (used by the scale-out engine's result cache)."""
        return {
            "name": self.name,
            "compute_cycles": float(self.compute_cycles),
            "memory_cycles": float(self.memory_cycles),
            "stall_cycles": float(self.stall_cycles),
            "mac_operations": int(self.mac_operations),
            "dram_read_bytes": int(self.dram_read_bytes),
            "dram_write_bytes": int(self.dram_write_bytes),
            "requested_read_bytes": int(self.requested_read_bytes),
            "sram_access_bytes": {k: int(v) for k, v in self.sram_access_bytes.items()},
            "extra": {k: float(v) for k, v in self.extra.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "PhaseStats":
        """Rebuild phase statistics from their :meth:`to_dict` form."""
        return cls(
            name=data["name"],
            compute_cycles=float(data.get("compute_cycles", 0.0)),
            memory_cycles=float(data.get("memory_cycles", 0.0)),
            stall_cycles=float(data.get("stall_cycles", 0.0)),
            mac_operations=int(data.get("mac_operations", 0)),
            dram_read_bytes=int(data.get("dram_read_bytes", 0)),
            dram_write_bytes=int(data.get("dram_write_bytes", 0)),
            requested_read_bytes=int(data.get("requested_read_bytes", 0)),
            sram_access_bytes=dict(data.get("sram_access_bytes", {})),
            extra=dict(data.get("extra", {})),
        )


@dataclass
class AcceleratorResult:
    """Whole-run result of simulating a workload on one accelerator.

    Attributes:
        accelerator: accelerator name (``"grow"``, ``"gcnax"``, ...).
        workload: workload name (usually the dataset name).
        phases: per-phase statistics, in execution order.
        sram_capacities: buffer name to capacity in bytes (for energy/area).
        extra: run-level metrics (hit rates, cluster counts, ...).
    """

    accelerator: str
    workload: str
    phases: list[PhaseStats] = field(default_factory=list)
    sram_capacities: dict[str, int] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)

    @property
    def total_cycles(self) -> float:
        """End-to-end latency in cycles (phases execute back to back)."""
        return sum(phase.total_cycles for phase in self.phases)

    @property
    def total_mac_operations(self) -> int:
        return sum(phase.mac_operations for phase in self.phases)

    @property
    def dram_read_bytes(self) -> int:
        return sum(phase.dram_read_bytes for phase in self.phases)

    @property
    def dram_write_bytes(self) -> int:
        return sum(phase.dram_write_bytes for phase in self.phases)

    @property
    def total_dram_bytes(self) -> int:
        return self.dram_read_bytes + self.dram_write_bytes

    def phase_cycles(self, keyword: str) -> float:
        """Total cycles of all phases whose name contains ``keyword``."""
        return sum(p.total_cycles for p in self.phases if keyword in p.name)

    def sram_access_bytes(self) -> dict[str, int]:
        """Bytes moved through each on-chip buffer, summed over phases."""
        totals: dict[str, int] = {}
        for phase in self.phases:
            for name, num_bytes in phase.sram_access_bytes.items():
                totals[name] = totals.get(name, 0) + num_bytes
        return totals

    def speedup_over(self, baseline: "AcceleratorResult") -> float:
        """Baseline cycles divided by this result's cycles (higher is better)."""
        if self.total_cycles == 0:
            return float("inf")
        return baseline.total_cycles / self.total_cycles

    def traffic_ratio_to(self, baseline: "AcceleratorResult") -> float:
        """This result's DRAM traffic normalised to a baseline's."""
        if baseline.total_dram_bytes == 0:
            return float("nan")
        return self.total_dram_bytes / baseline.total_dram_bytes

    def to_dict(self) -> dict:
        """JSON-safe form that round-trips through :meth:`from_dict` (the
        ``detail["result"]`` payload of an API accelerator run)."""
        return {
            "accelerator": self.accelerator,
            "workload": self.workload,
            "phases": [phase.to_dict() for phase in self.phases],
            "sram_capacities": {k: int(v) for k, v in self.sram_capacities.items()},
            "extra": {k: float(v) for k, v in self.extra.items()},
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AcceleratorResult":
        """Rebuild a result from its :meth:`to_dict` form."""
        return cls(
            accelerator=data["accelerator"],
            workload=data["workload"],
            phases=[PhaseStats.from_dict(p) for p in data.get("phases", [])],
            sram_capacities=dict(data.get("sram_capacities", {})),
            extra=dict(data.get("extra", {})),
        )


def merge_sram_events(results: list[AcceleratorResult]) -> dict[str, tuple[int, int]]:
    """Merge per-result SRAM activity into energy-model event tuples.

    Returns ``{buffer: (capacity_bytes, access_bytes)}`` — the largest
    capacity seen per buffer (per-access energy scales with array size) and
    the summed access bytes.  The shape
    :func:`repro.energy.energy_model.estimate_energy` consumes; used by both
    the DSE objective evaluation and the scale-out engine so their energy
    accounting cannot drift apart.
    """
    events: dict[str, tuple[int, int]] = {}
    for result in results:
        accesses = result.sram_access_bytes()
        for name, capacity in result.sram_capacities.items():
            previous = events.get(name, (capacity, 0))
            events[name] = (max(previous[0], capacity), previous[1] + accesses.get(name, 0))
    return events


def combine_results(results: list[AcceleratorResult], workload: str | None = None) -> AcceleratorResult:
    """Concatenate the phases of several results (e.g. the layers of a model)."""
    if not results:
        raise ValueError("need at least one result to combine")
    combined = AcceleratorResult(
        accelerator=results[0].accelerator,
        workload=workload or results[0].workload,
    )
    for result in results:
        combined.phases.extend(result.phases)
        for name, capacity in result.sram_capacities.items():
            combined.sram_capacities[name] = max(combined.sram_capacities.get(name, 0), capacity)
        for key, value in result.extra.items():
            combined.extra[key] = combined.extra.get(key, 0.0) + value
    return combined
