"""Accelerator energy model (Horowitz-style per-operation energies).

The paper breaks energy into MAC dynamic, register-file dynamic, SRAM
dynamic, DRAM dynamic, and leakage (Figure 22).  This module converts the
activity counters produced by an accelerator simulation (MAC count, SRAM
access bytes, DRAM traffic, runtime) into that breakdown.

Per-operation energies are anchored to Horowitz ISSCC'14 (45 nm): a 32-bit
floating-point multiply-add costs about 4.6 pJ, a 64-bit one roughly double;
DRAM access energy is taken as 20 pJ per byte (about 1.3 nJ per 64 B line).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.energy.sram_model import SRAMEnergyModel


@dataclass(frozen=True)
class EnergyParameters:
    """Per-operation energy constants.

    Attributes:
        mac_energy_pj: energy of one multiply-accumulate (64-bit datapath).
        register_energy_pj: register-file energy accounted per MAC operand pair.
        dram_energy_pj_per_byte: DRAM dynamic energy per byte moved.
        leakage_mw_per_mm2: static power density used for leakage, applied to
            the accelerator's area.
        frequency_ghz: clock frequency used to turn cycles into seconds.
    """

    mac_energy_pj: float = 9.2
    register_energy_pj: float = 1.2
    dram_energy_pj_per_byte: float = 20.0
    leakage_mw_per_mm2: float = 1.5
    frequency_ghz: float = 1.0


@dataclass
class EnergyBreakdown:
    """Energy consumed by one simulated run, in nanojoules, per component."""

    mac_nj: float = 0.0
    register_nj: float = 0.0
    sram_nj: float = 0.0
    dram_nj: float = 0.0
    leakage_nj: float = 0.0

    @property
    def total_nj(self) -> float:
        """Total energy of the run in nanojoules."""
        return self.mac_nj + self.register_nj + self.sram_nj + self.dram_nj + self.leakage_nj

    def as_dict(self) -> dict[str, float]:
        """Component-name to nanojoule mapping (plus the total)."""
        return {
            "mac": self.mac_nj,
            "register_file": self.register_nj,
            "sram": self.sram_nj,
            "dram": self.dram_nj,
            "leakage": self.leakage_nj,
            "total": self.total_nj,
        }


def estimate_energy(
    mac_operations: int,
    dram_bytes: int,
    sram_access_events: dict[str, tuple[int, int]],
    runtime_cycles: float,
    area_mm2: float,
    params: EnergyParameters | None = None,
) -> EnergyBreakdown:
    """Convert activity counters into an energy breakdown.

    Args:
        mac_operations: number of effectual MACs executed.
        dram_bytes: total DRAM bytes moved (reads + writes).
        sram_access_events: mapping from buffer name to
            ``(capacity_bytes, access_bytes_moved)``; each buffer's dynamic
            energy uses its own CACTI-like per-access cost.
        runtime_cycles: simulated runtime in accelerator cycles.
        area_mm2: chip area used to scale leakage power.
        params: energy constants (defaults to :class:`EnergyParameters`).
    """
    params = params or EnergyParameters()
    breakdown = EnergyBreakdown()
    breakdown.mac_nj = mac_operations * params.mac_energy_pj / 1e3
    breakdown.register_nj = mac_operations * params.register_energy_pj / 1e3
    breakdown.dram_nj = dram_bytes * params.dram_energy_pj_per_byte / 1e3

    sram_total = 0.0
    for _name, (capacity_bytes, access_bytes_moved) in sram_access_events.items():
        model = SRAMEnergyModel(capacity_bytes=capacity_bytes)
        if model.access_bytes > 0:
            accesses = access_bytes_moved / model.access_bytes
        else:
            accesses = 0
        sram_total += model.dynamic_energy_nj(int(accesses))
    breakdown.sram_nj = sram_total

    seconds = runtime_cycles / (params.frequency_ghz * 1e9)
    leakage_watts = params.leakage_mw_per_mm2 * 1e-3 * area_mm2
    breakdown.leakage_nj = leakage_watts * seconds * 1e9
    return breakdown
