"""Energy and area models.

Energy follows the paper's methodology: per-operation dynamic energies from
Horowitz's ISSCC'14 numbers, SRAM dynamic/leakage from a CACTI-like model,
DRAM energy per byte, and leakage integrated over runtime.  Area follows the
paper's Table IV component breakdown with technology scaling between 65 nm
and 40 nm.
"""

from repro.energy.energy_model import (
    EnergyBreakdown,
    EnergyParameters,
    estimate_energy,
)
from repro.energy.sram_model import SRAMEnergyModel, sram_access_energy_pj
from repro.energy.area import (
    AreaBreakdown,
    AreaModel,
    GCNAX_AREA_MM2_40NM,
    grow_area_breakdown,
    scale_area,
)

__all__ = [
    "EnergyBreakdown",
    "EnergyParameters",
    "estimate_energy",
    "SRAMEnergyModel",
    "sram_access_energy_pj",
    "AreaBreakdown",
    "AreaModel",
    "GCNAX_AREA_MM2_40NM",
    "grow_area_breakdown",
    "scale_area",
]
