"""CACTI-like SRAM energy model.

The paper uses CACTI at 45 nm for SRAM dynamic and leakage power.  We use a
small analytical stand-in for the dynamic energy: energy per access grows
roughly with the square root of the capacity (bit-line/word-line length).
The constants are anchored to commonly quoted CACTI 45 nm numbers (a 64-byte
read of an 8 KB SRAM costs about 20 pJ), which keeps on-chip accesses
roughly an order of magnitude cheaper per byte than DRAM — the relationship
the paper's Figure 22 energy breakdown relies on.  Leakage is integrated
over runtime from the chip's area (:mod:`repro.energy.energy_model`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

KB = 1024

# Anchor points for the analytical model (45 nm, from CACTI-style data).
_REFERENCE_CAPACITY_BYTES = 8 * KB
_REFERENCE_ACCESS_BYTES = 64
_REFERENCE_ACCESS_ENERGY_PJ = 20.0


def sram_access_energy_pj(capacity_bytes: int, access_bytes: int = 64) -> float:
    """Dynamic energy of one access to an SRAM of the given capacity.

    Energy scales with sqrt(capacity) (array geometry) and linearly with the
    number of bytes moved per access.
    """
    if capacity_bytes <= 0:
        return 0.0
    geometry_scale = math.sqrt(capacity_bytes / _REFERENCE_CAPACITY_BYTES)
    width_scale = access_bytes / _REFERENCE_ACCESS_BYTES
    return _REFERENCE_ACCESS_ENERGY_PJ * geometry_scale * width_scale


@dataclass(frozen=True)
class SRAMEnergyModel:
    """Energy model bound to one SRAM buffer size.

    Attributes:
        capacity_bytes: SRAM capacity.
        access_bytes: bytes moved per access event.
    """

    capacity_bytes: int
    access_bytes: int = 64

    @property
    def access_energy_pj(self) -> float:
        """Dynamic energy per access in picojoules."""
        return sram_access_energy_pj(self.capacity_bytes, self.access_bytes)

    def dynamic_energy_nj(self, num_accesses: int) -> float:
        """Dynamic energy of ``num_accesses`` accesses, in nanojoules."""
        return self.access_energy_pj * num_accesses / 1e3
