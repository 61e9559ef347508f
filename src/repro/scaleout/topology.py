"""Multi-chip system topologies: chip counts, links, and hop distances.

A :class:`ChipTopology` describes the inter-chip fabric of a scale-out GROW
system: how many chips there are, how they are wired (ring, 2-D mesh, or
fully connected), and what one link delivers (bandwidth, per-hop latency,
energy).  The interconnect model (:mod:`repro.scaleout.interconnect`) turns
byte matrices plus these distances into transfer cycles; everything here is
pure geometry.

Conventions:

* Chips are numbered ``0 .. num_chips - 1``.  A mesh arranges them row-major
  on the most-square ``rows x cols`` grid that factors ``num_chips``.
* Links are full duplex; ``num_links`` counts *directed* links, matching how
  per-link bandwidth is applied to directed traffic.
* ``hops`` is the minimal-route hop count (ring: shorter arc, mesh:
  Manhattan distance, fully connected: 1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Any

import numpy as np

#: The supported interconnect kinds, in CLI/report order.
TOPOLOGY_KINDS = ("ring", "mesh", "fully-connected")


def _mesh_dims(num_chips: int) -> tuple[int, int]:
    """Most-square ``rows x cols`` factorisation of ``num_chips`` (rows <= cols)."""
    rows = int(math.isqrt(num_chips))
    while rows > 1 and num_chips % rows:
        rows -= 1
    return rows, num_chips // rows


@dataclass(frozen=True)
class ChipTopology:
    """Geometry and link parameters of a multi-chip fabric.

    Attributes:
        num_chips: number of GROW chips in the system.
        kind: ``"ring"``, ``"mesh"`` or ``"fully-connected"``.
        link_bandwidth_gbps: bandwidth of one directed link.
        link_latency_cycles: per-hop latency of one traversal.
        link_energy_pj_per_byte: energy of moving one byte across one hop.
        frequency_ghz: clock used to convert link bandwidth into bytes/cycle
            (matches the accelerator clock so cycles compose).
    """

    num_chips: int
    kind: str = "ring"
    link_bandwidth_gbps: float = 32.0
    link_latency_cycles: int = 50
    link_energy_pj_per_byte: float = 1.0
    frequency_ghz: float = 1.0

    def __post_init__(self) -> None:
        if self.num_chips < 1:
            raise ValueError("num_chips must be at least 1")
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}; choose from {TOPOLOGY_KINDS}")
        if self.link_bandwidth_gbps <= 0:
            raise ValueError("link_bandwidth_gbps must be positive")
        if self.link_latency_cycles < 0:
            raise ValueError("link_latency_cycles must be non-negative")

    # -- geometry ----------------------------------------------------------

    @property
    def mesh_dims(self) -> tuple[int, int]:
        """The ``rows x cols`` grid a mesh arranges the chips on."""
        return _mesh_dims(self.num_chips)

    def hops(self, src: int, dst: int) -> int:
        """Minimal-route hop count between two chips."""
        for chip in (src, dst):
            if not 0 <= chip < self.num_chips:
                raise ValueError(f"chip id {chip} out of range [0, {self.num_chips})")
        if src == dst:
            return 0
        if self.kind == "fully-connected":
            return 1
        if self.kind == "ring":
            around = abs(src - dst)
            return min(around, self.num_chips - around)
        rows, cols = self.mesh_dims
        return abs(src // cols - dst // cols) + abs(src % cols - dst % cols)

    def degree(self, chip: int) -> int:
        """Number of directed links leaving one chip."""
        if not 0 <= chip < self.num_chips:
            raise ValueError(f"chip id {chip} out of range [0, {self.num_chips})")
        if self.num_chips == 1:
            return 0
        if self.kind == "fully-connected":
            return self.num_chips - 1
        if self.kind == "ring":
            return min(2, self.num_chips - 1)
        rows, cols = self.mesh_dims
        r, c = chip // cols, chip % cols
        return sum(1 for ok in (r > 0, r < rows - 1, c > 0, c < cols - 1) if ok)

    @cached_property
    def num_links(self) -> int:
        """Total directed links in the fabric."""
        return sum(self.degree(chip) for chip in range(self.num_chips))

    @cached_property
    def hop_matrix(self) -> np.ndarray:
        """``hop_matrix[s, d]`` = minimal hops from chip ``s`` to chip ``d``."""
        n = self.num_chips
        matrix = np.zeros((n, n), dtype=np.int64)
        for src in range(n):
            for dst in range(n):
                matrix[src, dst] = self.hops(src, dst)
        return matrix

    # -- link parameters ---------------------------------------------------

    @property
    def link_bytes_per_cycle(self) -> float:
        """Peak bytes one directed link delivers per accelerator cycle."""
        return self.link_bandwidth_gbps * (1024 ** 3) / (self.frequency_ghz * 1e9)

    def fingerprint(self) -> dict[str, Any]:
        """JSON-safe identity used in reports and cache keys."""
        return {
            "num_chips": self.num_chips,
            "kind": self.kind,
            "link_bandwidth_gbps": self.link_bandwidth_gbps,
            "link_latency_cycles": self.link_latency_cycles,
            "link_energy_pj_per_byte": self.link_energy_pj_per_byte,
            "frequency_ghz": self.frequency_ghz,
        }
