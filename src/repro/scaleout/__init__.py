"""Scale-out simulation: multi-chip GROW systems with explicit interconnect.

The paper models GROW's scalability within one chip (multiple PEs sharing a
pooled DRAM channel, Figure 24).  This package extends that projection to
*systems of chips*: the graph-partitioning preprocessing pass becomes the
sharding mechanism (whole clusters are placed on chips), and the feature
rows that cross shard boundaries — invisible in a single-chip model —
become explicit halo-exchange or partial-reduction traffic on a ring, mesh
or fully connected fabric.

Layout::

    repro/scaleout/
    ├── topology.py      ChipTopology: chips, links, hop distances
    ├── shard.py         ShardPlan: clusters -> chips, halo exchange sets
    ├── interconnect.py  InterconnectModel: bytes + hops -> cycles/energy
    └── engine.py        ScaleOutSimulator: per-chip GROW runs -> system

Quick use::

    from repro.scaleout import ChipTopology, ScaleOutSimulator
    from repro.harness import smoke_config

    simulator = ScaleOutSimulator(
        config=smoke_config(), topology=ChipTopology(4, kind="mesh")
    )
    system = simulator.run("amazon")
    print(system.system_cycles, system.interchip_bytes, system.scaling_efficiency)
"""

from repro.scaleout.engine import ScaleOutResult, ScaleOutSimulator, get_shard_plan
from repro.scaleout.interconnect import (
    EXCHANGE_PATTERNS,
    ExchangeReport,
    InterconnectModel,
)
from repro.scaleout.shard import (
    SHARD_METHODS,
    ChipShard,
    ShardPlan,
    build_shard_plan,
)
from repro.scaleout.topology import TOPOLOGY_KINDS, ChipTopology

__all__ = [
    "ChipTopology",
    "TOPOLOGY_KINDS",
    "ChipShard",
    "ShardPlan",
    "build_shard_plan",
    "SHARD_METHODS",
    "InterconnectModel",
    "ExchangeReport",
    "EXCHANGE_PATTERNS",
    "ScaleOutSimulator",
    "ScaleOutResult",
    "get_shard_plan",
]
