#!/usr/bin/env python
"""Scale-out: drive a 4-chip strong-scaling run through the library API.

Paper reference: extends Figure 24 (single-chip PE scaling) beyond one
chip — graph clusters are sharded across chips and the boundary feature
rows the paper's single-chip model never sees become explicit inter-chip
traffic.

The walkthrough:

1. shard one dataset's preprocessing plan across 4 chips and inspect the
   halo-exchange sets,
2. compare ring / mesh / fully-connected fabrics for the same sharding,
3. run the full :class:`~repro.scaleout.ScaleOutSimulator` strong-scaling
   sweep (1 -> 4 chips) and print speedup, efficiency and traffic,
4. verify the 1-chip system reproduces the single-chip simulator exactly.

Run with::

    python examples/scaleout.py [dataset]
"""

from __future__ import annotations

import sys

from repro.core.accelerator import GrowSimulator
from repro.graph.datasets import DATASET_NAMES
from repro.harness import smoke_config
from repro.harness.workloads import get_bundle
from repro.scaleout import (
    ChipTopology,
    InterconnectModel,
    ScaleOutSimulator,
    build_shard_plan,
)


def main() -> None:
    dataset = sys.argv[1] if len(sys.argv) > 1 else "amazon"
    if dataset not in DATASET_NAMES:
        raise SystemExit(f"unknown dataset {dataset!r}; choose from {DATASET_NAMES}")
    config = smoke_config(datasets=(dataset,))
    bundle = get_bundle(dataset, config)

    print(f"== 1. Shard {dataset} ({bundle.dataset.num_nodes} nodes, "
          f"{bundle.plan.num_clusters} clusters) across 4 chips ==")
    shard_plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 4)
    for shard in shard_plan.shards:
        print(f"  chip {shard.chip_id}: {shard.num_nodes:5d} nodes, "
              f"{len(shard.clusters)} cluster(s), halo {shard.halo_nodes.size} rows")
    print(f"  halo rows per layer: {shard_plan.halo_rows_total} "
          f"(reduction alternative: {shard_plan.partial_rows_total})")

    print("\n== 2. The same exchange on three fabrics ==")
    row_bytes = bundle.workloads[0].aggregation.rhs_row_bytes
    for kind in ("ring", "mesh", "fully-connected"):
        fabric = InterconnectModel(ChipTopology(4, kind=kind))
        exchange = fabric.layer_exchange(shard_plan, row_bytes)
        print(f"  {kind:16s} {exchange.total_bytes / 1e3:8.1f} kB injected, "
              f"{exchange.hop_bytes / 1e3:8.1f} kB-hops, "
              f"{exchange.transfer_cycles:8.1f} transfer cycles "
              f"+ {exchange.exposed_latency_cycles:.0f} exposed")

    print("\n== 3. Strong scaling, 1 -> 4 chips (ring) ==")
    for num_chips in (1, 2, 4):
        simulator = ScaleOutSimulator(config=config, topology=ChipTopology(num_chips))
        system = simulator.run(dataset)
        print(f"  {num_chips} chip(s): {system.system_cycles:12.0f} cycles, "
              f"speedup {system.speedup_vs_single_chip:5.2f}x, "
              f"efficiency {system.scaling_efficiency:4.2f}, "
              f"{system.interchip_bytes / 1e3:7.1f} kB inter-chip")

    print("\n== 4. One chip == the single-chip simulator, exactly ==")
    system = ScaleOutSimulator(config=config, topology=ChipTopology(1)).run(dataset)
    reference = GrowSimulator(config.grow_config()).run_model(bundle.workloads, bundle.plan)
    assert system.system_cycles == reference.total_cycles
    assert system.dram_bytes == reference.total_dram_bytes
    print(f"  ScaleOutSimulator(1 chip): {system.system_cycles:.0f} cycles == "
          f"GrowSimulator: {reference.total_cycles:.0f} cycles")
    print("\nsee docs/architecture.md ('The scale-out layer') for the design")


if __name__ == "__main__":
    main()
