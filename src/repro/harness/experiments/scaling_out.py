"""Multi-chip scale-out studies: the ``scaling_out`` experiment family.

Where :mod:`~repro.harness.experiments.scaling` reproduces the paper's
single-chip scalability figures (24-25), this family projects GROW beyond
one chip with the :mod:`repro.scaleout` subsystem: strong scaling (a fixed
graph spread over 1-16 chips), weak scaling (the graph grows with the chip
count), and the topology sensitivity of the inter-chip traffic.

Experiments run the scale-out engine serially and uncached — the suite's
own :class:`~repro.harness.cache.ResultCache` covers the whole experiment,
mirroring how ``dse_grow_frontier`` embeds the DSE engine.
"""

from __future__ import annotations

from dataclasses import replace

from repro.harness.config import ExperimentConfig
from repro.harness.registry import register
from repro.harness.report import ExperimentResult

#: Chip counts of the strong-scaling sweep (Figure 24's PE axis, system-level).
STRONG_SCALING_CHIPS = (1, 2, 4, 8, 16)

#: Chip counts of the weak-scaling sweep (bundle rebuilds are expensive, so
#: the sweep is shorter and runs on a dataset subset).
WEAK_SCALING_CHIPS = (1, 2, 4)


def _scaleout(config: ExperimentConfig, num_chips: int, kind: str = "ring"):
    # Imported lazily so merely importing the harness does not pull the
    # scale-out stack into every worker process.
    from repro.scaleout import ChipTopology, ScaleOutSimulator

    # Chips are priced in process and never cached; the suite's own
    # ResultCache covers this experiment.
    return ScaleOutSimulator(config=config, topology=ChipTopology(num_chips, kind=kind))


@register("scaleout_strong_scaling")
def scaleout_strong_scaling(config: ExperimentConfig) -> ExperimentResult:
    """Strong scaling: one graph spread over 1-16 chips of a ring system."""
    result = ExperimentResult(
        name="scaleout_strong_scaling",
        paper_reference="Scale-out projection (extends Figure 24 beyond one chip)",
        description=(
            "Speedup over one chip as a fixed graph is sharded across a ring "
            "of chips (per-layer halo exchange, default link parameters)"
        ),
        columns=["dataset"]
        + [f"chips_{p}" for p in STRONG_SCALING_CHIPS]
        + [f"eff_{STRONG_SCALING_CHIPS[-1]}", "interchip_mb_max"],
        notes=[
            "chips_P is single-chip cycles over P-chip system cycles; eff_16 "
            "divides the 16-chip speedup by 16.  Graphs with fewer clusters "
            "than chips leave the surplus chips idle.",
        ],
    )
    for name in config.datasets:
        speedups = {}
        interchip_mb = 0.0
        for num_chips in STRONG_SCALING_CHIPS:
            system = _scaleout(config, num_chips).run(name)
            speedups[f"chips_{num_chips}"] = system.speedup_vs_single_chip
            interchip_mb = max(interchip_mb, system.interchip_bytes / 1e6)
            if num_chips == STRONG_SCALING_CHIPS[-1]:
                efficiency = system.scaling_efficiency
        result.add_row(
            dataset=name,
            **speedups,
            **{f"eff_{STRONG_SCALING_CHIPS[-1]}": efficiency, "interchip_mb_max": interchip_mb},
        )
    return result


@register("scaleout_weak_scaling")
def scaleout_weak_scaling(config: ExperimentConfig) -> ExperimentResult:
    """Weak scaling: the graph grows with the chip count (constant work/chip)."""
    result = ExperimentResult(
        name="scaleout_weak_scaling",
        paper_reference="Scale-out projection (cluster-computing weak scaling)",
        description=(
            "Weak-scaling efficiency on a ring: P chips process a graph P "
            "times the base size; ideal systems hold cycles constant"
        ),
        columns=["dataset", "base_nodes"]
        + [f"eff_{p}" for p in WEAK_SCALING_CHIPS],
        notes=[
            "eff_P is 1-chip base-graph cycles over P-chip cycles on the "
            "P-times-larger graph (1.0 means perfect weak scaling; >1.0 means "
            "bandwidth pooling outpaces the added communication).",
        ],
    )
    # Bundle construction (graph generation + partitioning) dominates the
    # cost of this sweep, so it runs on a two-dataset subset like the DSE
    # frontier experiment does.
    for name in config.datasets[:2]:
        base_nodes = config.num_nodes_override.get(name, 600)
        base_cycles = None
        efficiencies = {}
        for num_chips in WEAK_SCALING_CHIPS:
            scaled = replace(
                config,
                datasets=(name,),
                num_nodes_override={
                    **config.num_nodes_override, name: base_nodes * num_chips
                },
            )
            system = _scaleout(scaled, num_chips).run(name)
            if base_cycles is None:
                base_cycles = system.system_cycles
            efficiencies[f"eff_{num_chips}"] = (
                base_cycles / system.system_cycles if system.system_cycles else float("inf")
            )
        result.add_row(dataset=name, base_nodes=base_nodes, **efficiencies)
    return result


@register("scaleout_topology_traffic")
def scaleout_topology_traffic(config: ExperimentConfig) -> ExperimentResult:
    """Topology sensitivity of an 8-chip system's inter-chip communication."""
    num_chips = 8
    result = ExperimentResult(
        name="scaleout_topology_traffic",
        paper_reference="Scale-out projection (interconnect sensitivity)",
        description=(
            f"{num_chips}-chip system across ring/mesh/fully-connected fabrics: "
            "hop-weighted traffic, communication cycles and system cycles"
        ),
        columns=[
            "dataset",
            "topology",
            "interchip_mb",
            "hop_mb",
            "comm_cycles",
            "system_cycles",
            "efficiency",
        ],
        notes=[
            "Injected bytes are topology-independent (the halo sets are fixed "
            "by the sharding); hop-weighted bytes and communication cycles "
            "are what the fabric changes.",
        ],
    )
    from repro.scaleout.topology import TOPOLOGY_KINDS

    # The two largest graphs of the configuration: small graphs partition
    # into fewer clusters than chips, which leaves no traffic to compare.
    for name in config.datasets[-2:]:
        for kind in TOPOLOGY_KINDS:
            system = _scaleout(config, num_chips, kind=kind).run(name)
            result.add_row(
                dataset=name,
                topology=kind,
                interchip_mb=system.interchip_bytes / 1e6,
                hop_mb=system.interchip_hop_bytes / 1e6,
                comm_cycles=system.comm_transfer_cycles + system.comm_exposed_cycles,
                system_cycles=system.system_cycles,
                efficiency=system.scaling_efficiency,
            )
    return result
