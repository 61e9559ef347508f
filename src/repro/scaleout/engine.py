"""The scale-out simulator: compose per-chip GROW runs into system results.

:class:`ScaleOutSimulator` is the one entry point behind ``python -m repro
scaleout``, the API's ``scaleout`` backend and the ``scaling_out``
experiment family.  For one dataset it

1. builds the workload bundle and shards the preprocessing plan's clusters
   across the topology's chips (:mod:`repro.scaleout.shard`),
2. prices one single-chip GROW run per non-empty shard, in process, from
   the bundle plan's counts of that chip's clusters (an empty shard is an
   empty result),
3. prices the per-layer halo/reduction exchanges on the interconnect
   (:mod:`repro.scaleout.interconnect`), and
4. composes per-layer system cycles: chips run between per-layer barriers,
   bandwidth-bound communication overlaps compute (``max``), and the
   farthest active exchange's hop latency is exposed — the same
   overlap-then-expose shape as runahead over DRAM.

A system is a deterministic function of ``(dataset, config, fabric)``; the
API :class:`~repro.api.session.Session` caches, fans out and forces whole
systems (``scaleout`` requests), never single chips.  A one-chip system
degenerates to exactly the single-chip simulator's cycles and DRAM traffic.

Modeling note — halo rows touch *two* channels, deliberately: the exchange
moves each remote XW row across the fabric once (link cycles + link
energy), staging it into the receiving chip's local memory; the per-chip
simulation then reads every referenced row from local DRAM exactly as the
single-chip model would (a row missed by several clusters is re-read per
miss, which a single fabric transfer cannot stand in for).  ``dram_bytes``
and ``interchip_bytes`` therefore count different wires, not the same byte
twice; the staging *write* into local DRAM is the one transfer the model
rounds away.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.accelerators.base import AcceleratorResult, merge_sram_events
from repro.api.backends import grow_area_mm2
from repro.core.accelerator import GrowSimulator
from repro.energy.energy_model import estimate_energy
from repro.harness.config import ExperimentConfig, default_config
from repro.harness.report import ExperimentResult
from repro.harness.workloads import get_bundle
from repro.obs import metrics as obs_metrics
from repro.obs import trace
from repro.scaleout.interconnect import InterconnectModel
from repro.scaleout.shard import ShardPlan, build_shard_plan
from repro.scaleout.topology import ChipTopology

#: Short topology tags used in report/file names.
_KIND_TAGS = {"ring": "ring", "mesh": "mesh", "fully-connected": "fc"}


def get_shard_plan(
    dataset: str, config: ExperimentConfig, num_chips: int, method: str = "metis"
) -> ShardPlan:
    """One dataset's shard plan, memoised on its bundle plan (by chip count
    and method), so it lives exactly as long as the bundle."""
    bundle = get_bundle(dataset, config)
    adjacency = bundle.dataset.graph.adjacency()

    def build() -> ShardPlan:
        with trace.span(
            "scaleout.shard_plan", dataset=dataset, chips=num_chips, method=method
        ):
            return build_shard_plan(
                bundle.dataset.graph, bundle.plan, num_chips, method=method, seed=config.seed
            )

    return bundle.plan.derived(("shard_plan", num_chips, method), adjacency, build)


@dataclass
class ScaleOutResult:
    """System-level outcome of simulating one dataset on a multi-chip system.

    Attributes:
        dataset: dataset name.
        topology: the fabric's :meth:`~repro.scaleout.topology.ChipTopology.
            fingerprint`.
        shard: the shard plan's fingerprint (nodes per chip, halo totals).
        exchange: configured exchange pattern (``halo``/``reduce``/``auto``).
        system_cycles: end-to-end latency with per-layer barriers.
        single_chip_cycles: the one-chip baseline latency of the same
            dataset and GROW configuration.
        speedup_vs_single_chip: baseline cycles over system cycles.
        scaling_efficiency: speedup divided by the chip count (strong
            scaling efficiency; 1.0 for one chip by construction).
        chip_cycles: per-chip total cycles, indexed by chip id.
        dram_bytes: DRAM traffic summed over chips (local channels).
        interchip_bytes: bytes injected into the inter-chip fabric.
        interchip_hop_bytes: bytes x hops (link occupancy).
        comm_transfer_cycles: serialization cycles summed over layers
            (overlapped with compute in the composition).
        comm_exposed_cycles: exposed synchronisation latency summed over
            layers (always part of ``system_cycles``).
        energy_nj: chip energy plus link energy.
        interconnect_energy_nj: the link-energy share of ``energy_nj``.
        area_mm2: total silicon (chip area x chip count).
        layers: per-layer breakdown dicts (chip-compute bound, exchange).
    """

    dataset: str
    topology: dict[str, Any]
    shard: dict[str, Any]
    exchange: str
    system_cycles: float
    single_chip_cycles: float
    speedup_vs_single_chip: float
    scaling_efficiency: float
    chip_cycles: list[float]
    dram_bytes: int
    interchip_bytes: int
    interchip_hop_bytes: int
    comm_transfer_cycles: float
    comm_exposed_cycles: float
    energy_nj: float
    interconnect_energy_nj: float
    area_mm2: float
    layers: list[dict[str, Any]] = field(default_factory=list)

    @property
    def num_chips(self) -> int:
        return int(self.topology["num_chips"])

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe form (identical across serial/parallel/cached runs)."""
        return {
            "dataset": self.dataset,
            "topology": dict(self.topology),
            "shard": dict(self.shard),
            "exchange": self.exchange,
            "system_cycles": self.system_cycles,
            "single_chip_cycles": self.single_chip_cycles,
            "speedup_vs_single_chip": self.speedup_vs_single_chip,
            "scaling_efficiency": self.scaling_efficiency,
            "chip_cycles": list(self.chip_cycles),
            "dram_bytes": self.dram_bytes,
            "interchip_bytes": self.interchip_bytes,
            "interchip_hop_bytes": self.interchip_hop_bytes,
            "comm_transfer_cycles": self.comm_transfer_cycles,
            "comm_exposed_cycles": self.comm_exposed_cycles,
            "energy_nj": self.energy_nj,
            "interconnect_energy_nj": self.interconnect_energy_nj,
            "area_mm2": self.area_mm2,
            "layers": [dict(layer) for layer in self.layers],
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ScaleOutResult":
        """Rebuild a system result from its :meth:`to_dict` form (e.g. the
        ``detail["system"]`` payload of an API ``scaleout`` run)."""
        known = {k: data[k] for k in cls.__dataclass_fields__ if k in data}
        return cls(**known)

    def as_row(self) -> dict[str, Any]:
        """Flat summary row for :class:`~repro.harness.report.ExperimentResult`."""
        return {
            "dataset": self.dataset,
            "chips": self.num_chips,
            "topology": self.topology["kind"],
            "system_cycles": self.system_cycles,
            "speedup": self.speedup_vs_single_chip,
            "efficiency": self.scaling_efficiency,
            "interchip_mb": self.interchip_bytes / 1e6,
            "comm_cycles": self.comm_transfer_cycles + self.comm_exposed_cycles,
            "dram_mb": self.dram_bytes / 1e6,
            "energy_uj": self.energy_nj / 1000.0,
        }


class ScaleOutSimulator:
    """Simulate a multi-chip GROW system over one experiment configuration.

    Args:
        config: experiment configuration naming datasets, bandwidth, seed
            (:func:`~repro.harness.config.default_config` when omitted).
        topology: the chip fabric; a plain chip count builds the default
            ring (``ChipTopology(num_chips)``).
        exchange: inter-chip exchange pattern (``"halo"``, ``"reduce"`` or
            ``"auto"``).
        shard_method: cluster-to-chip assignment (``"metis"`` or ``"greedy"``).
        grow_overrides: per-chip :class:`~repro.core.config.GrowConfig`
            field overrides (e.g. ``runahead_degree=32``).
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        topology: ChipTopology | int = 1,
        exchange: str = "halo",
        shard_method: str = "metis",
        grow_overrides: dict | None = None,
    ):
        self.config = config if config is not None else default_config()
        self.topology = (
            topology if isinstance(topology, ChipTopology) else ChipTopology(int(topology))
        )
        self.interconnect = InterconnectModel(self.topology, exchange=exchange)
        self.exchange = exchange
        self.shard_method = shard_method
        self.grow_overrides = dict(grow_overrides or {})

    # -- per-chip evaluation ----------------------------------------------

    def _chip_results(
        self, dataset: str, shard_plan: ShardPlan
    ) -> list[AcceleratorResult]:
        """One GROW result per chip, in chip order; empty shards are empty
        results.  The chip's clusters keep their rows, row order and HDN
        lists, so its counts are sums of the bundle plan's per-cluster
        counts."""
        bundle = get_bundle(dataset, self.config)
        simulator = GrowSimulator(self.config.grow_config(**self.grow_overrides))
        results = []
        for shard in shard_plan.shards:
            name = f"{dataset}[chip{shard.chip_id}/{shard_plan.num_chips}]"
            if shard.empty:
                obs_metrics.inc("scaleout.chips_empty")
                results.append(AcceleratorResult(accelerator="grow", workload=name))
            else:
                obs_metrics.inc("scaleout.chips_ran")
                results.append(
                    simulator.run_model(
                        bundle.workloads, bundle.plan, name=name, clusters=shard.clusters
                    )
                )
        return results

    # -- composition -------------------------------------------------------

    def _compose(
        self,
        dataset: str,
        shard_plan: ShardPlan,
        chips: Sequence[AcceleratorResult],
        single_chip_cycles: float,
    ) -> ScaleOutResult:
        bundle = get_bundle(dataset, self.config)
        num_layers = len(bundle.workloads)
        num_chips = self.topology.num_chips

        layers: list[dict[str, Any]] = []
        system_cycles = 0.0
        interchip_bytes = 0
        interchip_hop_bytes = 0
        comm_transfer = 0.0
        comm_exposed = 0.0
        with trace.span(
            "scaleout.compose", dataset=dataset, chips=num_chips, layers=num_layers
        ):
            for layer_index in range(num_layers):
                chip_layer_cycles = []
                for chip in chips:
                    phases = chip.phases[2 * layer_index : 2 * layer_index + 2]
                    chip_layer_cycles.append(sum(phase.total_cycles for phase in phases))
                exchange = self.interconnect.layer_exchange(
                    shard_plan, bundle.workloads[layer_index].aggregation.rhs_row_bytes
                )
                compute_bound = max(chip_layer_cycles) if chip_layer_cycles else 0.0
                layer_cycles = (
                    max(compute_bound, exchange.transfer_cycles)
                    + exchange.exposed_latency_cycles
                )
                system_cycles += layer_cycles
                interchip_bytes += exchange.total_bytes
                interchip_hop_bytes += exchange.hop_bytes
                comm_transfer += exchange.transfer_cycles
                comm_exposed += exchange.exposed_latency_cycles
                layers.append(
                    {
                        "layer": bundle.workloads[layer_index].name,
                        "compute_bound_cycles": compute_bound,
                        "system_cycles": layer_cycles,
                        "exchange": exchange.as_dict(),
                    }
                )
        obs_metrics.inc("scaleout.interchip_bytes", int(interchip_bytes))
        obs_metrics.inc("scaleout.interchip_hop_bytes", int(interchip_hop_bytes))

        # -- energy over the whole system.
        mac_operations = sum(chip.total_mac_operations for chip in chips)
        dram_bytes = sum(chip.total_dram_bytes for chip in chips)
        sram_events = merge_sram_events(list(chips))
        area_mm2 = grow_area_mm2(self.config.grow_config(**self.grow_overrides)) * num_chips
        chip_energy = estimate_energy(
            mac_operations=mac_operations,
            dram_bytes=dram_bytes,
            sram_access_events=sram_events,
            runtime_cycles=system_cycles,
            area_mm2=area_mm2,
        )
        link_energy_nj = self.interconnect.energy_nj(interchip_hop_bytes)

        speedup = single_chip_cycles / system_cycles if system_cycles else float("inf")
        return ScaleOutResult(
            dataset=dataset,
            topology=self.topology.fingerprint(),
            shard=shard_plan.fingerprint(),
            exchange=self.exchange,
            system_cycles=float(system_cycles),
            single_chip_cycles=float(single_chip_cycles),
            speedup_vs_single_chip=float(speedup),
            scaling_efficiency=float(speedup / num_chips),
            chip_cycles=[float(chip.total_cycles) for chip in chips],
            dram_bytes=int(dram_bytes),
            interchip_bytes=int(interchip_bytes),
            interchip_hop_bytes=int(interchip_hop_bytes),
            comm_transfer_cycles=float(comm_transfer),
            comm_exposed_cycles=float(comm_exposed),
            energy_nj=float(chip_energy.total_nj + link_energy_nj),
            interconnect_energy_nj=float(link_energy_nj),
            area_mm2=float(area_mm2),
            layers=layers,
        )

    # -- entry points ------------------------------------------------------

    def run(self, dataset: str) -> ScaleOutResult:
        """Simulate one dataset on the configured system."""
        if dataset not in self.config.datasets:
            raise KeyError(
                f"dataset {dataset!r} is not part of this configuration "
                f"{list(self.config.datasets)}"
            )
        num_chips = self.topology.num_chips
        with trace.span("scaleout.run", dataset=dataset, chips=num_chips):
            shard_plan = get_shard_plan(dataset, self.config, num_chips, self.shard_method)
            chips = self._chip_results(dataset, shard_plan)
            if num_chips > 1:
                single_chip = get_shard_plan(dataset, self.config, 1, self.shard_method)
                baseline = self._chip_results(dataset, single_chip)[0]
            else:
                baseline = chips[0]
            result = self._compose(dataset, shard_plan, chips, float(baseline.total_cycles))
        return result

    # -- reporting ---------------------------------------------------------

    @property
    def report_name(self) -> str:
        """Report/file identifier, e.g. ``scaleout_ring4``."""
        return f"scaleout_{_KIND_TAGS[self.topology.kind]}{self.topology.num_chips}"

    def report(self, results: Sequence[ScaleOutResult]) -> ExperimentResult:
        """Render system results as a suite-compatible experiment result."""
        result = ExperimentResult(
            name=self.report_name,
            paper_reference="Scale-out projection (extends Figure 24 beyond one chip)",
            description=(
                f"{self.topology.num_chips}-chip {self.topology.kind} system: "
                f"system cycles, inter-chip traffic and strong-scaling efficiency"
            ),
            columns=[
                "dataset",
                "chips",
                "topology",
                "system_cycles",
                "speedup",
                "efficiency",
                "interchip_mb",
                "comm_cycles",
                "dram_mb",
                "energy_uj",
            ],
            notes=[
                f"link {self.topology.link_bandwidth_gbps:g} GB/s, "
                f"{self.topology.link_latency_cycles} cycles/hop; "
                f"exchange pattern {self.exchange!r}; shard method {self.shard_method!r}. "
                "Speedup is single-chip cycles over system cycles; efficiency divides "
                "it by the chip count.",
            ],
            metadata={
                "topology": self.topology.fingerprint(),
                "exchange": self.exchange,
                "shard_method": self.shard_method,
                "grow_overrides": dict(self.grow_overrides),
                "systems": [r.to_dict() for r in results],
            },
        )
        for system in results:
            result.add_row(**system.as_row())
        return result
