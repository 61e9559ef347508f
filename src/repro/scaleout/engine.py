"""The scale-out simulator: compose per-chip GROW runs into system results.

:class:`ScaleOutSimulator` is the one entry point behind ``python -m repro
scaleout`` and the ``scaling_out`` experiment family.  For one dataset it

1. builds the workload bundle and shards the preprocessing plan's clusters
   across the topology's chips (:mod:`repro.scaleout.shard`),
2. runs one single-chip GROW simulation per non-empty shard, priced from
   the bundle plan's counts of that chip's clusters, each expressed as a
   chip-sliced ``grow`` :class:`~repro.api.request.SimRequest` and
   executed through the caller's API :class:`~repro.api.session.Session`
   — which supplies the process-pool fan-out, the in-process memo and the
   on-disk :class:`~repro.harness.cache.ResultCache`,
3. prices the per-layer halo/reduction exchanges on the interconnect
   (:mod:`repro.scaleout.interconnect`), and
4. composes per-layer system cycles: chips run between per-layer barriers,
   bandwidth-bound communication overlaps compute (``max``), and the
   farthest active exchange's hop latency is exposed — the same
   overlap-then-expose shape as runahead over DRAM.

Because per-chip runs are deterministic functions of ``(dataset, config,
shard, chip)`` and the session normalises every fresh result through its
JSON form before composition, serial, parallel and cached re-runs of the
same system produce identical :class:`ScaleOutResult` objects.  Chip
requests deliberately omit the fabric's link parameters, so chip-count/
topology/bandwidth sweeps and the 1-chip baseline share every per-chip
cache entry.  A one-chip system degenerates to exactly the single-chip
simulator's cycles and DRAM traffic.

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

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.accelerators.base import AcceleratorResult, merge_sram_events
from repro.api import ChipSpec, Session, SimRequest, get_session
from repro.api.backends import grow_area_mm2
from repro.energy.energy_model import estimate_energy
from repro.harness.config import ExperimentConfig, default_config
from repro.harness.report import ExperimentResult
from repro.harness.workloads import get_bundle
from repro.obs import metrics as obs_metrics
from repro.obs import record_run, trace
from repro.scaleout.interconnect import InterconnectModel
from repro.scaleout.shard import ShardPlan, build_shard_plan
from repro.scaleout.topology import ChipTopology

#: Short topology tags used in report/file names.
_KIND_TAGS = {"ring": "ring", "mesh": "mesh", "fully-connected": "fc"}

#: Per-process memo of shard plans (mirrors the workload-bundle memo).
_SHARD_CACHE: dict[tuple, ShardPlan] = {}


def _shard_cache_key(
    dataset: str, config: ExperimentConfig, num_chips: int, method: str
) -> tuple:
    return (
        dataset,
        config.seed,
        config.num_nodes_override.get(dataset),
        config.target_cluster_nodes,
        num_chips,
        method,
        # Scenario datasets shard by their full definition, not just a name
        # (including registry-resolved scenarios the config does not carry).
        config.effective_scenario(dataset),
    )


def get_shard_plan(
    dataset: str, config: ExperimentConfig, num_chips: int, method: str = "metis"
) -> ShardPlan:
    """Build (or fetch from the per-process memo) one dataset's shard plan."""
    key = _shard_cache_key(dataset, config, num_chips, method)
    if key not in _SHARD_CACHE:
        bundle = get_bundle(dataset, config)
        with trace.span(
            "scaleout.shard_plan", dataset=dataset, chips=num_chips, method=method
        ):
            # repro: allow(CONC001) per-process shard-plan memo; workers rebuild plans deterministically from (dataset, config, chips, method)
            _SHARD_CACHE[key] = build_shard_plan(
                bundle.dataset.graph, bundle.plan, num_chips, method=method, seed=config.seed
            )
    return _SHARD_CACHE[key]


def clear_shard_cache() -> None:
    """Drop memoised shard plans (used by tests that vary global state)."""
    _SHARD_CACHE.clear()


@dataclass
class ChipOutcome:
    """What happened to one chip of a scale-out run."""

    chip_id: int
    status: str  # "ran", "cached" or "empty"
    result: AcceleratorResult
    seconds: float = 0.0


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
        chip_statuses: per-chip ``ran``/``cached``/``empty``.
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
    chip_statuses: list[str]
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
        """JSON-safe form (identical across serial/parallel/cached runs,
        except for the ran-vs-cached chip statuses)."""
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
            "chip_statuses": list(self.chip_statuses),
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

    def comparable_dict(self) -> dict[str, Any]:
        """:meth:`to_dict` minus execution provenance (chip statuses), i.e.
        the fields serial, parallel and cached re-runs must agree on."""
        data = self.to_dict()
        data.pop("chip_statuses")
        return data

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
        session: the API session every per-chip run goes through — its
            jobs, memo, on-disk cache and ``force`` apply to the chips
            (:func:`~repro.api.get_session`, memo-only, when omitted).
        results_dir: where ``scaleout_*.{json,md}`` reports are written by
            :meth:`write_reports`; ``None`` skips report files.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        topology: ChipTopology | int = 1,
        exchange: str = "halo",
        shard_method: str = "metis",
        grow_overrides: dict | None = None,
        session: Session | None = None,
        results_dir: str | Path | None = None,
    ):
        self.config = config if config is not None else default_config()
        self.topology = (
            topology if isinstance(topology, ChipTopology) else ChipTopology(int(topology))
        )
        self.interconnect = InterconnectModel(self.topology, exchange=exchange)
        self.exchange = exchange
        self.shard_method = shard_method
        self.grow_overrides = dict(grow_overrides or {})
        self.session = session if session is not None else get_session()
        self.results_dir = Path(results_dir) if results_dir is not None else None

    # -- per-chip evaluation ----------------------------------------------

    def _chip_request(self, dataset: str, num_chips: int, chip_id: int) -> SimRequest:
        """The chip-sliced ``grow`` request of one shard.

        Deliberately independent of the fabric's link parameters: the
        per-chip simulation only depends on the shard (dataset, chip count,
        method) and the GROW configuration, so bandwidth/latency/topology
        sweeps over the same system share every chip entry.
        """
        return SimRequest.from_experiment(
            self.config,
            dataset,
            backend="grow",
            overrides=self.grow_overrides,
            chip=ChipSpec(
                num_chips=num_chips, chip_id=chip_id, shard_method=self.shard_method
            ),
        )

    def _evaluate_chips(
        self, dataset: str, num_chips: int, shard_plan: ShardPlan
    ) -> list[ChipOutcome]:
        """One outcome per chip, in chip order; empty shards skip simulation."""
        outcomes: list[ChipOutcome | None] = [None] * num_chips
        to_run: list[int] = []
        for chip_id, shard in enumerate(shard_plan.shards):
            if shard.empty:
                outcomes[chip_id] = ChipOutcome(
                    chip_id=chip_id,
                    status="empty",
                    result=AcceleratorResult(
                        accelerator="grow", workload=f"{dataset}[chip{chip_id}/{num_chips}]"
                    ),
                )
            else:
                to_run.append(chip_id)

        runs = self.session.run_batch(
            [self._chip_request(dataset, num_chips, chip_id) for chip_id in to_run]
        )
        for chip_id, run in zip(to_run, runs):
            outcomes[chip_id] = ChipOutcome(
                chip_id=chip_id,
                status=run.status,
                result=run.accelerator_result(),
                seconds=run.seconds,
            )
        for outcome in outcomes:
            obs_metrics.inc(f"scaleout.chips_{outcome.status}")
        return outcomes  # every slot is filled by construction

    # -- composition -------------------------------------------------------

    def _compose(
        self,
        dataset: str,
        shard_plan: ShardPlan,
        outcomes: Sequence[ChipOutcome],
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
                for outcome in outcomes:
                    phases = outcome.result.phases[2 * layer_index : 2 * layer_index + 2]
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
        mac_operations = sum(o.result.total_mac_operations for o in outcomes)
        dram_bytes = sum(o.result.total_dram_bytes for o in outcomes)
        sram_events = merge_sram_events([o.result for o in outcomes])
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
            chip_cycles=[float(o.result.total_cycles) for o in outcomes],
            chip_statuses=[o.status for o in outcomes],
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

    def _single_chip_total_cycles(self, dataset: str) -> float:
        """The one-chip baseline, via the same cached per-chip machinery so a
        chip-count sweep pays for it once."""
        shard_plan = get_shard_plan(dataset, self.config, 1, self.shard_method)
        outcome = self._evaluate_chips(dataset, 1, shard_plan)[0]
        return float(outcome.result.total_cycles)

    def run(self, dataset: str) -> ScaleOutResult:
        """Simulate one dataset on the configured system."""
        if dataset not in self.config.datasets:
            raise KeyError(
                f"dataset {dataset!r} is not part of this configuration "
                f"{list(self.config.datasets)}"
            )
        num_chips = self.topology.num_chips
        started = time.perf_counter()  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
        try:
            with trace.span("scaleout.run", dataset=dataset, chips=num_chips):
                shard_plan = get_shard_plan(
                    dataset, self.config, num_chips, self.shard_method
                )
                outcomes = self._evaluate_chips(dataset, num_chips, shard_plan)
                if num_chips == 1:
                    single_chip_cycles = float(outcomes[0].result.total_cycles)
                else:
                    single_chip_cycles = self._single_chip_total_cycles(dataset)
                result = self._compose(
                    dataset, shard_plan, outcomes, single_chip_cycles
                )
        except Exception:
            record_run(
                "scaleout",
                f"{self.report_name}:{dataset}",
                outcome="failed",
                wall_seconds=time.perf_counter() - started,  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
                backend="scaleout",
                dataset=dataset,
            )
            raise
        record_run(
            "scaleout",
            f"{self.report_name}:{dataset}",
            outcome="ok",
            wall_seconds=time.perf_counter() - started,  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
            backend="scaleout",
            dataset=dataset,
            metrics={
                "chips": num_chips,
                "system_cycles": result.system_cycles,
                "interchip_bytes": result.interchip_bytes,
                "scaling_efficiency": result.scaling_efficiency,
            },
        )
        return result

    def run_all(
        self, progress: Callable[[ScaleOutResult], None] | None = None
    ) -> list[ScaleOutResult]:
        """Simulate every dataset of the configuration, in order."""
        results = []
        for dataset in self.config.datasets:
            result = self.run(dataset)
            results.append(result)
            if progress:
                progress(result)
        return results

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
                # comparable_dict: report artefacts must be identical across
                # serial, parallel and cached re-runs, so the ran-vs-cached
                # provenance stays out of them.
                "systems": [r.comparable_dict() for r in results],
            },
        )
        for system in results:
            result.add_row(**system.as_row())
        return result

    def write_reports(self, results: Sequence[ScaleOutResult]) -> list[Path]:
        """Write ``scaleout_*.{json,md}`` next to the suite's artefacts."""
        if self.results_dir is None:
            raise ValueError("ScaleOutSimulator has no results_dir to write into")
        self.results_dir.mkdir(parents=True, exist_ok=True)
        report = self.report(results)
        json_path = self.results_dir / f"{report.name}.json"
        md_path = self.results_dir / f"{report.name}.md"
        json_path.write_text(report.to_json() + "\n")
        md_path.write_text(report.to_markdown() + "\n")
        return [json_path, md_path]
