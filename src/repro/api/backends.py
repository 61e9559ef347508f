"""The backend registry: every simulation engine behind one protocol.

A *backend* turns a validated :class:`~repro.api.request.SimRequest` into a
:class:`~repro.api.result.RunResult`.  The built-ins registered here cover
every engine in the repository:

========== ==================================================================
``grow``       the paper's single-PE GROW simulator (full dataset, or one
               shard slice when the request carries a chip spec)
``multipe``    the multi-PE aggregation scaling model (Figure 24)
``gcnax``      the GCNAX loop-optimised SpDeGEMM baseline
``hygcn``      the HyGCN two-engine ``(A X) W`` baseline
``matraptor``  the MatRaptor sparse-sparse Gustavson baseline
``gamma``      the GAMMA sparse-sparse Gustavson baseline
``scaleout``   the multi-chip system engine (sharding + interconnect)
========== ==================================================================

Backends import their simulator stacks at call time, so ``repro.api`` stays
importable from every layer (the scale-out engine itself routes its per-chip
runs back through this registry).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Protocol

from repro.api.errors import UnknownBackendError, suggest_names, unknown_name_message
from repro.api.request import ScaleOutSpec, SimRequest
from repro.api.result import RunResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.api.session import Session


class Backend(Protocol):
    """What the session requires of a simulation backend."""

    name: str

    def run(self, request: SimRequest, session: "Session | None" = None) -> RunResult:
        """Execute the request and return a fresh (``status="ran"``) result."""
        ...


_BACKENDS: dict[str, Backend] = {}


def register_backend(backend: Backend) -> Backend:
    """Add a backend to the registry (its ``name`` must be unused)."""
    if not getattr(backend, "name", ""):
        raise ValueError("a backend needs a non-empty 'name' attribute")
    if backend.name in _BACKENDS:
        raise ValueError(f"backend {backend.name!r} is already registered")
    _BACKENDS[backend.name] = backend
    return backend


def known_backend(name: str) -> bool:
    """Whether ``name`` is a registered backend."""
    return name in _BACKENDS


def list_backends() -> list[str]:
    """Names of all registered backends, sorted."""
    return sorted(_BACKENDS)


def suggest_backends(name: str, limit: int = 3) -> list[str]:
    """Registered names close to ``name`` (for did-you-mean messages)."""
    return suggest_names(name, _BACKENDS, limit)


def get_backend(name: str) -> Backend:
    """Look up a backend; unknown names fail with close-match suggestions."""
    if name not in _BACKENDS:
        raise UnknownBackendError(unknown_name_message("backend", name, _BACKENDS))
    return _BACKENDS[name]


# ---------------------------------------------------------------------------
# shared accounting
# ---------------------------------------------------------------------------


def accelerator_metrics(results, area_mm2: float) -> dict[str, float]:
    """The canonical metric dict of one or more accelerator results.

    Shared by the single-engine backends and the DSE objective layer:
    cycles, traffic and MACs summed over the results, energy estimated over
    the merged SRAM activity, area as given.
    """
    from repro.accelerators.base import merge_sram_events
    from repro.energy.energy_model import estimate_energy

    cycles = sum(result.total_cycles for result in results)
    dram_bytes = sum(result.total_dram_bytes for result in results)
    mac_operations = sum(result.total_mac_operations for result in results)
    energy = estimate_energy(
        mac_operations=mac_operations,
        dram_bytes=dram_bytes,
        sram_access_events=merge_sram_events(list(results)),
        runtime_cycles=cycles,
        area_mm2=area_mm2,
    )
    return {
        "cycles": float(cycles),
        "dram_bytes": float(dram_bytes),
        "energy_nj": float(energy.total_nj),
        "area_mm2": float(area_mm2),
    }


def grow_area_mm2(grow_config) -> float:
    """65 nm area of one GROW engine under a sizing configuration."""
    from repro.energy.area import grow_area_breakdown

    return grow_area_breakdown(
        num_macs=grow_config.arch.num_macs,
        sparse_buffer_bytes=grow_config.sparse_buffer_bytes,
        hdn_id_bytes=grow_config.hdn_id_list_bytes,
        hdn_cache_bytes=grow_config.hdn_cache_bytes,
        output_buffer_bytes=grow_config.output_buffer_bytes,
    ).total_mm2


def _bundle_for(request: SimRequest):
    """The (memoised) workload bundle plus bound experiment configuration."""
    from repro.harness.workloads import get_bundle

    config = request.experiment_config()
    return get_bundle(request.dataset, config), config


# ---------------------------------------------------------------------------
# built-in backends
# ---------------------------------------------------------------------------


class GrowBackend:
    """The single-PE GROW simulator; honours ``partitioned`` and chip specs."""

    name = "grow"

    def run(self, request: SimRequest, session: "Session | None" = None) -> RunResult:
        from repro.core.accelerator import GrowSimulator

        bundle, config = _bundle_for(request)
        grow_config = config.grow_config(**request.override_dict())
        if request.chip is not None:
            result = self._run_chip(request, bundle, config, grow_config)
        else:
            plan = bundle.plan if request.partitioned else bundle.plan_unpartitioned
            result = GrowSimulator(grow_config).run_model(bundle.workloads, plan)
        return RunResult(
            request=request,
            metrics=accelerator_metrics([result], grow_area_mm2(grow_config)),
            detail={"result": result.to_dict()},
        )

    def _run_chip(self, request: SimRequest, bundle, config, grow_config):
        """One shard slice: the scale-out engine's per-chip unit of work."""
        # Imported at call time: the scale-out engine imports this module.
        from repro.accelerators.base import AcceleratorResult
        from repro.core.accelerator import GrowSimulator
        from repro.scaleout.engine import get_shard_plan

        spec = request.chip
        shard_plan = get_shard_plan(
            request.dataset, config, spec.num_chips, spec.shard_method
        )
        shard = shard_plan.shards[spec.chip_id]
        workload_name = f"{request.dataset}[chip{spec.chip_id}/{spec.num_chips}]"
        if shard.empty:
            return AcceleratorResult(accelerator="grow", workload=workload_name)
        # The chip's clusters keep their rows, row order and HDN lists, so
        # its counts are sums of the bundle plan's per-cluster counts.
        return GrowSimulator(grow_config).run_model(
            bundle.workloads, bundle.plan, name=workload_name, clusters=shard.clusters
        )


class MultiPEBackend:
    """The multi-PE aggregation scaling model (Figure 24).

    The PE count comes from the ``num_pes`` override (a
    :class:`~repro.core.config.GrowConfig` field).  ``cycles`` is the
    aggregation latency summed over layers; the per-layer records (including
    ``throughput_vs_single``) live in ``detail["layers"]``.  The model prices
    aggregation only, so ``dram_bytes``/``energy_nj`` are reported as 0.
    """

    name = "multipe"

    def run(self, request: SimRequest, session: "Session | None" = None) -> RunResult:
        from repro.core.multi_pe import MultiPEGrowSimulator

        bundle, config = _bundle_for(request)
        grow_config = config.grow_config(**request.override_dict())
        simulator = MultiPEGrowSimulator(grow_config)
        plan = bundle.plan if request.partitioned else bundle.plan_unpartitioned
        layers: list[dict[str, Any]] = []
        for workload in bundle.workloads:
            outcome = simulator.run_aggregation(workload, grow_config.num_pes, plan)
            layers.append(
                {
                    "layer": workload.name,
                    "num_pes": outcome.num_pes,
                    "aggregation_cycles": float(outcome.total_cycles),
                    "throughput_vs_single": float(outcome.throughput_vs_single),
                    "per_pe_compute_cycles": [float(c) for c in outcome.per_pe_compute_cycles],
                }
            )
        cycles = sum(layer["aggregation_cycles"] for layer in layers)
        metrics = {
            "cycles": float(cycles),
            "dram_bytes": 0.0,
            "energy_nj": 0.0,
            "area_mm2": float(grow_area_mm2(grow_config) * grow_config.num_pes),
        }
        return RunResult(request=request, metrics=metrics, detail={"layers": layers})


class GCNAXBackend:
    """The GCNAX baseline; area is the published total scaled to 65 nm."""

    name = "gcnax"

    def run(self, request: SimRequest, session: "Session | None" = None) -> RunResult:
        from repro.accelerators.gcnax import GCNAXSimulator
        from repro.energy.area import GCNAX_AREA_MM2_40NM, scale_area

        bundle, config = _bundle_for(request)
        simulator = GCNAXSimulator(config.gcnax_config(**request.override_dict()))
        result = simulator.run_model(bundle.workloads)
        area_mm2 = scale_area(GCNAX_AREA_MM2_40NM, from_nm=40, to_nm=65)
        return RunResult(
            request=request,
            metrics=accelerator_metrics([result], area_mm2),
            detail={"result": result.to_dict()},
        )


class _LayerwiseBaselineBackend:
    """Shared shape of the remaining baselines: per-layer runs, no area model
    in the repository (``area_mm2`` reported as 0.0, which also zeroes the
    leakage share of the energy estimate)."""

    name = ""

    def _run_layers(self, request: SimRequest):
        raise NotImplementedError

    def run(self, request: SimRequest, session: "Session | None" = None) -> RunResult:
        result = self._run_layers(request)
        return RunResult(
            request=request,
            metrics=accelerator_metrics([result], 0.0),
            detail={"result": result.to_dict()},
        )


class HyGCNBackend(_LayerwiseBaselineBackend):
    """The HyGCN two-engine ``(A X) W`` baseline."""

    name = "hygcn"

    def _run_layers(self, request: SimRequest):
        from repro.accelerators.base import combine_results
        from repro.accelerators.hygcn import HyGCNSimulator

        bundle, config = _bundle_for(request)
        simulator = HyGCNSimulator(config.hygcn_config(**request.override_dict()))
        return combine_results(
            [simulator.run_layer(workload) for workload in bundle.workloads],
            workload=request.dataset,
        )


class MatRaptorBackend(_LayerwiseBaselineBackend):
    """The MatRaptor sparse-sparse Gustavson baseline."""

    name = "matraptor"

    def _run_layers(self, request: SimRequest):
        from repro.accelerators.matraptor import MatRaptorSimulator

        bundle, config = _bundle_for(request)
        simulator = MatRaptorSimulator(config.matraptor_config(**request.override_dict()))
        return simulator.run_model(bundle.workloads)


class GAMMABackend(_LayerwiseBaselineBackend):
    """The GAMMA sparse-sparse Gustavson baseline."""

    name = "gamma"

    def _run_layers(self, request: SimRequest):
        from repro.accelerators.gamma import GAMMASimulator

        bundle, config = _bundle_for(request)
        simulator = GAMMASimulator(config.gamma_config(**request.override_dict()))
        return simulator.run_model(bundle.workloads)


def scaleout_run_result(
    request: SimRequest, system, status: str = "ran", seconds: float = 0.0
) -> RunResult:
    """Wrap one :class:`~repro.scaleout.engine.ScaleOutResult` in the
    canonical envelope (shared by the backend and the ``scaleout --json``
    CLI path, so both emit byte-identical payloads)."""
    metrics = {
        "cycles": float(system.system_cycles),
        "dram_bytes": float(system.dram_bytes),
        "energy_nj": float(system.energy_nj),
        "area_mm2": float(system.area_mm2),
    }
    return RunResult(
        request=request,
        status=status,
        seconds=seconds,
        metrics=metrics,
        detail={"system": system.to_dict()},
    )


class ScaleOutBackend:
    """The multi-chip system engine; consumes the request's fabric spec.

    The engine's per-chip GROW runs come back through this registry (as
    ``grow`` requests carrying chip specs) on the dispatching session, so
    they share its jobs, memo, cache and ``force``, and a fabric sweep over
    the same system re-simulates nothing.  A detached worker (``session``
    of ``None``) runs them on the process's memo-only default session.
    """

    name = "scaleout"

    def run(self, request: SimRequest, session: "Session | None" = None) -> RunResult:
        from repro.scaleout.engine import ScaleOutSimulator
        from repro.scaleout.topology import ChipTopology

        fabric = request.fabric if request.fabric is not None else ScaleOutSpec()
        topology = ChipTopology(
            num_chips=fabric.num_chips,
            kind=fabric.topology,
            link_bandwidth_gbps=fabric.link_bandwidth_gbps,
            link_latency_cycles=fabric.link_latency_cycles,
        )
        simulator = ScaleOutSimulator(
            config=request.experiment_config(),
            topology=topology,
            exchange=fabric.exchange,
            shard_method=fabric.shard_method,
            grow_overrides=request.override_dict(),
            session=session,
        )
        system = simulator.run(request.dataset)
        return scaleout_run_result(request, system)


for _backend in (
    GrowBackend(),
    MultiPEBackend(),
    GCNAXBackend(),
    HyGCNBackend(),
    MatRaptorBackend(),
    GAMMABackend(),
    ScaleOutBackend(),
):
    register_backend(_backend)
