"""Candidate evaluation: metrics, objectives and constraint filtering.

This module is the bridge between a design-space candidate (a plain dict of
parameter values, see :mod:`repro.dse.space`) and the simulators — reached
through the unified API facade (:mod:`repro.api`), whose shared session
memoises runs so overlapping sweep points and candidates are evaluated once
per process.  It

* binds candidate keys onto configurations — keys naming
  :class:`~repro.harness.config.ExperimentConfig` fields (``num_macs``,
  ``bandwidth_gbps``, ...) are applied there, every other key is passed as a
  simulator-config override (``GrowConfig`` / ``GCNAXConfig`` field);
* computes one metric dict per candidate — ``cycles``, ``dram_bytes``,
  ``energy_nj`` (via :mod:`repro.energy`) and ``area_mm2`` — summed over the
  experiment configuration's datasets;
* applies an :class:`ObjectiveSet`: which metrics to optimise in which
  direction, plus constraints (e.g. ``area_mm2 <= budget``) that mark
  candidates infeasible without discarding their cached metrics.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field, fields, replace
from typing import Any

from repro.api.backends import accelerator_metrics, grow_area_mm2
from repro.energy.area import GCNAX_AREA_MM2_40NM, scale_area
from repro.harness.config import ExperimentConfig

#: Metric names every evaluation produces, in report-column order.
METRIC_NAMES = ("cycles", "dram_bytes", "energy_nj", "area_mm2")


# -- objectives and constraints --------------------------------------------


@dataclass(frozen=True)
class Objective:
    """One optimisation axis: a metric name and a direction."""

    metric: str
    direction: str = "min"

    def __post_init__(self) -> None:
        if self.direction not in ("min", "max"):
            raise ValueError(f"objective {self.metric!r}: direction must be 'min' or 'max'")


@dataclass(frozen=True)
class Constraint:
    """A feasibility bound on one metric (e.g. ``area_mm2 <= 6.0``)."""

    metric: str
    bound: float
    op: str = "<="

    def __post_init__(self) -> None:
        if self.op not in ("<=", ">="):
            raise ValueError(f"constraint on {self.metric!r}: op must be '<=' or '>='")

    def satisfied(self, metrics: dict[str, float]) -> bool:
        value = metrics[self.metric]
        return value <= self.bound if self.op == "<=" else value >= self.bound

    def __str__(self) -> str:
        return f"{self.metric} {self.op} {self.bound:g}"


@dataclass(frozen=True)
class ObjectiveSet:
    """The objectives being traded off plus the constraints filtering candidates."""

    objectives: tuple[Objective, ...]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        if not self.objectives:
            raise ValueError("an ObjectiveSet needs at least one objective")
        names = [objective.metric for objective in self.objectives]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate objective metrics in {names}")

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(objective.metric for objective in self.objectives)

    @property
    def directions(self) -> tuple[str, ...]:
        return tuple(objective.direction for objective in self.objectives)

    def vector(self, metrics: dict[str, float]) -> tuple[float, ...]:
        """The candidate's position in objective space."""
        return tuple(float(metrics[objective.metric]) for objective in self.objectives)

    def violations(self, metrics: dict[str, float]) -> tuple[str, ...]:
        """Human-readable descriptions of every violated constraint."""
        return tuple(
            str(constraint)
            for constraint in self.constraints
            if not constraint.satisfied(metrics)
        )

    def fingerprint(self) -> dict[str, Any]:
        """JSON-safe description (part of report metadata)."""
        return {
            "objectives": [[o.metric, o.direction] for o in self.objectives],
            "constraints": [[c.metric, c.op, c.bound] for c in self.constraints],
        }


def default_objectives(area_budget_mm2: float | None = None) -> ObjectiveSet:
    """The standard trade-off: minimise cycles against area (65 nm mm^2)."""
    constraints = ()
    if area_budget_mm2 is not None:
        constraints = (Constraint("area_mm2", area_budget_mm2, "<="),)
    return ObjectiveSet(
        objectives=(Objective("cycles"), Objective("area_mm2")),
        constraints=constraints,
    )


# -- candidate binding and metric evaluation --------------------------------

#: Candidate keys applied at the ExperimentConfig level rather than passed as
#: simulator-config overrides.  ``datasets``/``num_nodes_override`` stay
#: owned by the experiment configuration: a search varies the design, not
#: the workload.
_EXPERIMENT_LEVEL_KEYS = frozenset(
    f.name for f in fields(ExperimentConfig) if f.name not in ("datasets", "num_nodes_override")
)


def bind_candidate(
    config: ExperimentConfig, candidate: dict
) -> tuple[ExperimentConfig, dict]:
    """Split a candidate into an updated config and simulator overrides."""
    experiment_level = {k: v for k, v in candidate.items() if k in _EXPERIMENT_LEVEL_KEYS}
    overrides = {k: v for k, v in candidate.items() if k not in _EXPERIMENT_LEVEL_KEYS}
    bound = replace(config, **experiment_level) if experiment_level else config
    return bound, overrides


#: Candidate keys that describe the *workload* rather than the design: they
#: become a synthetic-scenario definition (see ``repro.graph.registry``) that
#: replaces the configuration's dataset list, which is what makes scenario
#: parameters (graph size, degree, community structure, generator family)
#: ordinary searchable DSE dimensions.
_SCENARIO_KEYS = frozenset(
    (
        "generator",
        "num_nodes",
        "average_degree",
        "exponent",
        "num_communities",
        "intra_community_prob",
    )
)


def _smoke_bounded_nodes(num_nodes: int, config: ExperimentConfig) -> int:
    """Bound a scenario candidate's size under a shrunken (smoke) config.

    ``smoke_config`` promises that a smoke run never silently builds a
    full-size graph, so configurations that shrink their datasets also bound
    scenario candidates: sizes beyond twice the largest shrunken dataset are
    compressed with a square root, which keeps the searched size axis
    monotone and distinct while staying at CI scale.
    """
    if not config.num_nodes_override:
        return num_nodes
    cap = 2 * max(config.num_nodes_override.values())
    if num_nodes <= cap:
        return num_nodes
    return int(round(cap * math.sqrt(num_nodes / cap)))


def _bind_scenario(
    bound: ExperimentConfig, overrides: dict
) -> tuple[ExperimentConfig, dict]:
    """Split scenario keys out of a candidate's overrides.

    When present, they define a deterministic synthetic scenario (named by a
    digest of the parameters, so equal candidates share bundles and cache
    entries) that becomes the configuration's sole workload.
    """
    params = {key: overrides[key] for key in sorted(_SCENARIO_KEYS & set(overrides))}
    if not params:
        return bound, overrides
    from repro.graph import registry

    remaining = {k: v for k, v in overrides.items() if k not in _SCENARIO_KEYS}
    if "num_nodes" in params:
        params["num_nodes"] = _smoke_bounded_nodes(int(params["num_nodes"]), bound)
    digest = hashlib.sha256(
        json.dumps(params, sort_keys=True).encode()
    ).hexdigest()[:10]
    spec = registry.scenario_from_dict({"name": f"dse-scenario-{digest}", **params})
    bound = replace(
        bound, datasets=(spec.name,), scenarios=(spec,), num_nodes_override={}
    )
    return bound, remaining


def _provision_ldn(grow_overrides: dict) -> dict:
    """Size the LDN table to a searched runahead degree.

    The paper's Figure 25(a) convention (same as the ``fig25a_runahead_sweep``
    experiment): ``ldn_table_entries`` only acts through ``min(degree, entries)``, so left
    at its default it would silently clamp degrees above 16 and make
    distinct candidates alias the same effective design.  Applied by every
    accelerator branch that accepts GROW overrides.
    """
    if "runahead_degree" in grow_overrides and "ldn_table_entries" not in grow_overrides:
        grow_overrides = {
            **grow_overrides,
            "ldn_table_entries": max(16, grow_overrides["runahead_degree"]),
        }
    return grow_overrides


def candidate_metrics(
    accelerator: str, candidate: dict, config: ExperimentConfig
) -> dict[str, float]:
    """Evaluate one candidate: cycles, DRAM traffic, energy and area.

    Cycles, traffic and energy are summed over ``config.datasets`` (every
    dataset runs on the same candidate design); area is a property of the
    design alone.  Candidate keys naming scenario parameters (``num_nodes``,
    ``average_degree``, ``num_communities``, ...) replace the configuration's
    datasets with one synthetic scenario — the workload itself becomes a
    search dimension.  Raises on candidates the simulators reject (e.g. a
    runahead degree below 1) — the engine records those as failed
    evaluations.
    """
    from repro.harness.experiments.common import simulate

    bound, overrides = bind_candidate(config, candidate)
    bound, overrides = _bind_scenario(bound, overrides)
    if accelerator == "grow":
        overrides = _provision_ldn(overrides)
        area_mm2 = grow_area_mm2(bound.grow_config(**overrides))
    elif accelerator == "gcnax":
        # GCNAX's area is the published total (Table IV), scaled to 65 nm so
        # cross-accelerator frontiers compare like against like.
        area_mm2 = scale_area(GCNAX_AREA_MM2_40NM, from_nm=40, to_nm=65)
    elif accelerator == "scaleout":
        return _scaleout_candidate_metrics(bound, overrides)
    else:
        raise ValueError(f"unknown accelerator {accelerator!r}")
    results = [
        simulate(bound, name, accelerator, **overrides) for name in bound.datasets
    ]
    return accelerator_metrics(results, area_mm2)


#: Candidate keys consumed by the scale-out system itself; everything else
#: in a ``"scaleout"`` candidate is a per-chip GROW override.
_SCALEOUT_KEYS = frozenset(
    ("num_chips", "topology", "link_bandwidth_gbps", "link_latency_cycles", "exchange")
)


def _scaleout_candidate_metrics(
    bound: ExperimentConfig, overrides: dict
) -> dict[str, float]:
    """Metrics of one multi-chip system candidate.

    ``cycles``/``dram_bytes``/``energy_nj`` sum the system results over the
    configuration's datasets (interconnect traffic is priced inside the
    engine's energy, not counted as DRAM); ``area_mm2`` is the chip area
    times the chip count.  Each per-dataset system run routes through the
    API facade's ``scaleout`` backend (the DSE engine caches whole candidate
    evaluations; the facade's memo additionally shares per-chip runs across
    candidates that only differ in link parameters).
    """
    from repro.api import ScaleOutSpec, SimRequest, get_session

    fabric = {key: overrides[key] for key in _SCALEOUT_KEYS if key in overrides}
    grow_overrides = _provision_ldn(
        {k: v for k, v in overrides.items() if k not in _SCALEOUT_KEYS}
    )
    spec = ScaleOutSpec(
        num_chips=int(fabric.get("num_chips", 1)),
        topology=fabric.get("topology", "ring"),
        link_bandwidth_gbps=float(fabric.get("link_bandwidth_gbps", 32.0)),
        link_latency_cycles=int(fabric.get("link_latency_cycles", 50)),
        exchange=fabric.get("exchange", "halo"),
    )
    session = get_session()
    runs = [
        session.run(
            SimRequest.from_experiment(
                bound, name, backend="scaleout", overrides=grow_overrides, fabric=spec
            )
        )
        for name in bound.datasets
    ]
    return {
        "cycles": float(sum(r.total_cycles for r in runs)),
        "dram_bytes": float(sum(r.dram_bytes for r in runs)),
        "energy_nj": float(sum(r.energy_nj for r in runs)),
        "area_mm2": float(runs[0].area_mm2 if runs else 0.0),
    }


# -- evaluation record ------------------------------------------------------


@dataclass
class Evaluation:
    """One evaluated candidate of a search.

    Attributes:
        candidate: the parameter-value dict.
        metrics: metric name to value (empty when the evaluation failed).
        feasible: every constraint satisfied (False for failed evaluations).
        violations: descriptions of the violated constraints.
        status: ``"ran"``, ``"cached"`` or ``"failed"``.
        error: formatted traceback when the evaluation failed.
        generation: 1-based generation the candidate was proposed in.
        seconds: wall-clock evaluation time (0.0 for cache hits).
    """

    candidate: dict
    metrics: dict[str, float] = field(default_factory=dict)
    feasible: bool = False
    violations: tuple[str, ...] = ()
    status: str = "ran"
    error: str | None = None
    generation: int = 0
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status in ("ran", "cached")
