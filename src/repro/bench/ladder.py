"""The benchmark ladder: fixed scenarios measured release after release.

Every rung pins its complete workload definition here, and
:func:`scenario_digest` hashes that definition into the emitted record —
if a rung's meaning ever changes, the digest changes with it and the
trajectory is visibly discontinuous rather than silently incomparable.

The grow rungs exercise the full single-chip pipeline (graph generation,
partitioning, preprocessing, feature synthesis and the cycle model); the
scale-out rung adds sharding plus interconnect modelling; the DSE rung
covers the search harness.  ``grow-1k`` exists for tests and CI smoke.
"""

from __future__ import annotations

import hashlib
import json
import resource
import time
from dataclasses import dataclass, field

from repro.obs import aggregate_phases, trace

# Cycle counts, DRAM bytes and energy must be independent of when or how
# often a rung runs; wall-clock is the only quantity allowed to move.


@dataclass(frozen=True)
class BenchRung:
    """One rung of the ladder: a named, fully pinned workload."""

    name: str
    kind: str  # "grow" | "scaleout" | "dse"
    description: str
    scenario: dict | None = None
    fabric: dict = field(default_factory=dict)
    dse: dict = field(default_factory=dict)

    def definition(self) -> dict:
        """The complete, canonical definition the digest is computed over."""
        return {
            "name": self.name,
            "kind": self.kind,
            "scenario": self.scenario,
            "fabric": self.fabric,
            "dse": self.dse,
        }


def _chung_lu_scenario(name: str, num_nodes: int) -> dict:
    return {
        "name": name,
        "generator": "chung-lu",
        "num_nodes": num_nodes,
        "average_degree": 16,
        "num_communities": 64,
        "feature_lengths": [128, 64, 16],
    }


RUNGS: dict[str, BenchRung] = {
    rung.name: rung
    for rung in (
        BenchRung(
            name="grow-1k",
            kind="grow",
            description="1k-node chung-lu graph through the GROW backend (CI smoke)",
            scenario=_chung_lu_scenario("bench-grow-1k", 1000),
        ),
        BenchRung(
            name="grow-10k",
            kind="grow",
            description="10k-node chung-lu graph through the GROW backend",
            scenario=_chung_lu_scenario("bench-grow-10k", 10_000),
        ),
        BenchRung(
            name="grow-100k",
            kind="grow",
            description="100k-node chung-lu graph through the GROW backend",
            scenario=_chung_lu_scenario("bench-grow-100k", 100_000),
        ),
        BenchRung(
            name="grow-1m",
            kind="grow",
            description="1M-node chung-lu graph through the GROW backend",
            scenario=_chung_lu_scenario("bench-grow-1m", 1_000_000),
        ),
        BenchRung(
            name="scaleout-4chip-10k",
            kind="scaleout",
            description="10k-node chung-lu graph on a 4-chip mesh system",
            scenario=_chung_lu_scenario("bench-grow-10k", 10_000),
            fabric={"num_chips": 4, "topology": "mesh"},
        ),
        BenchRung(
            name="dse-smoke",
            kind="dse",
            description="grid search of the grow-smoke space, budget 8",
            dse={"space": "grow-smoke", "sampler": "grid", "budget": 8, "seed": 0},
        ),
    )
}

#: The rungs a plain ``repro bench`` runs, cheap to expensive.
DEFAULT_LADDER: tuple[str, ...] = (
    "grow-10k",
    "grow-100k",
    "scaleout-4chip-10k",
    "dse-smoke",
    "grow-1m",
)


def scenario_digest(rung: BenchRung | str) -> str:
    """Deterministic sha256 of a rung's canonical JSON definition."""
    if isinstance(rung, str):
        rung = RUNGS[rung]
    canonical = json.dumps(rung.definition(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def _run_once(rung: BenchRung) -> tuple[float, dict, dict]:
    """Execute one rung once; returns (wall seconds, metrics, phase seconds).

    The timer wraps only the run itself — imports, scenario registration
    and session construction stay outside, so the number tracks the
    simulation stack rather than interpreter start-up.  Spans are collected
    during the timed region so every sample attributes its wall-clock to
    pipeline phases; the collection cost is a few dozen events per rung,
    microseconds against rungs measured in hundreds of milliseconds.
    """
    if rung.kind in ("grow", "scaleout"):
        from repro.api import ScaleOutSpec, Session, SimRequest
        from repro.graph import registry

        registry.register_dataset(
            registry.scenario_from_dict(rung.scenario), replace=True
        )
        # force=True bypasses the process-wide run memo, so test reruns in
        # one process measure real executions.
        session = Session(use_cache=False, force=True)
        if rung.kind == "scaleout":
            request = SimRequest(
                dataset=rung.scenario["name"],
                backend="scaleout",
                fabric=ScaleOutSpec(**rung.fabric),
            )
        else:
            request = SimRequest(dataset=rung.scenario["name"], backend="grow")
        with trace.collect() as events:
            started = time.perf_counter()
            result = session.run(request)
            wall = time.perf_counter() - started
        return wall, dict(result.metrics), aggregate_phases(events)

    if rung.kind == "dse":
        from repro.dse import DSERunner

        runner = DSERunner(
            space=rung.dse["space"],
            sampler=rung.dse["sampler"],
            budget=rung.dse["budget"],
            seed=rung.dse["seed"],
            jobs=1,
            use_cache=False,
            results_dir=None,
        )
        with trace.collect() as events:
            started = time.perf_counter()
            report = runner.run()
            wall = time.perf_counter() - started
        metrics = {
            "evaluations": float(len(report.evaluations)),
            "frontier_points": float(len(report.frontier)),
        }
        return wall, metrics, aggregate_phases(events)

    raise ValueError(f"unknown rung kind {rung.kind!r}")


def run_rung(name: str) -> dict:
    """Run one rung once in this process; returns the sample record.

    Peak RSS is the process high-water mark, which belongs to the rung
    alone only when the rung has the process to itself: the driver
    (:mod:`repro.bench.runner`) runs each sample in a fresh worker.
    """
    try:
        rung = RUNGS[name]
    except KeyError:
        raise ValueError(
            f"unknown bench rung {name!r}; choose from {sorted(RUNGS)}"
        ) from None
    wall, metrics, phases = _run_once(rung)
    return {
        "rung": rung.name,
        "kind": rung.kind,
        "description": rung.description,
        "scenario_digest": scenario_digest(rung),
        "wall_seconds": wall,
        "wall_samples": [wall],
        "peak_rss_kb": int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss),
        "metrics": metrics,
        "phases": phases,
    }
