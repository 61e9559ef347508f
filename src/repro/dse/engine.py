"""The search engine: generations, parallel evaluation, caching, frontiers.

:class:`DSERunner` is the one entry point behind ``python -m repro dse`` and
the library API.  A search runs in generations: the sampler proposes a batch
of unseen candidates, the engine evaluates them — across one search-long
worker pool via :func:`~repro.api.pool.fan_out` when ``jobs > 1`` — and
appends the outcomes to the history the sampler sees next.  The loop stops
when the evaluation budget is spent or the sampler is exhausted.

Candidate evaluations are cached through the same
:class:`~repro.harness.cache.ResultCache` the experiment suite uses (one
entry per ``(accelerator, candidate, experiment config, code version)``), so
re-running a search — or running a different search over overlapping
candidates — is incremental.  Because samplers are deterministic functions
of ``(space, objectives, seed, history)`` and the engine keeps history in
submission order, serial, parallel and cache-hit re-runs of the same search
produce the identical candidate stream and the identical Pareto frontier.

Results are reported like the suite's: a final non-dominated front rendered
as an :class:`~repro.harness.report.ExperimentResult` and written as
``dse_<space>.{json,md}`` alongside the suite artefacts, so
``python -m repro report dse_<space>`` re-renders it without recomputing.
"""

from __future__ import annotations

import hashlib
import os
import time
import traceback
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

from repro.api.pool import fan_out
from repro.dse.objectives import (
    METRIC_NAMES,
    Evaluation,
    ObjectiveSet,
    candidate_metrics,
    default_objectives,
)
from repro.dse.pareto import pareto_indices
from repro.dse.samplers import Sampler, make_sampler
from repro.dse.space import ParameterSpace, candidate_key, get_space
from repro.harness.cache import ResultCache, config_fingerprint
from repro.harness.config import ExperimentConfig, default_config
from repro.harness.report import ExperimentResult
from repro.obs import get_logger, record_run
from repro.obs import metrics as obs_metrics
from repro.obs import trace

# Search artefacts and cache entries land next to the suite's — sharing the
# suite's constant is what the cache-sharing contract hangs on.
from repro.harness.suite import DEFAULT_RESULTS_DIR

#: Type of the per-generation progress callback:
#: ``progress(generation, evaluations_of_generation, frontier_size_so_far)``.
ProgressFn = Callable[[int, Sequence[Evaluation], int], None]

_log = get_logger("dse.engine")


def _evaluate_candidate(
    accelerator: str, candidate: dict, config: ExperimentConfig
) -> tuple[dict[str, float], float]:
    """Run one candidate; module-level so it pickles into worker processes."""
    start = time.perf_counter()  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
    metrics = candidate_metrics(accelerator, candidate, config)
    return metrics, time.perf_counter() - start  # repro: allow(DET001) wall-time metadata, excluded from byte-identity


@dataclass
class SearchReport:
    """Aggregate outcome of one :meth:`DSERunner.run` invocation."""

    space: ParameterSpace
    objectives: ObjectiveSet
    evaluations: list[Evaluation]
    frontier: list[Evaluation]
    config: ExperimentConfig
    sampler_name: str
    seed: int
    budget: int
    jobs: int
    generations: int = 0
    total_seconds: float = 0.0
    code_version: str = ""

    @property
    def num_ran(self) -> int:
        return sum(1 for e in self.evaluations if e.status == "ran")

    @property
    def num_cached(self) -> int:
        return sum(1 for e in self.evaluations if e.status == "cached")

    @property
    def num_failed(self) -> int:
        return sum(1 for e in self.evaluations if e.status == "failed")

    @property
    def num_infeasible(self) -> int:
        return sum(1 for e in self.evaluations if e.ok and not e.feasible)

    @property
    def ok(self) -> bool:
        """True when every evaluation succeeded (same semantics as SuiteReport.ok)."""
        return all(e.ok for e in self.evaluations)

    def frontier_result(self, name: str | None = None) -> ExperimentResult:
        """The Pareto frontier as a suite-compatible :class:`ExperimentResult`.

        Rows are sorted by objective vector (then candidate identity), so the
        rendering is independent of evaluation order — serial, parallel and
        cached re-runs of the same search produce the identical report.
        """
        objective_names = list(self.objectives.metric_names)
        other_metrics = [m for m in METRIC_NAMES if m not in objective_names]
        result = ExperimentResult(
            name=name or f"dse_{self.space.name}",
            paper_reference="Design-space exploration (generalises Figs. 24-25, Table IV)",
            description=(
                f"Pareto frontier of space '{self.space.name}' ({self.space.accelerator}): "
                + " vs ".join(
                    f"{o.metric} ({o.direction})" for o in self.objectives.objectives
                )
            ),
            columns=["point"]
            + list(self.space.param_names)
            + objective_names
            + other_metrics,
            notes=[
                f"sampler={self.sampler_name} seed={self.seed} budget={self.budget}: "
                f"{len(self.evaluations)} candidates evaluated in {self.generations} "
                f"generation(s); {self.num_infeasible} infeasible, {self.num_failed} failed.",
            ],
            metadata={
                "space": self.space.fingerprint(),
                "objectives": self.objectives.fingerprint(),
                "sampler": self.sampler_name,
                "seed": self.seed,
                "budget": self.budget,
                "generations": self.generations,
                "config": config_fingerprint(self.config),
                "summary": {
                    "ran": self.num_ran,
                    "cached": self.num_cached,
                    "failed": self.num_failed,
                    "infeasible": self.num_infeasible,
                },
                "evaluations": [
                    {
                        "candidate": e.candidate,
                        "metrics": e.metrics,
                        "status": e.status,
                        "feasible": e.feasible,
                        "generation": e.generation,
                    }
                    for e in self.evaluations
                ],
            },
        )
        if self.objectives.constraints:
            result.notes.append(
                "constraints: " + ", ".join(str(c) for c in self.objectives.constraints)
            )
        ordered = sorted(
            self.frontier,
            key=lambda e: (self.objectives.vector(e.metrics), candidate_key(e.candidate)),
        )
        for index, evaluation in enumerate(ordered, start=1):
            result.add_row(point=index, **evaluation.candidate, **evaluation.metrics)
        return result


class DSERunner:
    """Plan and execute one design-space search.

    Args:
        space: a :class:`ParameterSpace` or the name of a registered one.
        sampler: a :class:`~repro.dse.samplers.Sampler` or a registry name
            (``"grid"``, ``"random"``, ``"evolutionary"``).
        config: experiment configuration the candidates are evaluated under
            (:func:`~repro.harness.config.default_config` when omitted).
        objectives: what to optimise/filter; cycles-vs-area when omitted.
        budget: maximum number of candidate evaluations.
        jobs: worker processes per generation; ``1`` runs serially
            in-process, ``0`` uses one worker per CPU.
        seed: sampler seed — same seed, same candidate stream.
        cache: evaluation cache; built under ``results_dir / "cache"``
            (shared with the suite) when omitted and ``use_cache`` is True.
        use_cache: disable to always recompute and never read/write entries.
        force: recompute even on a cache hit (fresh results are re-cached).
        results_dir: where ``dse_<space>.{json,md}`` reports are written;
            ``None`` skips report files.
    """

    def __init__(
        self,
        space: ParameterSpace | str,
        sampler: Sampler | str = "evolutionary",
        config: ExperimentConfig | None = None,
        objectives: ObjectiveSet | None = None,
        budget: int = 32,
        jobs: int = 1,
        seed: int = 0,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        force: bool = False,
        results_dir: str | Path | None = DEFAULT_RESULTS_DIR,
    ):
        self.space = get_space(space) if isinstance(space, str) else space
        self.sampler = make_sampler(sampler) if isinstance(sampler, str) else sampler
        self.config = config if config is not None else default_config()
        self.objectives = objectives if objectives is not None else default_objectives()
        if budget < 1:
            raise ValueError("budget must be at least 1")
        self.budget = budget
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        self.seed = seed
        self.results_dir = Path(results_dir) if results_dir is not None else None
        self.force_recompute = force
        self.cache = ResultCache.resolve(cache, use_cache, self.results_dir)

    # -- caching -----------------------------------------------------------

    def _entry_name(self, candidate: dict) -> str:
        """Cache entry name of one candidate (space-independent, so searches
        over overlapping candidates share evaluations)."""
        digest = hashlib.sha256(candidate_key(candidate).encode()).hexdigest()[:12]
        return f"dse-{self.space.accelerator}-{digest}"

    def _cached_metrics(self, candidate: dict) -> dict[str, float] | None:
        if self.cache is None or self.force_recompute:
            return None
        entry = self.cache.get(self._entry_name(candidate), self.config)
        if entry is None or entry.metadata.get("candidate") != candidate:
            return None
        metrics = entry.metadata.get("metrics")
        return dict(metrics) if metrics else None

    def _store_metrics(
        self, candidate: dict, metrics: dict[str, float], seconds: float
    ) -> None:
        if self.cache is None:
            return
        entry_name = self._entry_name(candidate)
        result = ExperimentResult(
            name=entry_name,
            paper_reference="DSE candidate evaluation",
            description=f"metrics of one {self.space.accelerator} candidate",
            columns=list(candidate) + list(METRIC_NAMES),
            rows=[{**candidate, **metrics}],
            metadata={"candidate": candidate, "metrics": metrics},
        )
        self.cache.put(entry_name, self.config, result, seconds)

    # -- evaluation --------------------------------------------------------

    def _finish(
        self,
        candidate: dict,
        metrics: dict[str, float],
        status: str,
        generation: int,
        seconds: float,
    ) -> Evaluation:
        violations = self.objectives.violations(metrics)
        return Evaluation(
            candidate=candidate,
            metrics=metrics,
            feasible=not violations,
            violations=violations,
            status=status,
            generation=generation,
            seconds=seconds,
        )

    def _evaluate_generation(
        self,
        batch: list[dict],
        generation: int,
        pool: ProcessPoolExecutor | None,
    ) -> list[Evaluation]:
        """Evaluate one batch, preserving submission order in the output."""
        slots: list[Evaluation | None] = [None] * len(batch)
        to_run: list[int] = []
        for index, candidate in enumerate(batch):
            try:
                self.space.validate(candidate)
            except ValueError:
                slots[index] = Evaluation(
                    candidate=candidate,
                    status="failed",
                    error=traceback.format_exc(),
                    generation=generation,
                )
                continue
            cached = self._cached_metrics(candidate)
            if cached is not None:
                slots[index] = self._finish(candidate, cached, "cached", generation, 0.0)
            else:
                to_run.append(index)

        tasks = [(self.space.accelerator, batch[i], self.config) for i in to_run]
        for position, outcome, error in fan_out(_evaluate_candidate, tasks, self.jobs, pool):
            index = to_run[position]
            if error is not None:
                slots[index] = Evaluation(
                    candidate=batch[index],
                    status="failed",
                    error="".join(traceback.format_exception(error)),
                    generation=generation,
                )
            else:
                metrics, seconds = outcome
                self._store_metrics(batch[index], metrics, seconds)
                slots[index] = self._finish(batch[index], metrics, "ran", generation, seconds)
        for evaluation in slots:
            obs_metrics.inc(f"dse.{evaluation.status}")
        return slots  # every slot is filled by construction

    def _frontier(self, evaluations: Sequence[Evaluation]) -> list[Evaluation]:
        pool = [e for e in evaluations if e.ok and e.feasible]
        vectors = [self.objectives.vector(e.metrics) for e in pool]
        return [pool[i] for i in pareto_indices(vectors, self.objectives.directions)]

    # -- the search loop ---------------------------------------------------

    def run(self, progress: ProgressFn | None = None) -> SearchReport:
        """Execute the search; returns the aggregate report.

        Args:
            progress: optional per-generation callback, invoked with the
                generation number, that generation's evaluations, and the
                size of the frontier over everything evaluated so far.
        """
        start = time.perf_counter()  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
        self.sampler.reset(self.space, self.objectives, self.seed)
        evaluations: list[Evaluation] = []
        generation = 0
        # One pool for the whole search: worker processes memoise workload
        # bundles, so keeping them alive across generations avoids rebuilding
        # the datasets/models/plans every generation.
        pool = ProcessPoolExecutor(max_workers=self.jobs) if self.jobs > 1 else None
        try:
            while len(evaluations) < self.budget:
                batch = self.sampler.ask(evaluations)[: self.budget - len(evaluations)]
                if not batch:
                    break
                generation += 1
                with trace.span(
                    "dse.generation",
                    space=self.space.name,
                    generation=generation,
                    candidates=len(batch),
                ):
                    outcomes = self._evaluate_generation(batch, generation, pool)
                evaluations.extend(outcomes)
                _log.debug(
                    "generation %d: %d candidates, %d evaluated so far",
                    generation,
                    len(batch),
                    len(evaluations),
                )
                if progress:
                    progress(generation, outcomes, len(self._frontier(evaluations)))
        finally:
            if pool is not None:
                pool.shutdown()

        report = SearchReport(
            space=self.space,
            objectives=self.objectives,
            evaluations=evaluations,
            frontier=self._frontier(evaluations),
            config=self.config,
            sampler_name=getattr(self.sampler, "name", type(self.sampler).__name__),
            seed=self.seed,
            budget=self.budget,
            jobs=self.jobs,
            generations=generation,
            total_seconds=time.perf_counter() - start,  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
            code_version=self.cache.code_version if self.cache is not None else "",
        )
        record_run(
            "dse",
            f"dse:{self.space.name}",
            outcome="ok" if report.ok else "failed",
            wall_seconds=report.total_seconds,
            metrics={
                "evaluations": len(report.evaluations),
                "ran": report.num_ran,
                "cached": report.num_cached,
                "failed": report.num_failed,
                "frontier_points": len(report.frontier),
            },
            sampler=report.sampler_name,
            seed=self.seed,
        )
        if self.results_dir is not None:
            self.write_reports(report)
        return report

    def write_reports(self, report: SearchReport) -> list[Path]:
        """Write ``dse_<space>.{json,md}`` next to the suite's artefacts."""
        self.results_dir.mkdir(parents=True, exist_ok=True)
        result = report.frontier_result()
        json_path = self.results_dir / f"{result.name}.json"
        md_path = self.results_dir / f"{result.name}.md"
        json_path.write_text(result.to_json() + "\n")
        md_path.write_text(result.to_markdown() + "\n")
        return [json_path, md_path]


def run_search(
    space: ParameterSpace | str,
    sampler: Sampler | str = "evolutionary",
    config: ExperimentConfig | None = None,
    **kwargs,
) -> SearchReport:
    """Convenience wrapper: build a :class:`DSERunner` and run it."""
    return DSERunner(space=space, sampler=sampler, config=config, **kwargs).run()
