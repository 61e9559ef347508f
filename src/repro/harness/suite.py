"""Suite orchestration: run many experiments in parallel, incrementally.

:class:`SuiteRunner` is the one entry point behind ``python -m repro suite``
and the benchmark harness.  For each requested experiment it either

* serves the result from the on-disk :class:`~repro.harness.cache.ResultCache`
  (same config, same code version), or
* executes the experiment — across worker processes via
  :func:`~repro.api.pool.fan_out` when ``jobs > 1`` — and stores the result
  back into the cache.

Experiments are independent of each other by construction (each one builds
its workload bundles from the experiment config and a seed), which is what
makes the parallel fan-out safe: serial and parallel runs produce identical
results.  The runner finishes by writing structured reports — one JSON and
one Markdown file per experiment plus a combined ``suite_report.{json,md}`` —
into the results directory.
"""

from __future__ import annotations

import json
import os
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.api.pool import fan_out, runs_inline
from repro.harness.cache import ResultCache, config_fingerprint
from repro.harness.config import ExperimentConfig, default_config
from repro.harness.registry import get_experiment, list_experiments
from repro.harness.report import ExperimentResult, format_markdown_table, json_default
from repro.obs import get_logger, metrics, record_run, trace

_log = get_logger("harness.suite")

#: Default location (relative to the working directory) for suite artefacts.
DEFAULT_RESULTS_DIR = Path("benchmarks") / "results"


@dataclass
class SuiteOutcome:
    """What happened to one experiment of a suite run.

    Attributes:
        name: experiment id.
        status: ``"ran"`` (computed this run), ``"cached"`` (served from the
            result cache) or ``"failed"``.
        seconds: wall-clock execution time (0.0 for cache hits).
        result: the experiment result; ``None`` when the experiment failed.
        error: formatted traceback when the experiment failed.
    """

    name: str
    status: str
    seconds: float = 0.0
    result: ExperimentResult | None = None
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("ran", "cached")


@dataclass
class SuiteReport:
    """Aggregate outcome of one :meth:`SuiteRunner.run` invocation."""

    outcomes: list[SuiteOutcome]
    config: ExperimentConfig
    jobs: int
    total_seconds: float = 0.0
    code_version: str = ""

    def outcome(self, name: str) -> SuiteOutcome:
        """The outcome of one experiment (KeyError if it was not in the run)."""
        for outcome in self.outcomes:
            if outcome.name == name:
                return outcome
        raise KeyError(f"experiment {name!r} was not part of this suite run")

    def result(self, name: str) -> ExperimentResult:
        """The result of one experiment (raises if it failed or is missing)."""
        outcome = self.outcome(name)
        if outcome.result is None:
            raise RuntimeError(f"experiment {name!r} failed:\n{outcome.error}")
        return outcome.result

    @property
    def ok(self) -> bool:
        """True when every experiment of the run succeeded."""
        return all(outcome.ok for outcome in self.outcomes)

    @property
    def num_cached(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "cached")

    @property
    def num_ran(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "ran")

    @property
    def num_failed(self) -> int:
        return sum(1 for o in self.outcomes if o.status == "failed")

    def to_dict(self) -> dict[str, Any]:
        """Machine-readable form written to ``suite_report.json``."""
        return {
            "jobs": self.jobs,
            "total_seconds": self.total_seconds,
            "code_version": self.code_version,
            "config": config_fingerprint(self.config),
            "summary": {
                "ran": self.num_ran,
                "cached": self.num_cached,
                "failed": self.num_failed,
            },
            "experiments": [
                {
                    "name": o.name,
                    "status": o.status,
                    "seconds": o.seconds,
                    "error": o.error,
                }
                for o in self.outcomes
            ],
        }

    def to_markdown(self) -> str:
        """Human-readable summary written to ``suite_report.md``."""
        rows = [
            {
                "experiment": o.name,
                "paper reference": o.result.paper_reference if o.result else "-",
                "status": o.status,
                "seconds": round(o.seconds, 2),
            }
            for o in self.outcomes
        ]
        lines = [
            "# Experiment suite report",
            "",
            f"{len(self.outcomes)} experiments — {self.num_ran} ran, "
            f"{self.num_cached} from cache, {self.num_failed} failed — "
            f"in {self.total_seconds:.1f}s with {self.jobs} job(s), "
            f"code version `{self.code_version}`.",
            "",
            format_markdown_table(["experiment", "paper reference", "status", "seconds"], rows),
        ]
        for outcome in self.outcomes:
            if outcome.error:
                lines += ["", f"## {outcome.name} (failed)", "", "```", outcome.error, "```"]
        return "\n".join(lines)


def _execute_experiment(name: str, config: ExperimentConfig) -> tuple[dict, float]:
    """Run one experiment; module-level so it pickles into worker processes.

    Inline, the ``suite.experiment`` span nests under ``suite.run``; a pool
    worker's span stays in the worker and the parent rebuilds it.
    """
    with trace.span("suite.experiment", experiment=name):
        start = time.perf_counter()  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
        result = get_experiment(name)(config)
        return result.to_dict(), time.perf_counter() - start  # repro: allow(DET001) wall-time metadata, excluded from byte-identity


class SuiteRunner:
    """Plan and execute a set of experiments with caching and parallelism.

    Args:
        config: experiment configuration shared by the whole suite
            (:func:`~repro.harness.config.default_config` when omitted).
        experiments: experiment names to run; all registered experiments
            when omitted.
        jobs: worker processes; ``1`` runs serially in-process, ``0`` uses
            one worker per CPU.
        cache: result cache; built under ``results_dir / "cache"`` when
            omitted (see :meth:`ResultCache.resolve`: caching is disabled
            when ``results_dir`` is also None, so nothing is written
            implicitly).
        use_cache: disable to always recompute and never read/write entries.
        force: recompute even on a cache hit (fresh results are re-cached).
        results_dir: where reports are written; ``None`` skips report files.
    """

    def __init__(
        self,
        config: ExperimentConfig | None = None,
        experiments: Sequence[str] | None = None,
        jobs: int = 1,
        cache: ResultCache | None = None,
        use_cache: bool = True,
        force: bool = False,
        results_dir: str | Path | None = DEFAULT_RESULTS_DIR,
    ):
        self.config = config if config is not None else default_config()
        known = list_experiments()
        self.experiments = list(experiments) if experiments is not None else known
        unknown = [name for name in self.experiments if name not in set(known)]
        if unknown:
            raise KeyError(f"unknown experiments {unknown}; known: {known}")
        self.jobs = jobs if jobs > 0 else (os.cpu_count() or 1)
        self.results_dir = Path(results_dir) if results_dir is not None else None
        self.force_recompute = force
        self.cache = ResultCache.resolve(cache, use_cache, self.results_dir)

    def run(self, progress: Callable[[SuiteOutcome], None] | None = None) -> SuiteReport:
        """Execute the suite; returns the aggregate report.

        Args:
            progress: optional callback invoked with each
                :class:`SuiteOutcome` as soon as it is known (cache hits
                first, then computed experiments in completion order).
        """
        start = time.perf_counter()  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
        outcomes: dict[str, SuiteOutcome] = {}
        pending: list[str] = []

        with trace.span(
            "suite.run", experiments=len(self.experiments), jobs=self.jobs
        ):
            for name in self.experiments:
                cached = None
                if self.cache is not None and not self.force_recompute:
                    cached = self.cache.get(name, config_fingerprint(self.config))
                if cached is not None:
                    outcomes[name] = SuiteOutcome(
                        name=name, status="cached", result=ExperimentResult.from_dict(cached)
                    )
                    metrics.inc("suite.cached")
                    record_run("suite", name, outcome="cached")
                    if progress:
                        progress(outcomes[name])
                else:
                    pending.append(name)

            self._execute(pending, outcomes, progress)

        report = SuiteReport(
            outcomes=[outcomes[name] for name in self.experiments],
            config=self.config,
            jobs=self.jobs,
            total_seconds=time.perf_counter() - start,  # repro: allow(DET001) wall-time metadata, excluded from byte-identity
            code_version=self.cache.code_version if self.cache is not None else "",
        )
        _log.info(
            "suite finished: %d ran, %d cached, %d failed in %.1fs",
            report.num_ran,
            report.num_cached,
            report.num_failed,
            report.total_seconds,
        )
        if self.results_dir is not None:
            self.write_reports(report)
        return report

    def _record(
        self,
        outcomes: dict[str, SuiteOutcome],
        outcome: SuiteOutcome,
        progress: Callable[[SuiteOutcome], None] | None,
    ) -> None:
        outcomes[outcome.name] = outcome
        metrics.inc(f"suite.{outcome.status}")
        record_run(
            "suite",
            outcome.name,
            outcome=outcome.status,
            wall_seconds=outcome.seconds,
        )
        if outcome.status == "failed":
            _log.warning("experiment %s failed", outcome.name)
        if outcome.status == "ran" and self.cache is not None:
            self.cache.put(
                outcome.name, config_fingerprint(self.config), outcome.result.to_dict()
            )
        if progress:
            progress(outcome)

    def _execute(self, pending, outcomes, progress) -> None:
        tasks = [(name, self.config) for name in pending]
        in_workers = not runs_inline(tasks, self.jobs)
        for index, value, error in fan_out(_execute_experiment, tasks, self.jobs):
            name = pending[index]
            if error is not None:
                formatted = "".join(traceback.format_exception(error))
                outcome = SuiteOutcome(name=name, status="failed", error=formatted)
            else:
                result_dict, elapsed = value
                outcome = SuiteOutcome(
                    name=name,
                    status="ran",
                    seconds=elapsed,
                    result=ExperimentResult.from_dict(result_dict),
                )
                if in_workers and trace.enabled:
                    # Suite workers don't ship spans home; reconstruct
                    # the per-experiment span parent-side from the
                    # worker's own elapsed measurement.
                    self._ingest_experiment_span(name, elapsed)
            self._record(outcomes, outcome, progress)

    @staticmethod
    def _ingest_experiment_span(name: str, elapsed: float) -> None:
        import threading

        trace.ingest(
            [
                {
                    "name": "suite.experiment",
                    "ts_us": time.time_ns() // 1_000 - int(elapsed * 1e6),  # repro: allow(DET001) trace timestamps are presentation metadata
                    "dur_us": elapsed * 1e6,
                    "pid": os.getpid(),
                    "tid": threading.get_ident(),
                    "depth": 1,
                    "parent": "suite.run",
                    "args": {"experiment": name},
                }
            ]
        )

    def write_reports(self, report: SuiteReport) -> None:
        """Write per-experiment JSON/Markdown files plus the combined report."""
        self.results_dir.mkdir(parents=True, exist_ok=True)
        for outcome in report.outcomes:
            if outcome.result is not None:
                outcome.result.write(self.results_dir)
        (self.results_dir / "suite_report.json").write_text(
            json.dumps(report.to_dict(), indent=2, default=json_default) + "\n"
        )
        (self.results_dir / "suite_report.md").write_text(report.to_markdown() + "\n")
