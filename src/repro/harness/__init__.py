"""Experiment harness: regenerates every table and figure of the paper.

Every experiment is a named function registered in
:mod:`repro.harness.experiments`; ``run_experiment(name)`` executes it over
the synthetic dataset suite and returns an :class:`ExperimentResult` whose
rows mirror the paper's table/figure series.

Single experiments::

    from repro.harness import run_experiment, list_experiments
    print(list_experiments())
    print(run_experiment("fig20_speedup").to_table())

Whole suites — parallel, incremental (disk-cached), with JSON/Markdown
reports (the engine behind ``python -m repro suite``)::

    from repro.harness import SuiteRunner
    report = SuiteRunner(jobs=4).run()
    print(report.result("fig20_speedup").to_markdown())

Public API surface:

* configuration — :class:`ExperimentConfig`, :func:`default_config`,
  :func:`smoke_config`
* registry — :func:`list_experiments`, :func:`get_experiment`,
  :func:`run_experiment`, :func:`experiment_summary`
* results and reports — :class:`ExperimentResult`, :func:`format_table`,
  :func:`format_markdown_table`
* orchestration — :class:`SuiteRunner`, :class:`SuiteReport`,
  :class:`SuiteOutcome`, :class:`ResultCache`
* workload construction — :class:`WorkloadBundle`, :func:`get_bundle`,
  :func:`clear_caches`
"""

from repro.harness.config import ExperimentConfig, default_config, smoke_config
from repro.harness.report import (
    ExperimentResult,
    format_markdown_table,
    format_table,
)
from repro.harness.registry import (
    experiment_summary,
    get_experiment,
    list_experiments,
    run_experiment,
)
from repro.harness.cache import ResultCache, source_tree_version
from repro.harness.suite import SuiteOutcome, SuiteReport, SuiteRunner
from repro.harness import experiments as _experiments  # noqa: F401  (registers experiments)
from repro.harness import discussion as _discussion  # noqa: F401  (registers Section VIII studies)
from repro.harness.workloads import WorkloadBundle, clear_caches, get_bundle
from repro import dse as _dse  # noqa: F401  (registers DSE spaces + the frontier experiment)

__all__ = [
    "ExperimentConfig",
    "default_config",
    "smoke_config",
    "ExperimentResult",
    "format_table",
    "format_markdown_table",
    "list_experiments",
    "run_experiment",
    "get_experiment",
    "experiment_summary",
    "ResultCache",
    "source_tree_version",
    "SuiteRunner",
    "SuiteReport",
    "SuiteOutcome",
    "WorkloadBundle",
    "get_bundle",
    "clear_caches",
]
