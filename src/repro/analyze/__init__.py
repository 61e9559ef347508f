"""``repro.analyze`` — the stdlib-only invariant checker behind ``repro check``.

This package turns the contracts that docs/architecture.md states in
prose — layering, determinism, cache identity, pool safety, exception
hygiene — into mechanical rules over the ``ast`` of the source tree.
It deliberately imports nothing outside the standard library and nothing
from the rest of ``repro``, so the checker runs (and CI can gate) even
in an environment without the simulation stack's dependencies.

Programmatic entry point::

    from repro.analyze import run_check
    report = run_check(Path("src/repro"))
    assert report.ok, [f.render() for f in report.findings]

CLI: ``python -m repro check`` (see :mod:`repro.analyze.cli`).
"""

from __future__ import annotations

from repro.analyze.contracts import DEFAULT_CONFIG, CheckConfig
from repro.analyze.engine import (
    REPORT_SCHEMA,
    CheckReport,
    apply_suppressions,
    run_check,
    run_rules,
)
from repro.analyze.findings import Finding
from repro.analyze.project import Project, ProjectError
from repro.analyze.rules import RULES, Rule, families, rule_ids, select_rules

# After the rule families: callgraph shares alias-resolution helpers with
# rules.determinism, so the rules package must finish importing first
# (rules.concurrency imports callgraph).
from repro.analyze.callgraph import (  # noqa: E402
    CallGraph,
    FunctionInfo,
    graph_for,
    pool_entry_points,
)

__all__ = [
    "CallGraph",
    "CheckConfig",
    "CheckReport",
    "DEFAULT_CONFIG",
    "Finding",
    "FunctionInfo",
    "Project",
    "ProjectError",
    "REPORT_SCHEMA",
    "RULES",
    "Rule",
    "apply_suppressions",
    "families",
    "graph_for",
    "pool_entry_points",
    "rule_ids",
    "run_check",
    "run_rules",
    "select_rules",
]
