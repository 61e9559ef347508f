"""The check engine: parse once, run rules, apply inline suppressions.

``run_check`` is the programmatic face of ``repro check``: it loads the
scan root into a :class:`~repro.analyze.project.Project` (one parse per
file), runs the selected rules, then filters the findings through the
inline ``# repro: allow(RULE) reason`` suppressions.  The result is a
:class:`CheckReport` with the same schema discipline as the other
machine outputs in this repo (``repro stats --json``): a versioned,
JSON-safe dict the dashboard/ledger tooling can consume later.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.analyze.contracts import DEFAULT_CONFIG, CheckConfig
from repro.analyze.findings import Finding
from repro.analyze.project import Project
from repro.analyze.rules import Rule, select_rules

#: 2: added the ``scope`` key (``--changed`` runs; ``None`` otherwise).
#: 3: dropped the ``baselined`` and ``stale_baseline`` keys.
#: 4: dropped the ``scope`` key with ``--changed``.
REPORT_SCHEMA = 4


@dataclass
class CheckReport:
    """Everything one ``repro check`` run determined.

    ``findings`` are the violations no inline suppression covers — the
    ones that fail the run.
    """

    root: str
    rules: list[str]
    files_scanned: int
    findings: list[Finding] = field(default_factory=list)
    suppressed: list[Finding] = field(default_factory=list)
    reasonless_suppressions: list[dict[str, Any]] = field(default_factory=list)
    parse_errors: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.findings and not self.parse_errors

    def to_dict(self) -> dict[str, Any]:
        return {
            "schema": REPORT_SCHEMA,
            "root": self.root,
            "rules": list(self.rules),
            "files_scanned": self.files_scanned,
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": [f.to_dict() for f in self.suppressed],
            "reasonless_suppressions": list(self.reasonless_suppressions),
            "parse_errors": list(self.parse_errors),
        }


def run_rules(
    project: Project,
    rules: list[Rule],
    config: CheckConfig = DEFAULT_CONFIG,
) -> list[Finding]:
    """All raw findings of ``rules`` over ``project``, sorted."""
    findings: list[Finding] = []
    for rule in rules:
        findings.extend(rule.check(project, config))
    return sorted(findings, key=Finding.sort_key)


def apply_suppressions(
    project: Project, findings: list[Finding]
) -> tuple[list[Finding], list[Finding]]:
    """Partition findings into (kept, suppressed) via inline allow()s."""
    by_rel = {module.rel: module for module in project.modules}
    kept: list[Finding] = []
    suppressed: list[Finding] = []
    for finding in findings:
        module = by_rel.get(finding.path)
        if module is not None and module.suppressions.allows(finding.line, finding.rule):
            suppressed.append(finding)
        else:
            kept.append(finding)
    return kept, suppressed


def run_check(
    root: Path,
    rule_names: list[str] | None = None,
    config: CheckConfig = DEFAULT_CONFIG,
) -> CheckReport:
    """Run the invariant checker over ``root``.

    Raises :class:`~repro.analyze.project.ProjectError` for unusable
    roots, which the CLI turns into an actionable message.  Unknown rule
    selectors raise ``KeyError`` (see
    :func:`repro.analyze.rules.select_rules`).
    """
    project = Project.load(Path(root))
    rules = select_rules(rule_names)
    kept, suppressed = apply_suppressions(project, run_rules(project, rules, config))
    reasonless = [
        {"path": module.rel, "line": line, "comment": comment}
        for module in project.modules
        for line, comment in module.suppressions.missing_reason
    ]
    return CheckReport(
        root=str(project.root),
        rules=[rule.rule_id for rule in rules],
        files_scanned=len(project.modules),
        findings=kept,
        suppressed=suppressed,
        reasonless_suppressions=reasonless,
        parse_errors=list(project.parse_errors),
    )
