"""SARIF 2.1.0 export for ``repro check`` (``--sarif FILE``).

SARIF (Static Analysis Results Interchange Format, OASIS) is the
interchange format code-scanning UIs ingest — GitHub code scanning
annotates PR diffs directly from an uploaded SARIF file.  This module
renders a :class:`~repro.analyze.engine.CheckReport` as one SARIF run:

* every registered rule becomes a ``tool.driver.rules`` entry (id,
  summary, the architecture.md contract it enforces);
* unsuppressed findings become ``error``-level results;
* suppressed findings are exported too, carrying an ``inSource`` SARIF
  ``suppressions`` entry (they were silenced by an inline
  ``# repro: allow``) so scanners show them as resolved rather than
  silently dropping them;
* parse errors become tool-execution notifications on the invocation.

Like the rest of ``repro.analyze`` this is stdlib-only.  There is no
jsonschema dependency to validate against the official schema, so
:func:`validate_sarif` re-states the structural subset of SARIF 2.1.0
this writer can produce — required properties, types, level/kind enums —
and the tests assert every emitted document passes it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analyze.engine import CheckReport
    from repro.analyze.rules.base import Rule

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA_URI = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)
_TOOL_NAME = "repro-check"

_LEVELS = frozenset({"none", "note", "warning", "error"})
_SUPPRESSION_KINDS = frozenset({"inSource"})


def _result(
    finding, level: str, suppression_kind: str | None = None
) -> dict[str, Any]:
    result: dict[str, Any] = {
        "ruleId": finding.rule,
        "level": level,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {"uri": finding.path},
                    "region": {"startLine": finding.line},
                }
            }
        ],
    }
    if suppression_kind is not None:
        result["suppressions"] = [{"kind": suppression_kind}]
    return result


def sarif_report(report: "CheckReport", rules: list["Rule"]) -> dict[str, Any]:
    """The SARIF 2.1.0 document for one check run, as a JSON-safe dict."""
    driver_rules = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.summary},
            "fullDescription": {"text": f"contract: {rule.contract}"},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rules
    ]
    results = [_result(f, "error") for f in report.findings]
    results += [_result(f, "note", "inSource") for f in report.suppressed]
    invocation: dict[str, Any] = {
        "executionSuccessful": not report.parse_errors,
    }
    if report.parse_errors:
        invocation["toolExecutionNotifications"] = [
            {"level": "error", "message": {"text": error}}
            for error in report.parse_errors
        ]
    return {
        "$schema": SARIF_SCHEMA_URI,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "informationUri": "docs/architecture.md",
                        "rules": driver_rules,
                    }
                },
                "invocations": [invocation],
                "results": results,
            }
        ],
    }


def write_sarif(path: Path, report: "CheckReport", rules: list["Rule"]) -> None:
    """Validate and write the SARIF document for ``report`` to ``path``."""
    document = sarif_report(report, rules)
    problems = validate_sarif(document)
    if problems:  # pragma: no cover - writer/validator drift is a bug
        raise ValueError("invalid SARIF produced: " + "; ".join(problems))
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )


# -- structural validation -------------------------------------------------


def _check(condition: bool, problems: list[str], message: str) -> bool:
    if not condition:
        problems.append(message)
    return condition


def validate_sarif(document: Any) -> list[str]:
    """Structural problems of ``document`` against the SARIF 2.1.0 subset
    this module emits; empty means valid.

    Covers the properties the spec marks required (``version``, ``runs``,
    ``tool.driver.name``, ``message.text`` on every result, region line
    numbers >= 1) plus the enums (result ``level``, suppression ``kind``)
    and the rule-id cross-reference: every result's ``ruleId`` must be
    declared by the driver.
    """
    problems: list[str] = []
    if not _check(isinstance(document, dict), problems, "document is not an object"):
        return problems
    _check(
        document.get("version") == SARIF_VERSION,
        problems,
        f"version must be {SARIF_VERSION!r}",
    )
    runs = document.get("runs")
    if not _check(isinstance(runs, list) and runs, problems, "runs must be a non-empty array"):
        return problems
    for run_index, run in enumerate(runs):
        where = f"runs[{run_index}]"
        if not _check(isinstance(run, dict), problems, f"{where} is not an object"):
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(run.get("tool"), dict) else None
        if not _check(
            isinstance(driver, dict), problems, f"{where}.tool.driver missing"
        ):
            continue
        _check(
            isinstance(driver.get("name"), str) and driver["name"],
            problems,
            f"{where}.tool.driver.name must be a non-empty string",
        )
        rule_ids = set()
        for rule_index, rule in enumerate(driver.get("rules", [])):
            rwhere = f"{where}.tool.driver.rules[{rule_index}]"
            if not _check(isinstance(rule, dict), problems, f"{rwhere} is not an object"):
                continue
            if _check(isinstance(rule.get("id"), str), problems, f"{rwhere}.id missing"):
                rule_ids.add(rule["id"])
            short = rule.get("shortDescription")
            _check(
                isinstance(short, dict) and isinstance(short.get("text"), str),
                problems,
                f"{rwhere}.shortDescription.text missing",
            )
        results = run.get("results")
        if not _check(isinstance(results, list), problems, f"{where}.results must be an array"):
            continue
        for result_index, result in enumerate(results):
            swhere = f"{where}.results[{result_index}]"
            if not _check(isinstance(result, dict), problems, f"{swhere} is not an object"):
                continue
            _check(
                isinstance(result.get("ruleId"), str)
                and (not rule_ids or result["ruleId"] in rule_ids),
                problems,
                f"{swhere}.ruleId missing or not declared by the driver",
            )
            _check(
                result.get("level") in _LEVELS,
                problems,
                f"{swhere}.level must be one of {sorted(_LEVELS)}",
            )
            message = result.get("message")
            _check(
                isinstance(message, dict) and isinstance(message.get("text"), str),
                problems,
                f"{swhere}.message.text missing",
            )
            for loc_index, location in enumerate(result.get("locations", [])):
                lwhere = f"{swhere}.locations[{loc_index}]"
                physical = (
                    location.get("physicalLocation")
                    if isinstance(location, dict)
                    else None
                )
                if not _check(
                    isinstance(physical, dict),
                    problems,
                    f"{lwhere}.physicalLocation missing",
                ):
                    continue
                artifact = physical.get("artifactLocation")
                _check(
                    isinstance(artifact, dict) and isinstance(artifact.get("uri"), str),
                    problems,
                    f"{lwhere}.physicalLocation.artifactLocation.uri missing",
                )
                region = physical.get("region")
                if region is not None:
                    _check(
                        isinstance(region, dict)
                        and isinstance(region.get("startLine"), int)
                        and region["startLine"] >= 1,
                        problems,
                        f"{lwhere}.physicalLocation.region.startLine must be >= 1",
                    )
            for sup_index, suppression in enumerate(result.get("suppressions", [])):
                _check(
                    isinstance(suppression, dict)
                    and suppression.get("kind") in _SUPPRESSION_KINDS,
                    problems,
                    f"{swhere}.suppressions[{sup_index}].kind must be one of "
                    f"{sorted(_SUPPRESSION_KINDS)}",
                )
    return problems
