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
jsonschema dependency to validate against the official schema, so the
tests re-state the structural subset of SARIF 2.1.0 this writer can
produce — required properties, types, level/kind enums — and assert every
emitted document passes it.
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
    """Write the SARIF document for ``report`` to ``path``."""
    document = sarif_report(report, rules)
    Path(path).write_text(
        json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )

