"""Findings: what a rule reports when an invariant is violated.

A :class:`Finding` is one violation at one source location.  Findings are
value objects with a deterministic sort order (path, line, rule id) and a
JSON-safe dict form (the ``repro check --json`` payload).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping


@dataclass(frozen=True)
class Finding:
    """One invariant violation at one source location.

    Attributes:
        rule: rule id (``LAY001``, ``DET002``, ...).
        path: file path relative to the scan root, POSIX separators.
        line: 1-based line number the violation anchors to.
        message: one-line human-readable statement of the violation.
    """

    rule: str
    path: str
    line: int
    message: str

    def sort_key(self) -> tuple[str, int, str, str]:
        return (self.path, self.line, self.rule, self.message)

    def to_dict(self) -> dict[str, Any]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Finding":
        return cls(
            rule=str(data["rule"]),
            path=str(data["path"]),
            line=int(data["line"]),
            message=str(data["message"]),
        )

    def render(self) -> str:
        return f"{self.path}:{self.line}: {self.rule} {self.message}"
