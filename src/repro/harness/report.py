"""Experiment result container and structured report formatting.

An :class:`ExperimentResult` can render itself three ways:

* :meth:`ExperimentResult.to_table` — fixed-width text, used by the CLI's
  ``run`` command for terminal output.
* :meth:`ExperimentResult.to_markdown` — a GitHub-flavoured Markdown section,
  used for the per-experiment and suite reports under ``benchmarks/results/``
  (:meth:`ExperimentResult.write` writes both files of one result).
* :meth:`ExperimentResult.to_json` / :meth:`ExperimentResult.from_dict` — a
  lossless machine-readable form, used by the on-disk result cache and the
  ``report`` command.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any


def json_default(value: Any) -> Any:
    """``json.dumps`` fallback for numpy scalars and arrays in result rows."""
    if hasattr(value, "item") and callable(value.item):  # numpy scalar
        return value.item()
    if hasattr(value, "tolist") and callable(value.tolist):  # numpy array
        return value.tolist()
    raise TypeError(f"object of type {type(value).__name__} is not JSON serializable")


def _format_value(value: Any) -> str:
    """Human-readable rendering of a cell value."""
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 0.01:
            return f"{value:.2e}"
        return f"{value:.3f}".rstrip("0").rstrip(".")
    return str(value)


def format_table(columns: list[str], rows: list[dict[str, Any]]) -> str:
    """Render rows as a fixed-width text table with the given column order."""
    rendered = [[_format_value(row.get(col, "")) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(r[i]) for r in rendered)) if rendered else len(col)
        for i, col in enumerate(columns)
    ]
    def line(cells: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    header = line(columns)
    separator = "  ".join("-" * width for width in widths)
    body = [line(r) for r in rendered]
    return "\n".join([header, separator, *body])


def format_markdown_table(columns: list[str], rows: list[dict[str, Any]]) -> str:
    """Render rows as a GitHub-flavoured Markdown table."""
    header = "| " + " | ".join(columns) + " |"
    separator = "| " + " | ".join("---" for _ in columns) + " |"
    body = [
        "| " + " | ".join(_format_value(row.get(col, "")) for col in columns) + " |"
        for row in rows
    ]
    return "\n".join([header, separator, *body])


@dataclass
class ExperimentResult:
    """Result of one experiment: the rows that mirror a paper table/figure.

    Attributes:
        name: experiment id (e.g. ``"fig20_speedup"``).
        paper_reference: the table/figure of the paper being regenerated.
        description: one-line description of what the rows contain.
        columns: column names, in display order.
        rows: one dict per row (typically one per dataset).
        notes: free-form remarks (e.g. which quantity is normalised to what).
        metadata: machine-readable extras (config used, seeds, ...).
    """

    name: str
    paper_reference: str
    description: str
    columns: list[str]
    rows: list[dict[str, Any]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)
    metadata: dict[str, Any] = field(default_factory=dict)

    def add_row(self, **values: Any) -> None:
        """Append one row; unknown columns are added to the column list."""
        for key in values:
            if key not in self.columns:
                self.columns.append(key)
        self.rows.append(values)

    def column(self, name: str) -> list[Any]:
        """All values of one column, in row order."""
        return [row.get(name) for row in self.rows]

    def row_for(self, key_column: str, key: Any) -> dict[str, Any]:
        """The first row whose ``key_column`` equals ``key``."""
        for row in self.rows:
            if row.get(key_column) == key:
                return row
        raise KeyError(f"no row with {key_column} == {key!r}")

    def to_table(self) -> str:
        """Render the result as a printable text report."""
        lines = [
            f"{self.name}  ({self.paper_reference})",
            self.description,
            "",
            format_table(self.columns, self.rows),
        ]
        if self.notes:
            lines.append("")
            lines.extend(f"note: {note}" for note in self.notes)
        return "\n".join(lines)

    def to_markdown(self) -> str:
        """Render the result as a Markdown section (heading, table, notes)."""
        lines = [
            f"## {self.name} ({self.paper_reference})",
            "",
            self.description + ".",
            "",
            format_markdown_table(self.columns, self.rows),
        ]
        if self.notes:
            lines.append("")
            lines.extend(f"> {note}" for note in self.notes)
        return "\n".join(lines)

    def to_dict(self) -> dict[str, Any]:
        """Plain-dict form, convenient for JSON dumps in scripts."""
        return {
            "name": self.name,
            "paper_reference": self.paper_reference,
            "description": self.description,
            "columns": list(self.columns),
            "rows": [dict(row) for row in self.rows],
            "notes": list(self.notes),
            "metadata": dict(self.metadata),
        }

    def to_json(self, indent: int | None = 2) -> str:
        """JSON form of :meth:`to_dict` (numpy values coerced to native types)."""
        return json.dumps(self.to_dict(), indent=indent, default=json_default)

    def write(self, directory: Path | str) -> None:
        """Write ``<name>.json`` and ``<name>.md`` into ``directory`` (created)."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        (directory / f"{self.name}.json").write_text(self.to_json() + "\n")
        (directory / f"{self.name}.md").write_text(self.to_markdown() + "\n")

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ExperimentResult":
        """Rebuild a result from its :meth:`to_dict` / :meth:`to_json` form."""
        return cls(
            name=data["name"],
            paper_reference=data["paper_reference"],
            description=data["description"],
            columns=list(data.get("columns", [])),
            rows=[dict(row) for row in data.get("rows", [])],
            notes=list(data.get("notes", [])),
            metadata=dict(data.get("metadata", {})),
        )
