"""``BENCH_<n>.json`` — the schema, numbering and validation.

Documents are append-only: each emitted file gets the next free number in
the directory, so the sequence ``BENCH_0.json, BENCH_1.json, ...`` is the
repository's performance history in commit order.  The schema is
versioned; loaders refuse documents from a different schema generation
instead of misreading them.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from repro.obs.ledger import git_revision, utc_now

#: Bump when the document layout changes incompatibly.
SCHEMA_VERSION = 1

#: Default home of the trajectory, next to the suite's result reports.
DEFAULT_BENCH_DIR = Path("benchmarks")

_BENCH_NAME = re.compile(r"^BENCH_(\d+)\.json$")

_REQUIRED_TOP_KEYS = ("schema_version", "bench_id", "git_rev", "generated_at", "rungs")
_REQUIRED_RUNG_KEYS = (
    "rung",
    "kind",
    "scenario_digest",
    "wall_seconds",
    "wall_samples",
    "peak_rss_kb",
    "metrics",
)


class BenchSchemaError(ValueError):
    """A bench document does not match the schema this code understands."""


def bench_files(bench_dir: Path | str = DEFAULT_BENCH_DIR) -> list[tuple[int, Path]]:
    """All ``BENCH_<n>.json`` files in the directory, ordered by number."""
    bench_dir = Path(bench_dir)
    if not bench_dir.is_dir():
        return []
    found = []
    for path in bench_dir.iterdir():
        match = _BENCH_NAME.match(path.name)
        if match:
            found.append((int(match.group(1)), path))
    return sorted(found)


def next_bench_number(bench_dir: Path | str = DEFAULT_BENCH_DIR) -> int:
    """The next free number: one past the highest existing one (monotonic)."""
    existing = bench_files(bench_dir)
    return existing[-1][0] + 1 if existing else 0


def build_document(samples: list[dict], notes: str = "") -> dict:
    """Assemble a schema-complete document from per-rung samples."""
    document = {
        "schema_version": SCHEMA_VERSION,
        "bench_id": None,  # assigned by write_bench
        "git_rev": git_revision(),
        "generated_at": utc_now(),
        "notes": notes,
        "rungs": list(samples),
    }
    validate_document(document, allow_unnumbered=True)
    return document


def validate_document(document: dict, allow_unnumbered: bool = False) -> None:
    """Raise :class:`BenchSchemaError` unless the document is well-formed."""
    if not isinstance(document, dict):
        raise BenchSchemaError("bench document must be a JSON object")
    for key in _REQUIRED_TOP_KEYS:
        if key not in document:
            raise BenchSchemaError(f"bench document is missing {key!r}")
    if document["schema_version"] != SCHEMA_VERSION:
        raise BenchSchemaError(
            f"unsupported schema_version {document['schema_version']!r}; "
            f"this code reads version {SCHEMA_VERSION}"
        )
    bench_id = document["bench_id"]
    if bench_id is None:
        if not allow_unnumbered:
            raise BenchSchemaError("bench document has no bench_id")
    elif not isinstance(bench_id, int) or bench_id < 0:
        raise BenchSchemaError(f"bench_id must be a non-negative integer, got {bench_id!r}")
    rungs = document["rungs"]
    if not isinstance(rungs, list) or not rungs:
        raise BenchSchemaError("bench document must record at least one rung")
    seen = set()
    for sample in rungs:
        if not isinstance(sample, dict):
            raise BenchSchemaError("every rung sample must be a JSON object")
        for key in _REQUIRED_RUNG_KEYS:
            if key not in sample:
                raise BenchSchemaError(f"rung sample is missing {key!r}")
        name = sample["rung"]
        if name in seen:
            raise BenchSchemaError(f"rung {name!r} appears twice")
        seen.add(name)
        if (
            not isinstance(sample["wall_seconds"], (int, float))
            or not math.isfinite(sample["wall_seconds"])
            or sample["wall_seconds"] < 0
        ):
            raise BenchSchemaError(f"rung {name!r} has an invalid wall_seconds")
        if not isinstance(sample["wall_samples"], list) or not sample["wall_samples"]:
            raise BenchSchemaError(f"rung {name!r} has no wall_samples")
        if not isinstance(sample["metrics"], dict):
            raise BenchSchemaError(f"rung {name!r} metrics must be an object")
        # Optional since schema generation 1: per-phase wall-clock
        # attribution ({span name: seconds}); older documents lack it.
        phases = sample.get("phases")
        if phases is not None:
            if not isinstance(phases, dict):
                raise BenchSchemaError(
                    f"rung {name!r} phases must map span names to seconds"
                )
            for key, value in phases.items():
                # bool is an int subclass; NaN/inf pass isinstance checks —
                # demand honest, finite, non-negative second counts so the
                # trend engine never has to defend against them downstream.
                if (
                    not isinstance(key, str)
                    or isinstance(value, bool)
                    or not isinstance(value, (int, float))
                    or not math.isfinite(value)
                    or value < 0
                ):
                    raise BenchSchemaError(
                        f"rung {name!r} phases[{key!r}] must be a finite "
                        f"non-negative number of seconds, got {value!r}"
                    )


def write_bench(document: dict, bench_dir: Path | str = DEFAULT_BENCH_DIR) -> Path:
    """Assign the next number, validate and write ``BENCH_<n>.json``."""
    bench_dir = Path(bench_dir)
    bench_dir.mkdir(parents=True, exist_ok=True)
    document = dict(document)
    document["bench_id"] = next_bench_number(bench_dir)
    validate_document(document)
    path = bench_dir / f"BENCH_{document['bench_id']}.json"
    path.write_text(json.dumps(document, indent=2, sort_keys=False) + "\n")
    return path


def load_bench(path: Path | str) -> dict:
    """Read and validate one document."""
    try:
        document = json.loads(Path(path).read_text())
    except json.JSONDecodeError as error:
        raise BenchSchemaError(f"{path} is not valid JSON: {error}") from error
    validate_document(document)
    return document


def load_trajectory(bench_dir: Path | str = DEFAULT_BENCH_DIR) -> list[dict]:
    """Every ``BENCH_<n>.json`` in the directory, validated, ascending by number."""
    return [load_bench(path) for _, path in bench_files(bench_dir)]
