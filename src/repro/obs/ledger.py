"""The run ledger: an append-only, crash-safe JSONL history of every run.

Where a ``BENCH_<n>.json`` document is a *curated* trajectory point, the
ledger is the raw operational record: one JSON line per run — session
executions (fresh, memo hit, disk hit, batch dedup), suite experiments,
DSE searches, scale-out systems and bench rungs — appended by whichever
process performed the run.  ``repro stats`` queries it; ``repro dash``
renders it.

Durability model:

* **One line, one write.**  A record is serialised to a single
  newline-terminated JSON line and written with one ``os.write`` on a file
  descriptor opened ``O_APPEND``, so concurrent appends from pool workers
  (DSE candidate evaluations, suite experiments and session requests all
  execute in worker processes) never interleave or truncate each other.
* **Crash-tolerant loads.**  A process dying mid-write can leave at most
  one damaged line; :func:`load_ledger` reports and skips undecodable
  lines instead of refusing the file, and :meth:`RunLedger.append` starts
  a fresh line when the file does not end in a newline.
* **Never load-bearing.**  Recording failures (read-only checkout, full
  disk) log a warning and return ``False``; they never break the run, and
  recording happens strictly after payload normalisation/admission so
  cache byte-identity is untouched whether the ledger is on or off.

Resolution of the ledger location (:func:`ledger_path`):

1. a CLI ``--no-ledger`` flag (via :func:`disable_ledger`) wins;
2. the ``REPRO_LEDGER`` environment variable — a path, or one of
   ``0/off/false/no/none`` (or empty) to disable;
3. otherwise ``benchmarks/ledger.jsonl`` relative to the working
   directory, *only* when ``benchmarks/`` already exists — library users
   outside a checkout never get a surprise directory.

Stdlib-only, like every substrate module under :mod:`repro.obs`.
"""

from __future__ import annotations

import datetime
import json
import os
import subprocess
from pathlib import Path
from typing import Any, Iterable

from repro.obs.logs import get_logger

#: Bump when the record layout changes incompatibly.
LEDGER_SCHEMA = 1

#: Environment variable naming the ledger file (or disabling it).
LEDGER_ENV = "REPRO_LEDGER"

#: Default ledger file, used when ``benchmarks/`` already exists.
DEFAULT_LEDGER_PATH = Path("benchmarks") / "ledger.jsonl"

#: Environment values (case-insensitive) that disable the ledger.
_DISABLE_VALUES = frozenset({"", "0", "off", "false", "no", "none"})

#: Record kinds the schema knows; extend rather than repurpose.
RECORD_KINDS = ("session", "suite", "dse", "scaleout", "bench")

_log = get_logger("obs.ledger")

# Process-wide kill switch for the CLI --no-ledger flag (the environment
# variable covers everything else, including worker processes, which
# inherit it).
_disabled = False

# Memoised git revision: one subprocess call per process, not per record.
_GIT_REV: str | None = None


def disable_ledger() -> None:
    """Turn recording off for this process (the ``--no-ledger`` flag)."""
    global _disabled
    _disabled = True


def enable_ledger() -> None:
    """Undo :func:`disable_ledger` (tests)."""
    global _disabled
    _disabled = False


def ledger_path() -> Path | None:
    """Where records go, or ``None`` when recording is off (see module doc)."""
    if _disabled:
        return None
    raw = os.environ.get(LEDGER_ENV)
    if raw is not None:
        if raw.strip().lower() in _DISABLE_VALUES:
            return None
        return Path(raw)
    if DEFAULT_LEDGER_PATH.parent.is_dir():
        return DEFAULT_LEDGER_PATH
    return None


def ledger_enabled() -> bool:
    """True when :func:`record_run` would write somewhere."""
    return ledger_path() is not None


def git_revision() -> str:
    """Short git revision of the working tree (memoised), or ``"unknown"``."""
    global _GIT_REV
    if _GIT_REV is None:
        try:
            out = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True,
                text=True,
                timeout=10,
            )
        except (OSError, subprocess.TimeoutExpired):
            _GIT_REV = "unknown"
        else:
            rev = out.stdout.strip()
            _GIT_REV = rev if out.returncode == 0 and rev else "unknown"
    return _GIT_REV


def utc_now() -> str:
    """The current UTC instant as ``YYYY-MM-DDTHH:MM:SSZ``."""
    return (
        datetime.datetime.now(datetime.timezone.utc)
        .isoformat(timespec="seconds")
        .replace("+00:00", "Z")
    )


def make_record(
    kind: str,
    name: str,
    outcome: str = "ok",
    wall_seconds: float = 0.0,
    backend: str | None = None,
    dataset: str | None = None,
    cache_key: str | None = None,
    scenario_digest: str | None = None,
    phases: dict[str, float] | None = None,
    metrics: dict[str, Any] | None = None,
    **extra: Any,
) -> dict:
    """Build one schema-complete ledger record (not yet written).

    ``kind`` must be one of :data:`RECORD_KINDS`; ``outcome`` is the
    run's exit status in that kind's vocabulary (session: ``fresh`` /
    ``memo`` / ``disk`` / ``dedup`` / ``failed``; suite: ``ran`` /
    ``cached`` / ``failed``; everything else: ``ok`` / ``failed``).
    Optional context (backend, dataset, cache key, scenario digest,
    phase breakdown, metrics snapshot) is included only when provided,
    keeping hit records cheap.
    """
    if kind not in RECORD_KINDS:
        raise ValueError(f"unknown ledger record kind {kind!r}; known: {RECORD_KINDS}")
    if not name:
        raise ValueError("ledger records need a non-empty name")
    record: dict[str, Any] = {
        "schema": LEDGER_SCHEMA,
        "ts": utc_now(),
        "git_rev": git_revision(),
        "pid": os.getpid(),
        "kind": kind,
        "name": name,
        "outcome": str(outcome),
        "wall_seconds": round(float(wall_seconds), 6),
    }
    if backend is not None:
        record["backend"] = backend
    if dataset is not None:
        record["dataset"] = dataset
    if cache_key is not None:
        record["cache_key"] = cache_key
    if scenario_digest is not None:
        record["scenario_digest"] = scenario_digest
    if phases:
        record["phases"] = {str(k): float(v) for k, v in phases.items()}
    if metrics:
        record["metrics"] = dict(metrics)
    record.update(extra)
    return record


class RunLedger:
    """Append to one JSONL ledger file (:func:`load_ledger` reads it)."""

    def __init__(self, path: Path | str):
        self.path = Path(path)

    def append(self, record: dict) -> None:
        """Write one record as a single atomic ``O_APPEND`` line.

        The whole line (JSON + trailing newline) goes down in one
        ``os.write``, which is what makes concurrent appends from many
        processes safe.  If a previous writer crashed mid-line (the file
        does not end in a newline), the damaged line is terminated first
        so this record starts clean.
        """
        line = json.dumps(record, sort_keys=True, separators=(",", ":"), default=str)
        data = (line + "\n").encode("utf-8")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        try:
            if self.path.stat().st_size > 0:
                with open(self.path, "rb") as handle:
                    handle.seek(-1, os.SEEK_END)
                    if handle.read(1) != b"\n":
                        data = b"\n" + data
        except OSError:
            pass
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
        try:
            os.write(fd, data)
        finally:
            os.close(fd)


def load_ledger(path: Path | str) -> tuple[list[dict], list[dict]]:
    """Read a ledger file, tolerating damaged lines.

    Returns ``(records, bad_lines)``: every line that decodes to a JSON
    object, plus one report dict (``line``, ``error``, ``text``) per line
    that does not — a crashed writer's torn final line, typically.  A
    missing file is simply an empty ledger.
    """
    path = Path(path)
    records: list[dict] = []
    bad: list[dict] = []
    try:
        text = path.read_text(encoding="utf-8", errors="replace")
    except FileNotFoundError:
        return records, bad
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
            if not isinstance(record, dict):
                raise ValueError("ledger line is not a JSON object")
        except (json.JSONDecodeError, ValueError) as error:
            bad.append({"line": lineno, "error": str(error), "text": line[:120]})
            continue
        records.append(record)
    if bad:
        _log.warning(
            "ledger %s: skipped %d damaged line(s): %s",
            path,
            len(bad),
            ", ".join(f"line {entry['line']}" for entry in bad),
        )
    return records, bad


def record_run(kind: str, name: str, **fields: Any) -> bool:
    """Append one record to the active ledger, if any.

    The convenience entry point every runner calls: resolves the ledger
    location, builds the record and appends it.  Returns True when a line
    was written; False when the ledger is disabled or the write failed
    (failures are logged, never raised — the ledger must not be able to
    break a run).
    """
    path = ledger_path()
    if path is None:
        return False
    try:
        RunLedger(path).append(make_record(kind, name, **fields))
    except (OSError, ValueError) as error:
        _log.warning("ledger append to %s failed: %s", path, error)
        return False
    return True


# -- queries (the `repro stats` verb) -------------------------------------


def filter_records(
    records: Iterable[dict],
    kind: str | None = None,
    backend: str | None = None,
    dataset: str | None = None,
    outcome: str | None = None,
    since: str | None = None,
) -> list[dict]:
    """Subset of records matching every given criterion.

    ``since`` is an ISO-8601 prefix (``2026-08``, ``2026-08-08T12:00``);
    timestamps are compared lexicographically, which is exactly date order
    for ISO strings.
    """
    out = []
    for record in records:
        if kind is not None and record.get("kind") != kind:
            continue
        if backend is not None and record.get("backend") != backend:
            continue
        if dataset is not None and record.get("dataset") != dataset:
            continue
        if outcome is not None and record.get("outcome") != outcome:
            continue
        if since is not None and str(record.get("ts", "")) < since:
            continue
        out.append(record)
    return out


def summarize_records(records: list[dict], slowest: int = 10) -> dict:
    """Aggregate a record set for ``repro stats`` / the dashboard.

    Returns a dict with:

    * ``total`` — record count;
    * ``by_kind`` — per kind: runs, wall-clock total, outcome counts;
    * ``cache`` — session cache behaviour: fresh/memo/disk/dedup counts
      and the resulting hit rate (any non-fresh outcome is a hit);
    * ``slowest_phases`` — top span names by total seconds across every
      record carrying a phase breakdown (count + total + mean);
    * ``slowest_runs`` — the slowest individual records.
    """
    by_kind: dict[str, dict] = {}
    phase_totals: dict[str, dict] = {}
    cache = {"fresh": 0, "memo": 0, "disk": 0, "dedup": 0, "failed": 0}
    for record in records:
        kind = str(record.get("kind", "?"))
        entry = by_kind.setdefault(
            kind, {"runs": 0, "wall_seconds": 0.0, "outcomes": {}}
        )
        entry["runs"] += 1
        try:
            entry["wall_seconds"] += float(record.get("wall_seconds", 0.0))
        except (TypeError, ValueError):
            pass
        outcome = str(record.get("outcome", "?"))
        entry["outcomes"][outcome] = entry["outcomes"].get(outcome, 0) + 1
        if kind == "session" and outcome in cache:
            cache[outcome] += 1
        phases = record.get("phases")
        if isinstance(phases, dict):
            for phase, seconds in phases.items():
                try:
                    seconds = float(seconds)
                except (TypeError, ValueError):
                    continue
                bucket = phase_totals.setdefault(
                    str(phase), {"count": 0, "total_seconds": 0.0}
                )
                bucket["count"] += 1
                bucket["total_seconds"] += seconds
    hits = cache["memo"] + cache["disk"] + cache["dedup"]
    lookups = hits + cache["fresh"]
    slowest_phases = sorted(
        (
            {
                "phase": phase,
                "count": bucket["count"],
                "total_seconds": round(bucket["total_seconds"], 6),
                "mean_seconds": round(bucket["total_seconds"] / bucket["count"], 6),
            }
            for phase, bucket in phase_totals.items()
        ),
        key=lambda row: -row["total_seconds"],
    )[:slowest]
    slowest_runs = sorted(
        (r for r in records if isinstance(r.get("wall_seconds"), (int, float))),
        key=lambda r: -r["wall_seconds"],
    )[:slowest]
    return {
        "total": len(records),
        "by_kind": {
            kind: {
                "runs": entry["runs"],
                "wall_seconds": round(entry["wall_seconds"], 6),
                "outcomes": dict(sorted(entry["outcomes"].items())),
            }
            for kind, entry in sorted(by_kind.items())
        },
        "cache": {
            **cache,
            "hit_rate": (hits / lookups) if lookups else None,
        },
        "slowest_phases": slowest_phases,
        "slowest_runs": [
            {
                "ts": r.get("ts"),
                "kind": r.get("kind"),
                "name": r.get("name"),
                "outcome": r.get("outcome"),
                "wall_seconds": r.get("wall_seconds"),
            }
            for r in slowest_runs
        ],
    }
