"""Chrome trace-event export: tracer events -> Perfetto-loadable JSON.

The emitted document is the "JSON Object Format" of the Trace Event spec:
``{"traceEvents": [...], "displayTimeUnit": ..., "otherData": {...}}``.
Every span becomes one complete event (``"ph": "X"``) with microsecond
``ts``/``dur``; process/thread metadata events name the lanes so a
multi-process run (pool workers shipping spans home) reads naturally in
Perfetto or ``chrome://tracing``.  The metrics snapshot rides along in
``otherData`` — viewers ignore it, ``repro trace`` consumes it.

Stdlib-only, like everything under :mod:`repro.obs`.
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs.metrics import metrics as _metrics
from repro.obs.tracer import trace as _trace

SCHEMA = "repro-trace-v1"


class TraceSchemaError(ValueError):
    """The document is not a trace this package understands."""


def to_chrome_trace(events: list[dict], metrics_snapshot: dict) -> dict:
    """Translate tracer events into one Chrome trace-event document.

    Timestamps are shifted so the earliest span starts at zero; the spans
    keep their relative (epoch-based) alignment across processes.
    """
    origin_us = min((event["ts_us"] for event in events), default=0)
    trace_events: list[dict] = []
    seen_pids: set[int] = set()
    for event in events:
        pid = event["pid"]
        if pid not in seen_pids:
            seen_pids.add(pid)
            trace_events.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": pid,
                    "tid": 0,
                    "args": {"name": f"repro pid {pid}"},
                }
            )
        args = dict(event.get("args") or {})
        if event.get("parent"):
            args["parent"] = event["parent"]
        trace_events.append(
            {
                "ph": "X",
                "name": event["name"],
                "cat": "repro",
                "ts": event["ts_us"] - origin_us,
                "dur": event["dur_us"],
                "pid": pid,
                "tid": event["tid"],
                "args": args,
            }
        )
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            "schema": SCHEMA,
            "metrics": metrics_snapshot,
        },
    }


def write_trace(path: str | Path) -> Path:
    """Write the process-wide tracer buffer and metrics snapshot as a trace
    document — the ``--trace FILE`` behaviour."""
    document = to_chrome_trace(_trace.events(), _metrics.snapshot())
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return path


def validate_trace(document: object) -> dict:
    """Check the Chrome trace-event shape; returns the document or raises."""
    if not isinstance(document, dict):
        raise TraceSchemaError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise TraceSchemaError("trace document must carry a traceEvents list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TraceSchemaError(f"traceEvents[{index}] is not an object")
        phase = event.get("ph")
        if phase == "M":
            continue
        if phase != "X":
            raise TraceSchemaError(
                f"traceEvents[{index}] has unsupported phase {phase!r}"
            )
        for key in ("name", "ts", "dur", "pid", "tid"):
            if key not in event:
                raise TraceSchemaError(f"traceEvents[{index}] is missing {key!r}")
        for key in ("ts", "dur"):
            if not isinstance(event[key], (int, float)) or event[key] < 0:
                raise TraceSchemaError(
                    f"traceEvents[{index}][{key!r}] must be a non-negative number"
                )
    other = document.get("otherData", {})
    if not isinstance(other, dict):
        raise TraceSchemaError("otherData must be an object when present")
    return document


def load_trace(path: str | Path) -> dict:
    """Read and validate a trace document from disk."""
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as error:
        raise TraceSchemaError(f"cannot read trace {path}: {error}") from error
    return validate_trace(document)
