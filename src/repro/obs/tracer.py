"""The span tracer: nested, thread-safe wall-clock spans.

A span is one timed region of the pipeline — ``with trace.span("grow.phase",
phase="aggregation"):`` — recorded as a plain dict when it closes.  The
recorded events translate directly into Chrome trace-event JSON
(:mod:`repro.obs.export`), so a run traced with ``--trace`` loads straight
into Perfetto.

Design constraints, in order:

* **Near-zero overhead when disabled.**  ``trace.span(...)`` costs one
  attribute read and returns a shared no-op context manager; nothing is
  allocated and no lock is taken.  Hot loops (per-cluster, per-edge) are
  never instrumented — spans live at phase/layer/run granularity.
* **Thread-safe and nestable.**  Each thread keeps its own span stack in
  thread-local storage, so parent/depth bookkeeping never crosses threads;
  the shared event buffer is appended to under a lock.
* **Cross-process friendly.**  Timestamps are epoch microseconds
  (``time.time_ns``) so spans recorded in pool workers align with the
  parent's timeline, while durations come from ``perf_counter_ns`` so they
  stay monotonic.  :meth:`Tracer.ingest` splices worker events back in.

Everything here is stdlib-only: the tracer is imported by every layer of
the package and must never create an import cycle or a dependency.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Iterable


class _NullSpan:
    """The shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullSpan":
        return self


_NULL_SPAN = _NullSpan()


class Span:
    """A live span; use only as a context manager via :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "name", "attrs", "_start_ns", "_wall_us", "depth", "parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.depth = 0
        self.parent: str | None = None

    def set(self, **attrs: Any) -> "Span":
        """Attach attributes discovered mid-span (e.g. result counts)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "Span":
        stack = self._tracer._stack()
        if stack:
            self.depth = len(stack)
            self.parent = stack[-1].name
        stack.append(self)
        self._wall_us = time.time_ns() // 1_000
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        duration_us = (time.perf_counter_ns() - self._start_ns) / 1_000.0
        stack = self._tracer._stack()
        if stack and stack[-1] is self:
            stack.pop()
        event = {
            "name": self.name,
            "ts_us": self._wall_us,
            "dur_us": duration_us,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "depth": self.depth,
            "parent": self.parent,
            "args": self.attrs,
        }
        if exc_type is not None:
            event["args"] = dict(self.attrs, error=exc_type.__name__)
        self._tracer._record(event)
        return False


class Tracer:
    """Collects span events into a shared buffer; disabled by default."""

    def __init__(self) -> None:
        self._enabled = False
        self._lock = threading.Lock()
        self._events: list[dict] = []
        self._local = threading.local()

    # -- state ------------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self._enabled

    def enable(self) -> None:
        self._enabled = True

    def disable(self) -> None:
        self._enabled = False

    # -- recording --------------------------------------------------------

    def span(self, name: str, **attrs: Any):
        """A context manager timing ``name``; a shared no-op when disabled."""
        if not self._enabled:
            return _NULL_SPAN
        return Span(self, name, attrs)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = []
            self._local.stack = stack
        return stack

    def _record(self, event: dict) -> None:
        with self._lock:
            self._events.append(event)

    # -- harvesting -------------------------------------------------------

    def events(self) -> list[dict]:
        """A snapshot copy of every recorded event."""
        with self._lock:
            return list(self._events)

    def drain(self) -> list[dict]:
        """Remove and return every recorded event."""
        with self._lock:
            events, self._events = self._events, []
            return events

    def ingest(self, events: Iterable[dict]) -> None:
        """Splice events recorded elsewhere (a pool worker) into the buffer."""
        with self._lock:
            self._events.extend(events)

    def collect(self):
        """Force-enable tracing for a region and capture the events it records.

        Yields a list that is filled with the region's events on exit.  The
        previous enabled/disabled state is restored afterwards; if tracing
        was *disabled* before, the captured events are also removed from the
        shared buffer (the caller owns them — this is how pool workers and
        the bench ladder collect spans without leaking state).
        """
        return _Collector(self)


class _Collector:
    def __init__(self, tracer: Tracer):
        self._tracer = tracer
        self.events: list[dict] = []

    def __enter__(self) -> list[dict]:
        tracer = self._tracer
        self._was_enabled = tracer._enabled
        with tracer._lock:
            self._start = len(tracer._events)
        tracer._enabled = True
        return self.events

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        tracer._enabled = self._was_enabled
        with tracer._lock:
            self.events.extend(tracer._events[self._start :])
            if not self._was_enabled:
                del tracer._events[self._start :]
        return False


def aggregate_phases(events: Iterable[dict]) -> dict[str, float]:
    """Total seconds per span name (to the microsecond), sorted by name.

    The phase breakdown recorded in bench samples and ledger lines.
    Nested spans overlap (a ``session.execute`` contains its
    ``workload.bundle``), so the values are per-name totals, not an
    exclusive decomposition — consumers that stack phases must pick a
    disjoint subset (see :mod:`repro.obs.dashboard`).
    """
    totals: dict[str, float] = {}
    for event in events:
        totals[event["name"]] = totals.get(event["name"], 0.0) + event["dur_us"] / 1e6
    return {name: round(totals[name], 6) for name in sorted(totals)}


#: The process-wide tracer every instrumentation site records into.
trace = Tracer()
