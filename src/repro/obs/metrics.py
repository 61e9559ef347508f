"""The metrics registry: named counters.

One process-wide :class:`MetricsRegistry` (``repro.obs.metrics``) accumulates
named counts from every engine — memo/disk cache hits in ``Session``,
batch dedup counts, suite/DSE/scale-out progress, inter-chip traffic,
profile builds.  The registry is always live (an ``inc`` is a dict update
under a lock, cheap enough to leave on unconditionally); snapshots ride
along in trace exports and the ``repro trace`` summary derives cache hit
rates from them.

Stdlib-only, like everything under :mod:`repro.obs`.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager


class MetricsRegistry:
    """Named counters behind one lock."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}

    # -- recording --------------------------------------------------------

    def inc(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to the counter ``name`` (creating it at zero)."""
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    # -- harvesting -------------------------------------------------------

    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def snapshot(self) -> dict:
        """A JSON-safe copy of every counter, as ``{"counters": {...}}``."""
        with self._lock:
            return {"counters": dict(self._counters)}

    def merge(self, snapshot: dict | None) -> None:
        """Fold a :meth:`snapshot` from elsewhere (a pool worker) into this
        one: counters add."""
        if not snapshot:
            return
        with self._lock:
            for name, value in snapshot.get("counters", {}).items():
                self._counters[name] = self._counters.get(name, 0) + value

    def reset(self) -> None:
        with self._lock:
            self._counters.clear()

    @contextmanager
    def scoped(self):
        """Swap in empty storage for a region; yields the region's snapshot.

        On exit the previous counters are restored untouched and the yielded
        dict is filled with only what the region recorded — this is how pool
        workers measure a single task without inheriting (fork) or clobbering
        the parent's accumulated state.
        """
        with self._lock:
            saved = self._counters
            self._counters = {}
        box: dict = {}
        try:
            yield box
        finally:
            box.update(self.snapshot())
            with self._lock:
                self._counters = saved


def hit_rate(hits: float, misses: float) -> float | None:
    """hits / (hits + misses), or None when there were no lookups."""
    lookups = hits + misses
    if lookups <= 0:
        return None
    return hits / lookups


#: The process-wide registry every instrumentation site records into.
metrics = MetricsRegistry()
