"""Small, dependency-free helpers shared by run.py and the operations it starts.

* :func:`percentiles` summarises latency samples as p50 and p95 together with
  the sample count, and refuses to report a p95 that fewer than ten samples
  lie beyond.
* :class:`Checker` counts checked operations and the ones that failed.
* :func:`fingerprint` is the byte form two results are compared by.
"""

from __future__ import annotations

import json
import math
from typing import Any, Mapping, Sequence

#: A tail percentile is reported only when at least this many samples lie
#: beyond it, so p95 needs 200 samples.
MIN_TAIL_SAMPLES = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0-100), linearly interpolated between ranks."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = math.floor(rank)
    high = math.ceil(rank)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def percentiles(values: Sequence[float]) -> dict[str, float]:
    """``{"p50", "p95", "samples"}`` of latency samples.

    Raises ``ValueError`` when fewer than :data:`MIN_TAIL_SAMPLES` samples lie
    beyond the 95th percentile: such a p95 is one or two slow samples, not a
    tail.
    """
    beyond = len(values) * 5 / 100.0
    if beyond < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"p95 needs at least {math.ceil(MIN_TAIL_SAMPLES * 20)} samples, got {len(values)}"
        )
    return {
        "p50": percentile(values, 50),
        "p95": percentile(values, 95),
        "samples": len(values),
    }


def fingerprint(payload: Mapping[str, Any]) -> str:
    """Canonical bytes of a run's simulated outcome (metrics and detail).

    Status and wall-clock seconds are left out: they legitimately differ
    between a fresh run and a cache hit.
    """
    return json.dumps(
        {"metrics": payload["metrics"], "detail": payload["detail"]}, sort_keys=True
    )


class Checker:
    """Counts operations whose output was checked and the ones that were wrong."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, what: str, ok: bool) -> bool:
        """Count one operation; record ``what`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def same(self, what: str, got: Any, want: Any) -> bool:
        """Count one operation that must reproduce ``want`` exactly."""
        if got == want:
            return self.check(what, True)
        return self.check(f"{what}: got {_short(got)}, want {_short(want)}", False)


def _short(value: Any) -> str:
    text = repr(value)
    return text if len(text) <= 80 else text[:77] + "..."
