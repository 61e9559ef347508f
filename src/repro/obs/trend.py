"""Trajectory analytics: noise-aware trends over ``BENCH_<n>.json``.

The bench ladder appends one document per invocation; this module reads
the whole sequence and answers the question a single-document diff can't:
*is the trajectory getting better or worse?*  It is also the reusable
gate behind every ``repro bench`` run and CI: a windowed,
tolerance-banded comparison.

Noise model (the classification rules, also documented in
``docs/architecture.md``):

* ``wall_seconds`` is already the **min over a rung's samples** within a
  document (the estimator least affected by scheduling noise); the
  baseline is the **min over a window** of recent documents, so one slow
  historical run never manufactures an improvement and one fast outlier
  must be beaten, not matched.
* Only samples whose ``scenario_digest`` matches the current rung's are
  comparable; a rung whose digest changed is ``incomparable`` (the
  workload itself moved), and a rung with no history at all is ``new``.
* ``ratio = wall / baseline`` with a symmetric tolerance band:
  ``ratio > 1 + tolerance`` → ``regressed``, ``ratio < 1 - tolerance`` →
  ``improved``, otherwise ``flat``.
* Regressions are attributed to the phases that moved: per-phase deltas
  against the baseline document's breakdown, largest positive movers
  first.
* Peak RSS is tracked and reported (``rss_ratio``) but never gates —
  allocator and platform noise dominate it.

Like the rest of :mod:`repro.obs` this is stdlib-only: it takes loaded
documents (:func:`repro.bench.emit.load_trajectory` reads them) and
imports nothing else of the package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

#: Default symmetric tolerance band around the baseline (25%).
DEFAULT_TOLERANCE = 0.25

#: How many recent comparable documents the baseline spans.
WINDOW = 3

#: Least share of the total positive phase movement a suspect phase carries.
MIN_SHARE = 0.1


@dataclass
class RungTrend:
    """One rung's classification against its windowed baseline.

    ``series`` holds every appearance of the rung across the trajectory
    (ascending ``bench_id``), comparable or not — the dashboard's
    sparklines draw it directly.
    """

    rung: str
    classification: str
    wall_seconds: float
    baseline_seconds: float | None = None
    baseline_bench_id: int | None = None
    ratio: float | None = None
    rss_ratio: float | None = None
    series: list[dict] = field(default_factory=list)
    suspects: list[dict] = field(default_factory=list)

    @property
    def regressed(self) -> bool:
        return self.classification == "regressed"

    def describe(self) -> str:
        """One human-readable line, e.g. for the gate's console output."""
        if self.classification == "new":
            return f"{self.rung}: {self.wall_seconds:.3f}s (new rung, no comparable history)"
        if self.classification == "incomparable":
            return f"{self.rung}: scenario changed, not comparable"
        line = (
            f"{self.rung}: {self.wall_seconds:.3f}s vs baseline "
            f"{self.baseline_seconds:.3f}s (BENCH_{self.baseline_bench_id}) "
            f"x{self.ratio:.2f} {self.classification.upper() if self.regressed else self.classification}"
        )
        if self.suspects:
            movers = ", ".join(
                f"{s['phase']} {s['delta_seconds']:+.3f}s" for s in self.suspects[:3]
            )
            line += f"; phases that moved: {movers}"
        return line


def attribute_phases(current: dict | None, baseline: dict | None) -> list[dict]:
    """Which phases account for a wall-clock delta, largest movers first.

    Compares two ``{span name: seconds}`` breakdowns and returns the
    phases whose positive delta carries at least :data:`MIN_SHARE` of the
    total positive movement, each as ``{phase, baseline_seconds,
    current_seconds, delta_seconds, share}``.  Either breakdown missing
    (older documents have none) yields an empty attribution.
    """
    if not current or not baseline:
        return []
    deltas = []
    for phase in sorted(set(current) | set(baseline)):
        delta = float(current.get(phase, 0.0)) - float(baseline.get(phase, 0.0))
        if delta > 0:
            deltas.append((phase, delta))
    total = sum(delta for _, delta in deltas)
    if total <= 0:
        return []
    return [
        {
            "phase": phase,
            "baseline_seconds": round(float(baseline.get(phase, 0.0)), 6),
            "current_seconds": round(float(current.get(phase, 0.0)), 6),
            "delta_seconds": round(delta, 6),
            "share": round(delta / total, 4),
        }
        for phase, delta in sorted(deltas, key=lambda item: -item[1])
        if delta / total >= MIN_SHARE
    ]


def _rung_series(documents: Sequence[dict]) -> dict[str, list[dict]]:
    """Per-rung appearance list across the trajectory, ascending."""
    series: dict[str, list[dict]] = {}
    for document in documents:
        for sample in document["rungs"]:
            series.setdefault(sample["rung"], []).append(
                {
                    "bench_id": document["bench_id"],
                    "git_rev": document.get("git_rev", "unknown"),
                    "wall_seconds": sample["wall_seconds"],
                    "peak_rss_kb": sample.get("peak_rss_kb"),
                    "scenario_digest": sample["scenario_digest"],
                    "phases": sample.get("phases"),
                }
            )
    return series


def classify_rung(
    sample: dict,
    history: Sequence[dict],
    tolerance: float = DEFAULT_TOLERANCE,
    series: Sequence[dict] | None = None,
) -> RungTrend:
    """Classify one current sample against its historical appearances.

    ``history`` is the rung's prior appearances (ascending ``bench_id``,
    the dicts :func:`_rung_series` builds); ``series`` is the full
    appearance list carried through for rendering (defaults to history +
    the current sample).
    """
    if tolerance <= 0:
        raise ValueError("tolerance must be positive")
    wall = float(sample["wall_seconds"])
    full_series = list(series) if series is not None else list(history)
    trend = RungTrend(rung=sample["rung"], classification="new", wall_seconds=wall)
    trend.series = full_series
    if not history:
        return trend
    comparable = [
        entry
        for entry in history
        if entry["scenario_digest"] == sample["scenario_digest"]
    ]
    if not comparable:
        trend.classification = "incomparable"
        return trend
    recent = comparable[-WINDOW:]
    baseline = min(recent, key=lambda entry: entry["wall_seconds"])
    baseline_wall = float(baseline["wall_seconds"])
    trend.baseline_seconds = baseline_wall
    trend.baseline_bench_id = baseline.get("bench_id")
    if baseline_wall <= 0:
        trend.classification = "incomparable"
        return trend
    trend.ratio = wall / baseline_wall
    if trend.ratio > 1 + tolerance:
        trend.classification = "regressed"
        trend.suspects = attribute_phases(sample.get("phases"), baseline.get("phases"))
    elif trend.ratio < 1 - tolerance:
        trend.classification = "improved"
    else:
        trend.classification = "flat"
    rss, baseline_rss = sample.get("peak_rss_kb"), baseline.get("peak_rss_kb")
    if rss and baseline_rss:
        trend.rss_ratio = float(rss) / float(baseline_rss)
    return trend


@dataclass
class TrendReport:
    """Every rung of a trajectory (or candidate document), classified."""

    rungs: list[RungTrend]
    tolerance: float
    documents: int

    @property
    def ok(self) -> bool:
        """True when no rung regressed (the gate's pass/fail)."""
        return not any(trend.regressed for trend in self.rungs)

    @property
    def regressions(self) -> list[RungTrend]:
        return [trend for trend in self.rungs if trend.regressed]


def analyze_trajectory(documents: Sequence[dict]) -> TrendReport:
    """Classify every rung ever recorded across a trajectory.

    Each rung's most recent appearance is classified against the
    appearances before it, so rungs that dropped out of the ladder keep
    their last verdict instead of disappearing from the report.
    """
    series = _rung_series(documents)
    rungs = [
        classify_rung(
            dict(appearances[-1], rung=name),
            appearances[:-1],
            series=appearances,
        )
        for name, appearances in sorted(series.items())
    ]
    return TrendReport(
        rungs=rungs, tolerance=DEFAULT_TOLERANCE, documents=len(documents)
    )


def evaluate_gate(
    document: dict,
    history: Sequence[dict],
    tolerance: float = DEFAULT_TOLERANCE,
) -> TrendReport:
    """Gate a candidate document against a committed trajectory.

    This is the API behind ``repro bench``'s gate and the CI overhead
    check: every rung of ``document`` is classified against its history
    (min-of-window baseline, tolerance band, digest checks), and
    :attr:`TrendReport.ok` is False exactly when some rung regressed.
    ``new`` and ``incomparable`` rungs never fail the gate — a brand-new
    or redefined workload has no meaningful baseline.
    """
    series = _rung_series(history)
    rungs = []
    for sample in document["rungs"]:
        history_for_rung = series.get(sample["rung"], [])
        current_entry = {
            "bench_id": document.get("bench_id"),
            "git_rev": document.get("git_rev", "unknown"),
            "wall_seconds": sample["wall_seconds"],
            "peak_rss_kb": sample.get("peak_rss_kb"),
            "scenario_digest": sample["scenario_digest"],
            "phases": sample.get("phases"),
        }
        rungs.append(
            classify_rung(
                sample,
                history_for_rung,
                tolerance=tolerance,
                series=history_for_rung + [current_entry],
            )
        )
    return TrendReport(rungs=rungs, tolerance=tolerance, documents=len(history))

