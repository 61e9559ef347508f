"""Tests for the trajectory analytics engine (``repro.obs.trend``).

Synthetic documents throughout — cheap, and every classification rule is
pinned exactly.  The last test classifies the repository's real committed
trajectory, which is the acceptance criterion for the analytics layer:
every recorded rung must land in a defined classification.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.bench.emit import load_trajectory
from repro.obs import trend


def doc(bench_id, *rungs, git_rev="deadbee"):
    return {
        "schema_version": 1,
        "bench_id": bench_id,
        "git_rev": git_rev,
        "generated_at": f"2026-08-{bench_id + 1:02d}T00:00:00Z",
        "notes": "",
        "rungs": list(rungs),
    }


def rung(name="grow-10k", wall=1.0, digest="d0", phases=None, rss=None):
    sample = {
        "rung": name,
        "kind": "grow",
        "scenario_digest": digest,
        "wall_seconds": wall,
        "wall_samples": [wall],
        "peak_rss_kb": rss if rss is not None else 1000,
        "metrics": {},
    }
    if phases is not None:
        sample["phases"] = phases
    return sample


# ---------------------------------------------------------------------------
# classify_rung: the classification rules.
# ---------------------------------------------------------------------------


def history(*walls, digest="d0", phases=None):
    return [
        {
            "bench_id": index,
            "git_rev": "deadbee",
            "wall_seconds": wall,
            "peak_rss_kb": 1000,
            "scenario_digest": digest,
            "phases": phases,
        }
        for index, wall in enumerate(walls)
    ]


def test_no_history_is_new():
    verdict = trend.classify_rung(rung(wall=1.0), [])
    assert verdict.classification == "new"
    assert verdict.ratio is None and verdict.baseline_seconds is None


def test_digest_mismatch_is_incomparable():
    verdict = trend.classify_rung(rung(wall=1.0, digest="NEW"), history(1.0, 1.1))
    assert verdict.classification == "incomparable"


def test_within_band_is_flat():
    verdict = trend.classify_rung(rung(wall=1.2), history(1.0))
    assert verdict.classification == "flat"
    assert verdict.ratio == pytest.approx(1.2)


def test_beyond_band_is_regressed():
    verdict = trend.classify_rung(rung(wall=1.3), history(1.0))
    assert verdict.classification == "regressed"
    assert verdict.regressed


def test_below_band_is_improved():
    verdict = trend.classify_rung(rung(wall=0.7), history(1.0))
    assert verdict.classification == "improved"


def test_baseline_is_min_over_window():
    # Window 3 → baselines are the last three appearances {1.5, 0.8, 1.4};
    # min = 0.8, so a 1.1s run is beyond a 25% band even though it beats
    # most of the history; the older 0.5s outlier is outside the window.
    assert trend.WINDOW == 3
    verdict = trend.classify_rung(rung(wall=1.1), history(0.5, 1.5, 0.8, 1.4))
    assert verdict.baseline_seconds == pytest.approx(0.8)
    assert verdict.baseline_bench_id == 2
    assert verdict.classification == "regressed"


def test_tolerance_band_is_configurable():
    loose = trend.classify_rung(rung(wall=1.9), history(1.0), tolerance=1.0)
    assert loose.classification == "flat"
    tight = trend.classify_rung(rung(wall=1.1), history(1.0), tolerance=0.05)
    assert tight.classification == "regressed"


def test_mixed_digest_history_uses_only_comparable_samples():
    mixed = history(0.5, digest="OLD") + history(1.0)
    verdict = trend.classify_rung(rung(wall=1.0), mixed)
    assert verdict.classification == "flat"
    assert verdict.baseline_seconds == pytest.approx(1.0)


def test_regression_attributes_phases():
    baseline_phases = {"grow.run_model": 0.8, "workload.load_dataset": 0.2}
    current_phases = {"grow.run_model": 1.7, "workload.load_dataset": 0.21}
    verdict = trend.classify_rung(
        rung(wall=2.0, phases=current_phases),
        history(1.0, phases=baseline_phases),
    )
    assert verdict.classification == "regressed"
    assert verdict.suspects[0]["phase"] == "grow.run_model"
    assert verdict.suspects[0]["delta_seconds"] == pytest.approx(0.9)
    assert "grow.run_model" in verdict.describe()


def test_rss_is_reported_but_never_gates():
    sample = rung(wall=1.0, rss=9000)
    verdict = trend.classify_rung(sample, history(1.0))
    assert verdict.classification == "flat"  # 9x the RSS, still flat
    assert verdict.rss_ratio == pytest.approx(9.0)


def test_invalid_parameters_are_rejected():
    with pytest.raises(ValueError):
        trend.classify_rung(rung(), [], tolerance=0)


# ---------------------------------------------------------------------------
# attribute_phases.
# ---------------------------------------------------------------------------


def test_attribution_orders_by_delta_and_applies_min_share():
    assert trend.MIN_SHARE == 0.1
    suspects = trend.attribute_phases(
        {"a": 2.0, "b": 1.05, "c": 0.5},
        {"a": 1.0, "b": 1.0, "c": 0.5},
    )
    assert [s["phase"] for s in suspects] == ["a"]  # b's 0.05 is under 10%
    assert suspects[0]["share"] == pytest.approx(1.0 / 1.05, rel=1e-3)


def test_attribution_without_breakdowns_is_empty():
    assert trend.attribute_phases(None, {"a": 1.0}) == []
    assert trend.attribute_phases({"a": 1.0}, None) == []
    assert trend.attribute_phases({"a": 1.0}, {"a": 2.0}) == []  # got faster


# ---------------------------------------------------------------------------
# analyze_trajectory / evaluate_gate.
# ---------------------------------------------------------------------------


def verdicts(report):
    return {verdict.rung: verdict for verdict in report.rungs}


def test_analyze_trajectory_classifies_every_rung_ever_recorded():
    documents = [
        doc(0, rung("grow-10k", wall=1.0), rung("dropped", wall=5.0, digest="x")),
        doc(1, rung("grow-10k", wall=1.1)),
        doc(2, rung("grow-10k", wall=1.15), rung("fresh-rung", wall=2.0, digest="y")),
    ]
    report = trend.analyze_trajectory(documents)
    assert {t.rung for t in report.rungs} == {"grow-10k", "dropped", "fresh-rung"}
    assert verdicts(report)["grow-10k"].classification == "flat"
    assert verdicts(report)["dropped"].classification == "new"
    assert verdicts(report)["fresh-rung"].classification == "new"
    assert len(verdicts(report)["grow-10k"].series) == 3
    assert report.ok


def test_gate_passes_and_fails_on_the_candidate():
    history_docs = [doc(0, rung(wall=1.0)), doc(1, rung(wall=1.05))]
    ok = trend.evaluate_gate(doc(2, rung(wall=1.1)), history_docs)
    assert ok.ok and verdicts(ok)["grow-10k"].classification == "flat"
    bad = trend.evaluate_gate(doc(2, rung(wall=2.0)), history_docs)
    assert not bad.ok
    assert [t.rung for t in bad.regressions] == ["grow-10k"]


def test_gate_never_fails_on_new_or_incomparable_rungs():
    history_docs = [doc(0, rung(wall=1.0))]
    candidate = doc(
        1, rung(wall=9.0, digest="CHANGED"), rung("brand-new", wall=9.0, digest="z")
    )
    report = trend.evaluate_gate(candidate, history_docs)
    assert report.ok
    assert verdicts(report)["grow-10k"].classification == "incomparable"
    assert verdicts(report)["brand-new"].classification == "new"


# ---------------------------------------------------------------------------
# The real committed trajectory (acceptance).
# ---------------------------------------------------------------------------


def test_committed_trajectory_fully_classifies():
    bench_dir = Path(__file__).resolve().parent.parent / "benchmarks"
    documents = load_trajectory(bench_dir)
    assert len(documents) >= 2, "the committed trajectory should have history"
    report = trend.analyze_trajectory(documents)
    assert report.rungs, "no rungs recorded?"
    for verdict in report.rungs:
        assert verdict.classification in (
            "improved", "flat", "regressed", "incomparable", "new"
        )
        assert verdict.series, f"{verdict.rung} has an empty series"
        assert verdict.describe()
