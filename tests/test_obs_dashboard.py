"""Tests for the self-contained HTML dashboard (``repro.obs.dashboard``).

"Self-contained" is a contract, not a vibe: the HTML must carry zero
external references (no http(s) URLs, no scripts, no CSS imports) so it
can be archived as a CI artifact and opened offline years later.
"""

from __future__ import annotations

import pytest

from repro.obs import dashboard, ledger
from test_obs_trend import doc, rung


def trajectory():
    phases_a = {"grow.run_model": 0.6, "workload.load_dataset": 0.3}
    phases_b = {"grow.run_model": 0.7, "workload.load_dataset": 0.3}
    return [
        doc(0, rung("grow-10k", wall=1.0, phases=phases_a)),
        doc(1, rung("grow-10k", wall=1.1, phases=phases_b),
            rung("dse-smoke", wall=2.0, digest="dse")),
    ]


def records():
    return [
        ledger.make_record("session", "grow:cora", outcome="fresh", wall_seconds=1.0,
                           phases={"grow.run_model": 0.8}),
        ledger.make_record("session", "grow:cora", outcome="memo"),
        ledger.make_record("bench", "grow-10k", outcome="ok", wall_seconds=1.1),
    ]


# ---------------------------------------------------------------------------
# decompose_phases: disjoint stacking.
# ---------------------------------------------------------------------------


def test_decompose_uses_only_disjoint_leaves_plus_other():
    phases = {
        "session.execute": 1.0,       # covering root: must NOT be stacked
        "grow.run_model": 0.6,
        "workload.load_dataset": 0.25,
    }
    segments = dict(dashboard.decompose_phases(phases, 1.0))
    assert "session.execute" not in segments
    assert segments["grow.run_model"] == pytest.approx(0.6)
    assert segments["other"] == pytest.approx(0.15)
    assert sum(segments.values()) == pytest.approx(1.0)


def test_decompose_clamps_other_at_zero():
    segments = dict(dashboard.decompose_phases({"grow.run_model": 1.5}, 1.0))
    assert "other" not in segments


def test_decompose_without_breakdown_is_empty():
    assert dashboard.decompose_phases(None, 1.0) == []
    assert dashboard.decompose_phases({}, 1.0) == []


# ---------------------------------------------------------------------------
# The HTML contract.
# ---------------------------------------------------------------------------


def test_dashboard_is_self_contained():
    html_text = dashboard.render_dashboard(trajectory(), records())
    lowered = html_text.lower()
    assert "http://" not in lowered
    assert "https://" not in lowered
    assert "<script" not in lowered
    assert "@import" not in lowered
    assert "url(" not in lowered
    assert "<link" not in lowered


def test_dashboard_renders_the_content(monkeypatch):
    monkeypatch.setattr(ledger, "utc_now", lambda: "2026-08-08T00:00:00Z")
    html_text = dashboard.render_dashboard(trajectory(), records())
    assert html_text.startswith("<!DOCTYPE html>")
    assert "<svg" in html_text                      # sparklines + stacked bars
    assert "grow-10k" in html_text
    assert "flat" in html_text                      # classification badge text
    assert "prefers-color-scheme: dark" in html_text
    assert "memo hit" in html_text                  # cache table
    assert "grow:cora" in html_text                 # ledger tail
    assert "2026-08-08T00:00:00Z" in html_text


def test_dashboard_without_ledger_or_documents_still_renders():
    html_text = dashboard.render_dashboard([], [])
    assert "no BENCH_" in html_text
    assert "ledger is empty or disabled" in html_text


def test_ledger_text_is_escaped():
    hostile = [ledger.make_record("session", "<script>alert(1)</script>")]
    html_text = dashboard.render_dashboard(trajectory(), hostile)
    assert "<script" not in html_text
    assert "&lt;script&gt;" in html_text


# ---------------------------------------------------------------------------
# The Markdown twin and the file writer.
# ---------------------------------------------------------------------------


def test_markdown_twin_carries_the_tables():
    text = dashboard.render_markdown(trajectory(), records())
    assert "| rung | trend |" in text
    assert "grow-10k" in text
    assert "## Cache behaviour" in text
    assert "## Slowest phases" in text


def test_write_dashboard_round_trip(tmp_path):
    book = ledger.RunLedger(tmp_path / "ledger.jsonl")
    for record in records():
        book.append(record)
    out = tmp_path / "dash" / "index.html"
    markdown = tmp_path / "dash" / "index.md"
    result = dashboard.write_dashboard(
        out,
        trajectory(),
        ledger_path=tmp_path / "ledger.jsonl",
        markdown_path=markdown,
    )
    assert result == out
    assert "<svg" in out.read_text()
    assert "| rung | trend |" in markdown.read_text()


def test_write_dashboard_tolerates_missing_ledger(tmp_path, monkeypatch):
    monkeypatch.setenv(ledger.LEDGER_ENV, "0")
    out = dashboard.write_dashboard(tmp_path / "d.html", trajectory()[:1])
    assert "ledger is empty or disabled" in out.read_text()
