"""The performance dashboard: one self-contained HTML file, stdlib-only.

``repro dash OUT.html`` renders the committed ``BENCH_<n>.json``
trajectory plus the run ledger into a single file with **no external
resources** — inline CSS, inline SVG, zero JavaScript — so it can be
attached to a CI run or opened from a checkout offline.  A Markdown twin
(:func:`render_markdown`) serves terminals and PR comments.

Sections:

* per-rung trend cards — classification badge, wall-clock sparkline
  across the trajectory (hover a point for the exact figure), and
  phase-stacked bars per document;
* the shared phase legend (color follows the phase, fixed slot order);
* cache behaviour from the ledger (fresh/memo/disk/dedup, hit rate);
* the ledger tail (most recent runs).

Charts follow the repo's fixed visualization palette: an ordered
categorical ramp for phase identity (capped at seven slots + "other"),
reserved status colors for improved/regressed badges (always paired with
a text label, never color alone), ink/surface tokens with a dark mode
selected via ``prefers-color-scheme`` and overridable with
``data-theme``.  All text wears ink tokens, never a series color.

Like the rest of :mod:`repro.obs` this is stdlib-only: it renders
documents its caller loaded (:func:`repro.bench.emit.load_trajectory`).
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Sequence

from repro.obs import ledger as obs_ledger
from repro.obs.trend import DEFAULT_TOLERANCE, WINDOW, TrendReport, analyze_trajectory

_TITLE = "repro performance dashboard"

#: Disjoint leaf phases (no span contains another), stacked in this fixed
#: order; anything else — including the covering roots like
#: ``session.execute`` — lands in the synthetic "other" remainder so a
#: stacked bar never double-counts nested spans.
STACK_PHASES: tuple[str, ...] = (
    "workload.load_dataset",
    "workload.build_model",
    "preprocess.partition",
    "preprocess.hdn_select",
    "grow.run_model",
    "scaleout.shard_plan",
    "scaleout.compose",
)

#: Categorical palette, fixed slot order (light, dark) — identity only.
_SERIES = (
    ("#2a78d6", "#3987e5"),  # blue
    ("#eb6834", "#d95926"),  # orange
    ("#1baf7a", "#199e70"),  # aqua
    ("#eda100", "#c98500"),  # yellow
    ("#e87ba4", "#d55181"),  # magenta
    ("#008300", "#008300"),  # green
    ("#4a3aa7", "#9085e9"),  # violet
)

_BADGE_GLYPH = {
    "improved": "▼",
    "regressed": "▲",
    "flat": "→",
    "new": "＋",
    "incomparable": "≠",
}

_SPARK_BLOCKS = "▁▂▃▄▅▆▇█"


def _fmt_seconds(value: float | None) -> str:
    if value is None:
        return "-"
    if value >= 100:
        return f"{value:.0f}s"
    if value >= 1:
        return f"{value:.2f}s"
    return f"{value * 1000:.0f}ms"


def decompose_phases(phases: dict | None, wall_seconds: float) -> list[tuple[str, float]]:
    """Split a wall-clock figure into disjoint stacked segments.

    Picks the curated :data:`STACK_PHASES` present in the breakdown and
    adds an ``other`` remainder (wall minus the covered leaves, clamped
    at zero).  Returns ``[]`` when there is no breakdown at all.
    """
    if not phases:
        return []
    segments = [
        (name, float(phases[name])) for name in STACK_PHASES if phases.get(name)
    ]
    covered = sum(seconds for _, seconds in segments)
    other = max(float(wall_seconds) - covered, 0.0)
    if other > 0:
        segments.append(("other", other))
    return segments


# -- SVG pieces ------------------------------------------------------------


def _sparkline_svg(series: Sequence[dict], width: int = 260, height: int = 56) -> str:
    """Wall-clock sparkline: one blue series, hoverable points."""
    values = [float(entry["wall_seconds"]) for entry in series]
    if not values:
        return ""
    pad = 8
    lo, hi = min(values), max(values)
    span = (hi - lo) or max(hi, 1e-9)

    def x(i: int) -> float:
        if len(values) == 1:
            return width / 2
        return pad + i * (width - 2 * pad) / (len(values) - 1)

    def y(v: float) -> float:
        return height - pad - (v - lo) / span * (height - 2 * pad)

    points = " ".join(f"{x(i):.1f},{y(v):.1f}" for i, v in enumerate(values))
    parts = [
        f'<svg class="spark" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="wall seconds per document">'
    ]
    if len(values) > 1:
        parts.append(
            f'<polyline fill="none" stroke="var(--series-blue)" '
            f'stroke-width="2" stroke-linejoin="round" '
            f'stroke-linecap="round" points="{points}"/>'
        )
    for i, entry in enumerate(series):
        label = (
            f"BENCH_{entry.get('bench_id')} ({entry.get('git_rev', '?')}): "
            f"{_fmt_seconds(values[i])}"
        )
        radius = 4 if i == len(values) - 1 else 3
        parts.append(
            f'<circle cx="{x(i):.1f}" cy="{y(values[i]):.1f}" r="{radius}" '
            f'fill="var(--series-blue)" stroke="var(--surface-1)" '
            f'stroke-width="2"><title>{html.escape(label)}</title></circle>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _stacked_bars_svg(
    series: Sequence[dict],
    slots: dict[str, int],
    width: int = 420,
    bar_height: int = 14,
) -> str:
    """One horizontal phase-stacked bar per document appearance.

    Bar length is proportional to that appearance's wall-clock against
    the series maximum; segments follow the fixed slot colors with a
    2px surface gap between fills.
    """
    rows = [
        (entry, decompose_phases(entry.get("phases"), float(entry["wall_seconds"])))
        for entry in series
    ]
    rows = [(entry, segments) for entry, segments in rows if segments]
    if not rows:
        return ""
    label_w = 76
    gap = 2
    max_wall = max(float(entry["wall_seconds"]) for entry, _ in rows)
    height = len(rows) * (bar_height + 8)
    parts = [
        f'<svg class="stack" viewBox="0 0 {width} {height}" width="{width}" '
        f'height="{height}" role="img" aria-label="phase breakdown per document">'
    ]
    for row_index, (entry, segments) in enumerate(rows):
        top = row_index * (bar_height + 8)
        parts.append(
            f'<text x="0" y="{top + bar_height - 3}" class="svg-label">'
            f"BENCH_{entry.get('bench_id')}</text>"
        )
        total = sum(seconds for _, seconds in segments) or 1e-9
        bar_w = (width - label_w) * (float(entry["wall_seconds"]) / max_wall)
        cursor = float(label_w)
        for name, seconds in segments:
            seg_w = max(bar_w * (seconds / total) - gap, 0.0)
            if seg_w <= 0:
                continue
            fill = (
                "var(--ink-muted)"
                if name == "other"
                else f"var(--phase-{slots[name]})"
            )
            title = f"{name}: {_fmt_seconds(seconds)} of {_fmt_seconds(float(entry['wall_seconds']))}"
            parts.append(
                f'<rect x="{cursor:.1f}" y="{top}" width="{seg_w:.1f}" '
                f'height="{bar_height}" rx="1" fill="{fill}">'
                f"<title>{html.escape(title)}</title></rect>"
            )
            cursor += seg_w + gap
    parts.append("</svg>")
    return "".join(parts)


# -- HTML assembly ---------------------------------------------------------

_CSS = """
:root {
  color-scheme: light;
  --surface-1: #fcfcfb;
  --page: #f9f9f7;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --ink-muted: #898781;
  --grid: #e1e0d9;
  --border: rgba(11, 11, 11, 0.10);
  --series-blue: #2a78d6;
  --status-good: #0ca30c;
  --status-critical: #d03b3b;
__PHASE_LIGHT__
}
@media (prefers-color-scheme: dark) {
  :root:where(:not([data-theme="light"])) {
    color-scheme: dark;
    --surface-1: #1a1a19;
    --page: #0d0d0d;
    --ink: #ffffff;
    --ink-2: #c3c2b7;
    --ink-muted: #898781;
    --grid: #2c2c2a;
    --border: rgba(255, 255, 255, 0.10);
    --series-blue: #3987e5;
__PHASE_DARK__
  }
}
:root[data-theme="dark"] {
  color-scheme: dark;
  --surface-1: #1a1a19;
  --page: #0d0d0d;
  --ink: #ffffff;
  --ink-2: #c3c2b7;
  --ink-muted: #898781;
  --grid: #2c2c2a;
  --border: rgba(255, 255, 255, 0.10);
  --series-blue: #3987e5;
__PHASE_DARK__
}
* { box-sizing: border-box; }
body {
  margin: 0;
  padding: 24px;
  background: var(--page);
  color: var(--ink);
  font-family: system-ui, -apple-system, "Segoe UI", sans-serif;
  font-size: 14px;
  line-height: 1.45;
}
main { max-width: 980px; margin: 0 auto; }
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 15px; margin: 28px 0 10px; }
.sub { color: var(--ink-2); margin: 0 0 18px; }
.card {
  background: var(--surface-1);
  border: 1px solid var(--border);
  border-radius: 8px;
  padding: 14px 16px;
  margin: 10px 0;
}
.card-head { display: flex; align-items: baseline; gap: 10px; flex-wrap: wrap; }
.rung-name { font-weight: 600; font-size: 15px; }
.badge {
  font-size: 12px;
  font-weight: 600;
  padding: 1px 8px;
  border-radius: 999px;
  border: 1px solid var(--border);
  color: var(--ink-2);
}
.badge.improved { color: var(--status-good); border-color: var(--status-good); }
.badge.regressed { color: var(--status-critical); border-color: var(--status-critical); }
.figures { color: var(--ink-2); }
.figures b { color: var(--ink); font-weight: 600; }
.charts { display: flex; gap: 28px; flex-wrap: wrap; align-items: flex-start; margin-top: 10px; }
.svg-label { font-size: 10px; fill: var(--ink-muted); font-family: inherit; }
.legend { display: flex; gap: 14px; flex-wrap: wrap; margin: 8px 0 0; color: var(--ink-2); font-size: 12px; }
.legend .key { display: inline-flex; align-items: center; gap: 5px; }
.swatch { width: 10px; height: 10px; border-radius: 2px; display: inline-block; }
table { border-collapse: collapse; width: 100%; background: var(--surface-1); border: 1px solid var(--border); border-radius: 8px; }
th, td { text-align: left; padding: 6px 10px; border-bottom: 1px solid var(--grid); font-variant-numeric: tabular-nums; }
th { color: var(--ink-2); font-weight: 600; font-size: 12px; }
tr:last-child td { border-bottom: none; }
td.num, th.num { text-align: right; }
.empty { color: var(--ink-muted); font-style: italic; }
.suspects { margin: 8px 0 0; color: var(--ink-2); font-size: 13px; }
footer { margin-top: 28px; color: var(--ink-muted); font-size: 12px; }
"""


def _phase_slot_map(report: TrendReport) -> dict[str, int]:
    """Fixed slot per stacked phase — color follows the phase everywhere."""
    return {name: index + 1 for index, name in enumerate(STACK_PHASES)}


def _css(slots: dict[str, int]) -> str:
    light = "\n".join(
        f"  --phase-{slot}: {_SERIES[slot - 1][0]};" for slot in sorted(slots.values())
    )
    dark = "\n".join(
        f"    --phase-{slot}: {_SERIES[slot - 1][1]};" for slot in sorted(slots.values())
    )
    return _CSS.replace("__PHASE_LIGHT__", light).replace("__PHASE_DARK__", dark)


def _badge(classification: str) -> str:
    glyph = _BADGE_GLYPH.get(classification, "·")
    return (
        f'<span class="badge {html.escape(classification)}">'
        f"{glyph} {html.escape(classification)}</span>"
    )


def _legend_html(slots: dict[str, int], used: set[str]) -> str:
    keys = [
        f'<span class="key"><span class="swatch" '
        f'style="background: var(--phase-{slot})"></span>{html.escape(name)}</span>'
        for name, slot in slots.items()
        if name in used
    ]
    if "other" in used:
        keys.append(
            '<span class="key"><span class="swatch" '
            'style="background: var(--ink-muted)"></span>other</span>'
        )
    return f'<div class="legend">{"".join(keys)}</div>' if keys else ""


def _trend_cards(report: TrendReport, slots: dict[str, int]) -> tuple[str, set[str]]:
    cards = []
    used_phases: set[str] = set()
    for trend in report.rungs:
        for entry in trend.series:
            for name, _ in decompose_phases(
                entry.get("phases"), float(entry["wall_seconds"])
            ):
                used_phases.add(name)
        figures = f"<b>{_fmt_seconds(trend.wall_seconds)}</b>"
        if trend.ratio is not None:
            figures += (
                f" · x{trend.ratio:.2f} vs {_fmt_seconds(trend.baseline_seconds)} "
                f"(BENCH_{trend.baseline_bench_id})"
            )
        if trend.rss_ratio is not None:
            figures += f" · RSS x{trend.rss_ratio:.2f}"
        charts = _sparkline_svg(trend.series) + _stacked_bars_svg(trend.series, slots)
        suspects = ""
        if trend.suspects:
            movers = ", ".join(
                f"{html.escape(s['phase'])} {s['delta_seconds']:+.3f}s "
                f"({s['share'] * 100:.0f}%)"
                for s in trend.suspects
            )
            suspects = f'<p class="suspects">phases that moved: {movers}</p>'
        cards.append(
            f'<div class="card">'
            f'<div class="card-head"><span class="rung-name">{html.escape(trend.rung)}</span>'
            f'{_badge(trend.classification)}'
            f'<span class="figures">{figures}</span></div>'
            f'<div class="charts">{charts}</div>'
            f"{suspects}</div>"
        )
    return "".join(cards), used_phases


def _cache_table(summary: dict) -> str:
    cache = summary["cache"]
    rate = cache["hit_rate"]
    rows = [
        "<tr><th>outcome</th><th class=\"num\">runs</th></tr>",
        f"<tr><td>fresh</td><td class=\"num\">{cache['fresh']}</td></tr>",
        f"<tr><td>memo hit</td><td class=\"num\">{cache['memo']}</td></tr>",
        f"<tr><td>disk hit</td><td class=\"num\">{cache['disk']}</td></tr>",
        f"<tr><td>batch dedup</td><td class=\"num\">{cache['dedup']}</td></tr>",
        f"<tr><td>hit rate</td><td class=\"num\">"
        f"{'-' if rate is None else f'{rate * 100:.1f}%'}</td></tr>",
    ]
    return f"<table>{''.join(rows)}</table>"


def _ledger_tail_table(records: Sequence[dict], tail: int = 20) -> str:
    recent = list(records)[-tail:][::-1]
    if not recent:
        return '<p class="empty">ledger is empty or disabled</p>'
    rows = [
        "<tr><th>when (UTC)</th><th>kind</th><th>name</th>"
        "<th>outcome</th><th class=\"num\">wall</th><th>rev</th></tr>"
    ]
    for record in recent:
        wall = record.get("wall_seconds")
        rows.append(
            "<tr>"
            f"<td>{html.escape(str(record.get('ts', '?')))}</td>"
            f"<td>{html.escape(str(record.get('kind', '?')))}</td>"
            f"<td>{html.escape(str(record.get('name', '?')))}</td>"
            f"<td>{html.escape(str(record.get('outcome', '?')))}</td>"
            f"<td class=\"num\">"
            f"{_fmt_seconds(float(wall)) if isinstance(wall, (int, float)) else '-'}</td>"
            f"<td>{html.escape(str(record.get('git_rev', '?')))}</td>"
            "</tr>"
        )
    return f"<table>{''.join(rows)}</table>"


def render_dashboard(
    documents: Sequence[dict], ledger_records: Sequence[dict] = ()
) -> str:
    """The complete self-contained HTML document, as a string."""
    report = analyze_trajectory(documents)
    slots = _phase_slot_map(report)
    summary = obs_ledger.summarize_records(list(ledger_records))
    if report.rungs:
        cards, used_phases = _trend_cards(report, slots)
        trend_section = cards + _legend_html(slots, used_phases)
    else:
        trend_section = (
            '<p class="empty">no BENCH_&lt;n&gt;.json documents found — '
            "run <code>repro bench</code> first</p>"
        )
    verdict = (
        f"{len(report.regressions)} regression(s)" if not report.ok else "no regressions"
    )
    head = (
        f"<h1>{_TITLE}</h1>"
        f'<p class="sub">{len(documents)} bench document(s) · '
        f"{summary['total']} ledger record(s) · tolerance ±{DEFAULT_TOLERANCE * 100:.0f}% · "
        f"baseline window {WINDOW} · {verdict} · generated {obs_ledger.utc_now()}</p>"
    )
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{_TITLE}</title>\n"
        f"<style>{_css(slots)}</style>\n</head>\n<body>\n<main>\n"
        f"{head}"
        "<h2>Benchmark trajectory</h2>"
        f"{trend_section}"
        "<h2>Cache behaviour (from the ledger)</h2>"
        f"{_cache_table(summary)}"
        "<h2>Recent runs (ledger tail)</h2>"
        f"{_ledger_tail_table(list(ledger_records))}"
        f"<footer>self-contained: inline SVG + CSS, no scripts, no external "
        f"resources · repro obs analytics</footer>\n"
        "</main>\n</body>\n</html>\n"
    )


# -- Markdown twin ---------------------------------------------------------


def _text_sparkline(values: Sequence[float]) -> str:
    if not values:
        return ""
    lo, hi = min(values), max(values)
    span = (hi - lo) or max(hi, 1e-9)
    return "".join(
        _SPARK_BLOCKS[
            min(int((v - lo) / span * (len(_SPARK_BLOCKS) - 1)), len(_SPARK_BLOCKS) - 1)
        ]
        for v in values
    )


def render_markdown(
    documents: Sequence[dict],
    ledger_records: Sequence[dict] = (),
) -> str:
    """The dashboard's terminal/PR-comment twin."""
    report = analyze_trajectory(documents)
    summary = obs_ledger.summarize_records(list(ledger_records))
    lines = [
        "# Performance dashboard",
        "",
        f"{len(documents)} bench document(s), {summary['total']} ledger record(s); "
        f"tolerance ±{DEFAULT_TOLERANCE * 100:.0f}%, baseline window {WINDOW}.",
        "",
        "## Benchmark trajectory",
        "",
    ]
    if report.rungs:
        lines.append("| rung | trend | wall | baseline | ratio | history |")
        lines.append("|---|---|---|---|---|---|")
        for trend in report.rungs:
            spark = _text_sparkline(
                [float(e["wall_seconds"]) for e in trend.series]
            )
            ratio = f"x{trend.ratio:.2f}" if trend.ratio is not None else "-"
            baseline = (
                f"{_fmt_seconds(trend.baseline_seconds)} (BENCH_{trend.baseline_bench_id})"
                if trend.baseline_seconds is not None
                else "-"
            )
            lines.append(
                f"| {trend.rung} | {trend.classification} | "
                f"{_fmt_seconds(trend.wall_seconds)} | {baseline} | {ratio} | "
                f"`{spark}` |"
            )
        for trend in report.rungs:
            if trend.suspects:
                movers = ", ".join(
                    f"{s['phase']} {s['delta_seconds']:+.3f}s ({s['share'] * 100:.0f}%)"
                    for s in trend.suspects
                )
                lines += ["", f"- `{trend.rung}` phases that moved: {movers}"]
    else:
        lines.append("_no BENCH documents found — run `repro bench` first_")
    cache = summary["cache"]
    rate = cache["hit_rate"]
    lines += [
        "",
        "## Cache behaviour",
        "",
        "| fresh | memo | disk | dedup | hit rate |",
        "|---|---|---|---|---|",
        f"| {cache['fresh']} | {cache['memo']} | {cache['disk']} | {cache['dedup']} | "
        f"{'-' if rate is None else f'{rate * 100:.1f}%'} |",
    ]
    if summary["slowest_phases"]:
        lines += ["", "## Slowest phases", "", "| phase | runs | total | mean |", "|---|---|---|---|"]
        for row in summary["slowest_phases"]:
            lines.append(
                f"| {row['phase']} | {row['count']} | "
                f"{_fmt_seconds(row['total_seconds'])} | "
                f"{_fmt_seconds(row['mean_seconds'])} |"
            )
    return "\n".join(lines) + "\n"


def write_dashboard(
    out_path: Path | str,
    documents: Sequence[dict],
    ledger_path: Path | str | None = None,
    markdown_path: Path | str | None = None,
) -> Path:
    """Render a loaded trajectory plus the ledger and write it; returns the HTML path.

    ``ledger_path`` defaults to the active ledger location
    (:func:`repro.obs.ledger.ledger_path`); a missing or disabled ledger
    renders an empty tail rather than failing.
    """
    if ledger_path is None:
        ledger_path = obs_ledger.ledger_path()
    records: list[dict] = []
    if ledger_path is not None:
        records, _ = obs_ledger.load_ledger(ledger_path)
    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    out_path.write_text(render_dashboard(documents, records))
    if markdown_path is not None:
        markdown_path = Path(markdown_path)
        markdown_path.parent.mkdir(parents=True, exist_ok=True)
        markdown_path.write_text(render_markdown(documents, records))
    return out_path
