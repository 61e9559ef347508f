"""CLI tests for the analytics verbs: ``stats``, ``dash``, the ``trace``
zero-span fix and the ``bench`` trend-gate round-trip.

Everything runs the real entry points in-process (``repro.__main__.main``
/ ``repro.bench.runner.run_bench``) against temporary directories; the
committed trajectory and ledger are never touched (the conftest pins
``REPRO_LEDGER=0`` and tests opt back in on tmp paths).
"""

from __future__ import annotations

import io
import json

import pytest

from repro.__main__ import main
from repro.obs import ledger


@pytest.fixture(autouse=True)
def reenable_ledger():
    # --no-ledger flips a process-wide flag; never leak it across tests.
    yield
    ledger.enable_ledger()


@pytest.fixture
def live_ledger(tmp_path, monkeypatch):
    path = tmp_path / "ledger.jsonl"
    monkeypatch.setenv(ledger.LEDGER_ENV, str(path))
    book = ledger.RunLedger(path)
    book.append(ledger.make_record("session", "grow:cora", outcome="fresh",
                                   wall_seconds=1.5, backend="grow", dataset="cora",
                                   phases={"grow.run_model": 1.0}))
    book.append(ledger.make_record("session", "grow:cora", outcome="memo",
                                   backend="grow", dataset="cora"))
    book.append(ledger.make_record("bench", "grow-10k", outcome="ok",
                                   wall_seconds=0.4))
    return path


# ---------------------------------------------------------------------------
# repro stats
# ---------------------------------------------------------------------------


def test_stats_summarises_the_ledger(live_ledger, capsys):
    assert main(["stats"]) == 0
    out = capsys.readouterr().out
    assert "3 matching record(s)" in out
    assert "Runs by kind" in out
    assert "grow.run_model" in out
    assert "50.0%" in out  # 1 memo hit / 2 session lookups


def test_stats_filters_compose(live_ledger, capsys):
    assert main(["stats", "--kind", "session", "--outcome", "fresh"]) == 0
    out = capsys.readouterr().out
    assert "1 matching record(s)" in out


def test_stats_json_and_last(live_ledger, capsys):
    assert main(["stats", "--json", "--last", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["total"] == 3
    assert payload["bad_lines"] == 0
    assert len(payload["last"]) == 2
    assert payload["cache"]["hit_rate"] == pytest.approx(0.5)


def test_stats_reports_corrupt_lines(live_ledger, capsys):
    with live_ledger.open("a") as handle:
        handle.write("{torn")
    assert main(["stats"]) == 0
    assert "1 corrupt line(s) skipped" in capsys.readouterr().out


def test_stats_explicit_ledger_flag(live_ledger, monkeypatch, capsys):
    monkeypatch.setenv(ledger.LEDGER_ENV, "0")
    assert main(["stats", "--ledger", str(live_ledger)]) == 0
    assert "3 matching record(s)" in capsys.readouterr().out


def test_stats_fails_cleanly_when_disabled(monkeypatch, capsys):
    monkeypatch.setenv(ledger.LEDGER_ENV, "0")
    assert main(["stats"]) == 1
    assert "disabled" in capsys.readouterr().err


def test_stats_fails_cleanly_when_missing(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv(ledger.LEDGER_ENV, str(tmp_path / "none.jsonl"))
    assert main(["stats"]) == 1
    assert "no ledger at" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro dash
# ---------------------------------------------------------------------------


def _bench_dir(tmp_path):
    from test_obs_trend import doc, rung

    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    documents = [
        doc(0, rung("grow-10k", wall=1.0, phases={"grow.run_model": 0.7})),
        doc(1, rung("grow-10k", wall=1.05, phases={"grow.run_model": 0.72})),
    ]
    for document in documents:
        (bench_dir / f"BENCH_{document['bench_id']}.json").write_text(
            json.dumps(document)
        )
    return bench_dir


def test_dash_writes_html_and_markdown(live_ledger, tmp_path, capsys):
    out_html = tmp_path / "dash.html"
    out_md = tmp_path / "dash.md"
    code = main([
        "dash", str(out_html),
        "--bench-dir", str(_bench_dir(tmp_path)),
        "--markdown", str(out_md),
    ])
    assert code == 0
    html_text = out_html.read_text()
    assert "<svg" in html_text and "grow-10k" in html_text
    assert "grow:cora" in html_text  # the tmp ledger's tail made it in
    assert "| rung | trend |" in out_md.read_text()
    stdout = capsys.readouterr().out
    assert str(out_html) in stdout and str(out_md) in stdout


def test_dash_validates_parameters(tmp_path):
    with pytest.raises(SystemExit):
        main(["dash", str(tmp_path / "x.html"), "--tolerance", "0"])
    with pytest.raises(SystemExit):
        main(["dash", str(tmp_path / "x.html"), "--window", "0"])


# ---------------------------------------------------------------------------
# repro trace: zero complete spans (satellite fix)
# ---------------------------------------------------------------------------


def test_trace_with_no_complete_spans_exits_nonzero(tmp_path, capsys):
    path = tmp_path / "empty.trace.json"
    path.write_text(json.dumps({"traceEvents": [], "otherData": {}}))
    assert main(["trace", str(path)]) == 1
    err = capsys.readouterr().err
    assert "no complete spans" in err


def test_trace_metadata_only_is_still_empty(tmp_path, capsys):
    # process_name metadata events are not complete ("X") spans.
    path = tmp_path / "meta.trace.json"
    path.write_text(json.dumps({
        "traceEvents": [
            {"ph": "M", "name": "process_name", "pid": 1, "args": {"name": "x"}}
        ],
        "otherData": {},
    }))
    assert main(["trace", str(path)]) == 1
    assert "no complete spans" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# repro bench's trend gate: the end-to-end round trip (acceptance).
# ---------------------------------------------------------------------------


def test_bench_gate_round_trip(tmp_path, monkeypatch, capsys):
    from repro.bench.runner import run_bench

    ledger_path = tmp_path / "ledger.jsonl"
    monkeypatch.setenv(ledger.LEDGER_ENV, str(ledger_path))
    bench_dir = tmp_path / "bench"
    buffer = io.StringIO()

    # First run: no history, the rung classifies as new, the gate passes.
    assert run_bench(rungs=["grow-1k"], bench_dir=bench_dir, isolated=False,
                     out=buffer) == 0
    assert "new rung" in buffer.getvalue()
    assert (bench_dir / "BENCH_0.json").exists()

    # Second run: history exists; a generous band must pass.
    buffer = io.StringIO()
    assert run_bench(rungs=["grow-1k"], bench_dir=bench_dir, isolated=False,
                     gate_tolerance=50.0, out=buffer) == 0
    assert "trend gate passed" in buffer.getvalue()

    # Each measured rung left a bench line in the ledger.
    records, bad = ledger.load_ledger(ledger_path)
    bench_records = [r for r in records if r["kind"] == "bench"]
    assert bad == [] and len(bench_records) == 2
    assert all(r["name"] == "grow-1k" and r["scenario_digest"] for r in bench_records)

    # An absurdly tight band must fail and attribute the regression.
    buffer = io.StringIO()
    code = run_bench(rungs=["grow-1k"], bench_dir=bench_dir, isolated=False,
                     gate_tolerance=1e-9, out=buffer)
    text = buffer.getvalue()
    if code == 1:  # a min-of-window tie can legitimately squeak through
        assert "trend gate FAILED" in text

    # stats and dash close the loop over the artifacts this test created.
    assert main(["stats", "--kind", "bench"]) == 0
    assert "grow-1k" in capsys.readouterr().out
    out_html = tmp_path / "dash.html"
    assert main(["dash", str(out_html), "--bench-dir", str(bench_dir)]) == 0
    html_text = out_html.read_text()
    assert "grow-1k" in html_text and "<svg" in html_text


def test_bench_no_ledger_flag_suppresses_records(tmp_path, monkeypatch):
    from repro.bench.runner import main as bench_main

    ledger_path = tmp_path / "ledger.jsonl"
    monkeypatch.setenv(ledger.LEDGER_ENV, str(ledger_path))
    code = bench_main([
        "--rungs", "grow-1k", "--in-process", "--no-emit", "--no-ledger",
        "--bench-dir", str(tmp_path / "bench"),
    ])
    assert code == 0
    assert not ledger_path.exists()
