"""Tests for the BENCH_<n>.json trajectory: schema, numbering, digests.

Everything runs against a temporary directory; the committed trajectory
in ``benchmarks/`` is never touched.  The smoke test at the bottom runs
the real ``grow-1k`` rung in-process, so the whole module stays fast.
"""

import io
import json

import pytest

from repro.bench import (
    BenchSchemaError,
    DEFAULT_LADDER,
    FULL_LADDER,
    RUNGS,
    build_document,
    latest_bench_path,
    load_bench,
    next_bench_number,
    run_bench,
    run_rung,
    scenario_digest,
    validate_document,
    write_bench,
)


def sample(rung="grow-1k", wall=1.0, **overrides):
    record = {
        "rung": rung,
        "kind": RUNGS[rung].kind,
        "description": RUNGS[rung].description,
        "scenario_digest": scenario_digest(rung),
        "wall_seconds": wall,
        "wall_samples": [wall],
        "peak_rss_kb": 1024,
        "metrics": {"cycles": 123.0},
    }
    record.update(overrides)
    return record


def document(*samples_, **kwargs):
    return build_document(list(samples_) or [sample()], git_rev="deadbee", **kwargs)


# ---------------------------------------------------------------------------
# Schema round-trip and validation.
# ---------------------------------------------------------------------------


def test_round_trip_preserves_document(tmp_path):
    original = document(sample(), sample("grow-10k", wall=2.5))
    path = write_bench(original, tmp_path)
    assert path.name == "BENCH_0.json"
    loaded = load_bench(path)
    assert loaded["bench_id"] == 0
    assert loaded["git_rev"] == "deadbee"
    assert loaded["rungs"] == original["rungs"]
    assert loaded["schema_version"] == original["schema_version"]


def test_build_document_rejects_empty_samples():
    with pytest.raises(BenchSchemaError):
        build_document([], git_rev="deadbee")


def test_validate_rejects_missing_top_level_key():
    doc = document()
    doc["bench_id"] = 0
    del doc["git_rev"]
    with pytest.raises(BenchSchemaError, match="git_rev"):
        validate_document(doc)


def test_validate_rejects_wrong_schema_version():
    doc = document()
    doc["bench_id"] = 0
    doc["schema_version"] = 999
    with pytest.raises(BenchSchemaError, match="schema_version"):
        validate_document(doc)


def test_validate_rejects_unnumbered_document_by_default():
    doc = document()
    assert doc["bench_id"] is None
    with pytest.raises(BenchSchemaError, match="bench_id"):
        validate_document(doc)
    validate_document(doc, allow_unnumbered=True)


def test_validate_rejects_duplicate_rungs():
    with pytest.raises(BenchSchemaError, match="twice"):
        document(sample(), sample())


def test_validate_rejects_negative_wall():
    with pytest.raises(BenchSchemaError, match="wall_seconds"):
        document(sample(wall=-0.5))


def test_validate_rejects_missing_rung_key():
    bad = sample()
    del bad["scenario_digest"]
    with pytest.raises(BenchSchemaError, match="scenario_digest"):
        document(bad)


def test_load_rejects_invalid_json(tmp_path):
    path = tmp_path / "BENCH_0.json"
    path.write_text("{not json")
    with pytest.raises(BenchSchemaError, match="not valid JSON"):
        load_bench(path)


# ---------------------------------------------------------------------------
# Monotonic numbering.
# ---------------------------------------------------------------------------


def test_numbering_starts_at_zero_and_increments(tmp_path):
    assert next_bench_number(tmp_path) == 0
    assert latest_bench_path(tmp_path) is None
    first = write_bench(document(), tmp_path)
    second = write_bench(document(), tmp_path)
    assert (first.name, second.name) == ("BENCH_0.json", "BENCH_1.json")
    assert latest_bench_path(tmp_path) == second
    assert next_bench_number(tmp_path) == 2


def test_numbering_continues_past_gaps(tmp_path):
    doc = document()
    doc["bench_id"] = 5
    (tmp_path / "BENCH_5.json").write_text(json.dumps(doc))
    assert next_bench_number(tmp_path) == 6
    path = write_bench(document(), tmp_path)
    assert path.name == "BENCH_6.json"


def test_numbering_ignores_foreign_files(tmp_path):
    (tmp_path / "BENCH_notes.txt").write_text("x")
    (tmp_path / "RESULTS_3.json").write_text("{}")
    assert next_bench_number(tmp_path) == 0


# ---------------------------------------------------------------------------
# Scenario digests.
# ---------------------------------------------------------------------------


def test_digests_are_stable_across_calls():
    for name in RUNGS:
        assert scenario_digest(name) == scenario_digest(RUNGS[name])


def test_digests_distinguish_rungs():
    digests = {scenario_digest(name) for name in RUNGS}
    assert len(digests) == len(RUNGS)


def test_ladders_reference_known_rungs():
    assert set(DEFAULT_LADDER) <= set(RUNGS)
    assert set(FULL_LADDER) <= set(RUNGS)
    assert "grow-1m" in FULL_LADDER and "grow-1m" not in DEFAULT_LADDER


# ---------------------------------------------------------------------------
# End to end: the real grow-1k rung through run_rung and run_bench.
# ---------------------------------------------------------------------------


def test_run_rung_rejects_unknown_names():
    with pytest.raises(ValueError, match="unknown bench rung"):
        run_rung("grow-3k")


def test_tiny_ladder_smoke(tmp_path):
    # Two consecutive in-process runs of the cheapest rung: the first
    # seeds the trajectory, the second emits BENCH_1 and is gated against
    # it. A 1000x tolerance band keeps VM noise out.
    out = io.StringIO()
    assert run_bench(
        rungs=["grow-1k"], bench_dir=tmp_path, isolated=False, out=out
    ) == 0
    assert run_bench(
        rungs=["grow-1k"],
        bench_dir=tmp_path,
        isolated=False,
        gate_tolerance=1000.0,
        out=out,
    ) == 0

    first = load_bench(tmp_path / "BENCH_0.json")
    second = load_bench(tmp_path / "BENCH_1.json")
    assert first["bench_id"] == 0 and second["bench_id"] == 1
    (rung_a,) = first["rungs"]
    (rung_b,) = second["rungs"]
    assert rung_a["rung"] == rung_b["rung"] == "grow-1k"
    assert rung_a["scenario_digest"] == scenario_digest("grow-1k")
    # The simulated metrics are deterministic even though wall-clock is not.
    assert rung_a["metrics"] == rung_b["metrics"]
    assert rung_a["metrics"]["cycles"] > 0
    assert "BENCH_1.json" in out.getvalue()
    assert "grow-1k:" in out.getvalue()


def test_run_bench_rejects_unknown_rungs(tmp_path):
    with pytest.raises(ValueError, match="unknown bench rung"):
        run_bench(rungs=["nope"], bench_dir=tmp_path, isolated=False)


def test_run_bench_no_emit_writes_nothing(tmp_path):
    out = io.StringIO()
    assert (
        run_bench(
            rungs=["grow-1k"],
            bench_dir=tmp_path,
            isolated=False,
            emit_json=False,
            out=out,
        )
        == 0
    )
    assert list(tmp_path.iterdir()) == []
