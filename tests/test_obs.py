"""Tests for the telemetry subsystem (``repro.obs``) and its session wiring."""

from __future__ import annotations

import json
import logging
import os
import threading

import pytest

import repro.api.session as session_module
from repro.api import Session, SimRequest, clear_memo
from repro.harness import smoke_config
from repro.harness.workloads import clear_caches
from repro.obs import (
    TELEMETRY_KEY,
    MetricsRegistry,
    TraceSchemaError,
    configure_logging,
    get_logger,
    hit_rate,
    load_trace,
    metrics,
    summarize_trace,
    to_chrome_trace,
    trace,
    validate_trace,
    write_trace,
)


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Every test starts from (and leaves behind) quiet global singletons."""
    trace.disable()
    trace.drain()
    metrics.reset()
    yield
    trace.disable()
    trace.drain()
    metrics.reset()
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.addHandler(logging.NullHandler())  # the import-time quiet default
    root.setLevel(logging.NOTSET)


@pytest.fixture(scope="module")
def config():
    return smoke_config()


def request_for(config, dataset="cora", **kwargs):
    return SimRequest.from_experiment(config, dataset, **kwargs)


# ---------------------------------------------------------------------------
# tracer
# ---------------------------------------------------------------------------


def test_disabled_tracer_is_a_shared_noop():
    first = trace.span("a", x=1)
    second = trace.span("b")
    assert first is second  # one preallocated null span, nothing per call
    with first:
        pass
    assert trace.events() == []


def test_enabled_span_records_the_event_fields():
    trace.enable()
    with trace.span("preprocess.partition", nodes=8):
        pass
    (event,) = trace.events()
    assert event["name"] == "preprocess.partition"
    assert event["args"] == {"nodes": 8}
    assert event["pid"] == os.getpid()
    assert event["tid"] == threading.get_ident()
    assert event["depth"] == 0
    assert event["parent"] is None
    assert event["dur_us"] >= 0
    assert isinstance(event["ts_us"], int)


def test_nested_spans_record_depth_parent_and_close_order():
    trace.enable()
    with trace.span("outer"):
        with trace.span("inner"):
            pass
    inner, outer = trace.events()  # inner closes (and records) first
    assert inner["name"] == "inner"
    assert inner["depth"] == 1
    assert inner["parent"] == "outer"
    assert outer["depth"] == 0
    assert outer["parent"] is None
    assert inner["ts_us"] >= outer["ts_us"]


def test_span_set_attaches_attributes_mid_span():
    trace.enable()
    with trace.span("suite.run") as span:
        span.set(experiments=3)
    (event,) = trace.events()
    assert event["args"] == {"experiments": 3}


def test_span_records_the_exception_type():
    trace.enable()
    with pytest.raises(ValueError):
        with trace.span("grow.phase", phase="agg"):
            raise ValueError("boom")
    (event,) = trace.events()
    assert event["args"] == {"phase": "agg", "error": "ValueError"}


def test_threads_keep_independent_span_stacks():
    trace.enable()
    ready = threading.Barrier(2)

    def nest(name):
        with trace.span(f"{name}.outer"):
            ready.wait()  # both threads hold their outer span open at once
            with trace.span(f"{name}.inner"):
                pass

    threads = [threading.Thread(target=nest, args=(n,)) for n in ("a", "b")]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    events = {event["name"]: event for event in trace.events()}
    assert events["a.inner"]["parent"] == "a.outer"
    assert events["b.inner"]["parent"] == "b.outer"


def test_collect_owns_events_and_restores_the_disabled_state():
    assert not trace.enabled
    with trace.collect() as events:
        with trace.span("workload.bundle"):
            pass
    assert [event["name"] for event in events] == ["workload.bundle"]
    assert not trace.enabled
    assert trace.events() == []  # the caller owns the captured events


def test_collect_keeps_the_buffer_when_tracing_was_already_on():
    trace.enable()
    with trace.span("before"):
        pass
    with trace.collect() as events:
        with trace.span("during"):
            pass
    assert [event["name"] for event in events] == ["during"]
    assert trace.enabled
    assert [event["name"] for event in trace.events()] == ["before", "during"]


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_snapshot_holds_the_counters_and_nothing_else():
    registry = MetricsRegistry()
    registry.inc("cache.hits")
    registry.inc("cache.hits", 2)
    assert registry.snapshot() == {"counters": {"cache.hits": 3}}
    assert registry.counter("cache.hits") == 3
    assert registry.counter("unknown") == 0


def test_merge_folds_a_worker_snapshot():
    registry = MetricsRegistry()
    registry.inc("runs")
    registry.merge({"counters": {"runs": 2, "new": 1}})
    registry.merge(None)  # workers with nothing to say are fine
    assert registry.snapshot() == {"counters": {"runs": 3, "new": 1}}


def test_scoped_isolates_a_region_and_restores_the_rest():
    registry = MetricsRegistry()
    registry.inc("outside", 10)
    with registry.scoped() as task:
        registry.inc("inside")
    assert task["counters"] == {"inside": 1}
    assert registry.snapshot()["counters"] == {"outside": 10}


def test_hit_rate_handles_the_no_lookup_case():
    assert hit_rate(0, 0) is None
    assert hit_rate(3, 1) == 0.75


# ---------------------------------------------------------------------------
# export and summary
# ---------------------------------------------------------------------------


def _fake_events():
    return [
        {
            "name": "session.run_batch",
            "ts_us": 1_000_100,
            "dur_us": 900.0,
            "pid": 10,
            "tid": 1,
            "depth": 0,
            "parent": None,
            "args": {"requests": 2},
        },
        {
            "name": "session.execute",
            "ts_us": 1_000_200,
            "dur_us": 700.0,
            "pid": 11,
            "tid": 1,
            "depth": 1,
            "parent": "session.run_batch",
            "args": {"dataset": "cora"},
        },
    ]


def test_chrome_trace_round_trip(tmp_path):
    snapshot = {"counters": {"session.memo_hits": 2, "session.fresh_runs": 2}}
    trace.ingest(_fake_events())
    metrics.merge(snapshot)
    path = write_trace(tmp_path / "run.trace.json")
    document = load_trace(path)  # load_trace validates on the way in
    spans = [e for e in document["traceEvents"] if e["ph"] == "X"]
    lanes = [e for e in document["traceEvents"] if e["ph"] == "M"]
    assert {e["pid"] for e in lanes} == {10, 11}  # one lane label per process
    assert [e["ts"] for e in spans] == [0, 100]  # shifted to a zero origin
    assert spans[1]["args"] == {"dataset": "cora", "parent": "session.run_batch"}
    assert document["otherData"]["metrics"] == snapshot


def test_write_trace_defaults_to_the_global_singletons(tmp_path):
    trace.enable()
    with trace.span("analysis.tiling"):
        pass
    metrics.inc("cache.hits")
    document = load_trace(write_trace(tmp_path / "global.trace.json"))
    assert [e["name"] for e in document["traceEvents"] if e["ph"] == "X"] == [
        "analysis.tiling"
    ]
    assert document["otherData"]["metrics"]["counters"] == {"cache.hits": 1}


@pytest.mark.parametrize(
    "document, message",
    [
        ([], "must be a JSON object"),
        ({}, "traceEvents list"),
        ({"traceEvents": [{"ph": "B", "name": "x"}]}, "unsupported phase"),
        ({"traceEvents": [{"ph": "X", "name": "x", "ts": 0, "dur": 1, "pid": 1}]}, "missing 'tid'"),
        (
            {"traceEvents": [{"ph": "X", "name": "x", "ts": -1, "dur": 1, "pid": 1, "tid": 1}]},
            "non-negative",
        ),
        ({"traceEvents": [], "otherData": 3}, "otherData"),
    ],
)
def test_validate_trace_rejects_malformed_documents(document, message):
    with pytest.raises(TraceSchemaError, match=message):
        validate_trace(document)


def test_summarize_trace_reports_spans_phases_and_caches():
    snapshot = {
        "counters": {
            "session.memo_hits": 1,
            "session.disk_hits": 0,
            "session.fresh_runs": 1,
            "cache.hits": 0,
            "cache.misses": 2,
            "cache.writes": 2,
            "session.batch_dedup": 1,
        }
    }
    text = summarize_trace(to_chrome_trace(_fake_events(), snapshot))
    assert "Top spans by total time" in text
    assert "Phase breakdown (root spans)" in text
    # Only session.run_batch is a root span, so it owns 100% of the phase time.
    assert "100.0%" in text
    assert "session memo" in text and "50.0%" in text
    assert "batch dedup" in text


def test_summarize_trace_without_spans_says_so():
    text = summarize_trace(to_chrome_trace([], {}))
    assert "trace contains no spans" in text
    assert "Cache behaviour" in text


# ---------------------------------------------------------------------------
# structured logging
# ---------------------------------------------------------------------------


def test_configure_logging_emits_json_lines_with_extras(capsys):
    configure_logging("debug")
    get_logger("harness.suite").info("suite finished", extra={"ran": 3})
    captured = capsys.readouterr()
    assert captured.out == ""
    record = json.loads(captured.err.strip())
    assert record["level"] == "info"
    assert record["logger"] == "repro.harness.suite"
    assert record["message"] == "suite finished"
    assert record["ran"] == 3
    assert "ts" in record


def test_configure_logging_is_idempotent_and_checks_the_level():
    configure_logging("info")
    configure_logging("warning")
    assert len(logging.getLogger("repro").handlers) == 1
    with pytest.raises(ValueError, match="unknown log level"):
        configure_logging("chatty")


def test_library_use_stays_silent_without_configuration(capsys):
    get_logger("dse.engine").warning("nobody should see this")
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == ""


# ---------------------------------------------------------------------------
# session wiring: byte identity, side-channel, metrics, LRU, progress
# ---------------------------------------------------------------------------


def _canonical(result):
    """The payload bytes that must be identical on every path.

    ``seconds`` is wall-clock (varies per run) and ``status`` says where the
    payload came from; everything else must match byte for byte.
    """
    payload = result.to_dict()
    payload.pop("seconds")
    payload.pop("status")
    return json.dumps(payload, sort_keys=True)


@pytest.mark.parametrize("tracing", [False, True], ids=["untraced", "traced"])
def test_payloads_are_byte_identical_on_every_path(config, tmp_path, tracing):
    if tracing:
        trace.enable()
    requests = [request_for(config, "cora"), request_for(config, "amazon")]

    clear_memo()
    serial = Session(use_cache=False).run_batch(requests)
    clear_memo()
    parallel = Session(use_cache=False, jobs=2).run_batch(requests)
    memo_session = Session(use_cache=False)
    memo_session.run_batch(requests)  # repopulates the memo after clear_memo
    memo = memo_session.run_batch(requests)
    disk_dir = tmp_path / "results"
    clear_memo()  # so the priming batch really executes and writes to disk
    Session(results_dir=disk_dir).run_batch(requests)
    clear_memo()
    disk = Session(results_dir=disk_dir).run_batch(requests)

    for variant in (parallel, memo, disk):
        assert [_canonical(r) for r in variant] == [_canonical(r) for r in serial]
    assert [r.status for r in memo] == ["cached", "cached"]
    assert [r.status for r in disk] == ["cached", "cached"]
    # The worker side-channel never leaks into payloads on any path.
    for result in serial + parallel + memo + disk:
        assert TELEMETRY_KEY not in json.dumps(result.to_dict())


def test_worker_spans_ship_home_through_the_side_channel(config):
    trace.enable()
    clear_memo()
    clear_caches()  # so each forked worker builds its bundle's HDN profile
    requests = [request_for(config, "cora"), request_for(config, "amazon")]
    results = Session(use_cache=False, jobs=2).run_batch(requests)
    assert [r.status for r in results] == ["ran", "ran"]
    executes = [e for e in trace.events() if e["name"] == "session.execute"]
    assert len(executes) == 2
    assert all(e["pid"] != os.getpid() for e in executes)  # recorded in workers
    assert any(e["name"] == "session.run_batch" for e in trace.events())
    # One rank profile built in each worker, merged home.
    assert metrics.counter("grow.hdn_profile.builds") == 2


def test_untraced_parallel_payloads_carry_no_side_channel(config):
    # trace disabled: workers must not pay for (or ship) telemetry at all.
    clear_memo()
    payload = session_module._execute_request(request_for(config, "cora").to_dict())
    assert TELEMETRY_KEY not in payload


def test_metrics_count_a_known_hit_miss_sequence(config):
    clear_memo()
    session = Session(use_cache=False)
    a, b = request_for(config, "cora"), request_for(config, "amazon")
    session.run_batch([a, a, b])  # fresh a, in-batch duplicate, fresh b
    counters = metrics.snapshot()["counters"]
    assert counters["session.requests"] == 3
    assert counters["session.fresh_runs"] == 2
    assert counters["session.batch_dedup"] == 1
    assert "session.memo_hits" not in counters
    session.run(a)  # now a memo hit
    assert metrics.counter("session.memo_hits") == 1


def test_disk_cache_hits_and_writes_are_counted(config, tmp_path):
    clear_memo()
    request = request_for(config, "cora")
    Session(results_dir=tmp_path).run(request)
    counters = metrics.snapshot()["counters"]
    assert counters["cache.misses"] >= 1
    assert counters["cache.writes"] >= 1
    assert "session.disk_hits" not in counters
    clear_memo()
    result = Session(results_dir=tmp_path).run(request)
    assert result.status == "cached"
    counters = metrics.snapshot()["counters"]
    assert counters["session.disk_hits"] == 1
    assert counters["cache.hits"] >= 1


def test_repeatedly_hit_memo_key_survives_eviction(config):
    clear_memo()
    session = Session(use_cache=False)
    a = request_for(config, "cora")
    b = request_for(config, "amazon")
    c = request_for(config, "cora", backend="gcnax")
    original_limit = session_module._MEMO_LIMIT
    session_module._MEMO_LIMIT = 2
    try:
        session.run(a)
        session.run(b)  # memo order: [a, b]
        session.run(a)  # memo hit refreshes a: [b, a]
        session.run(c)  # evicts the least-recent key, which must be b
        assert list(session_module._RUN_MEMO) == [a.cache_key(), c.cache_key()]
    finally:
        session_module._MEMO_LIMIT = original_limit
        clear_memo()


def test_progress_interleaves_hits_fresh_runs_and_duplicates(config):
    clear_memo()
    session = Session(use_cache=False)
    a = request_for(config, "cora")
    b = request_for(config, "amazon")
    session.run(a)  # prime the memo so a is a hit in the batch below
    seen: list[tuple[str, str]] = []
    session.run_batch([a, b, b], progress=lambda r: seen.append((r.request.dataset, r.status)))
    # The hit fires during the sweep (before b even starts), the fresh run
    # on completion, and the duplicate right after its source.
    assert seen == [("cora", "cached"), ("amazon", "ran"), ("amazon", "cached")]


def test_progress_fires_once_per_request_under_parallel_jobs(config):
    clear_memo()
    requests = [request_for(config, "cora"), request_for(config, "amazon")]
    seen: list[str] = []
    results = Session(use_cache=False, jobs=2).run_batch(
        requests, progress=lambda r: seen.append(r.request.dataset)
    )
    assert sorted(seen) == ["amazon", "cora"]  # completion order, both fire
    assert [r.status for r in results] == ["ran", "ran"]


# ---------------------------------------------------------------------------
# bench phases
# ---------------------------------------------------------------------------


def test_bench_sample_attributes_wall_clock_to_phases():
    from repro.bench import emit
    from repro.bench.ladder import run_rung

    sample = run_rung("grow-1k")
    assert sample["phases"]  # non-empty {span name: seconds}
    assert "session.execute" in sample["phases"]
    assert all(value >= 0 for value in sample["phases"].values())
    # Spans must not leak out of the bench's collection region.
    assert not trace.enabled
    assert trace.events() == []
    emit.build_document([sample])  # phases pass validation


def test_bench_schema_rejects_malformed_phases():
    from repro.bench import emit
    from repro.bench.ladder import run_rung

    sample = run_rung("grow-1k")
    sample["phases"] = {"session.execute": "fast"}
    with pytest.raises(emit.BenchSchemaError, match="phases"):
        emit.build_document([sample])


@pytest.mark.parametrize(
    "bad_value",
    [float("nan"), float("inf"), float("-inf"), -0.001, True, None, [1.0]],
)
def test_bench_schema_rejects_non_finite_phase_values(bad_value):
    # Regression: NaN/inf sail through a bare isinstance((int, float))
    # check and bool is an int subclass; all must be rejected with the
    # offending rung and key named.
    from repro.bench import emit
    from repro.bench.ladder import run_rung

    sample = run_rung("grow-1k")
    sample["phases"] = dict(sample["phases"], **{"grow.run_model": bad_value})
    with pytest.raises(emit.BenchSchemaError, match=r"grow-1k.*phases\['grow.run_model'\]"):
        emit.build_document([sample])


def test_bench_schema_rejects_non_string_phase_keys():
    from repro.bench import emit
    from repro.bench.ladder import run_rung

    sample = run_rung("grow-1k")
    phases = dict(sample["phases"])
    phases[42] = 1.0
    sample["phases"] = phases
    with pytest.raises(emit.BenchSchemaError, match="phases"):
        emit.build_document([sample])


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_sim_writes_a_valid_trace(tmp_path, capsys):
    from repro.__main__ import main

    clear_memo()
    path = tmp_path / "sim.trace.json"
    code = main(
        ["sim", "--backend", "grow", "--smoke", "--datasets", "cora",
         "--trace", str(path), "--json"]
    )
    assert code == 0
    captured = capsys.readouterr()
    assert "trace written to" in captured.err
    document = load_trace(path)
    names = {e["name"] for e in document["traceEvents"] if e["ph"] == "X"}
    assert "session.run_batch" in names
    assert "session.execute" in names
    assert document["otherData"]["metrics"]["counters"]["session.requests"] == 1


def test_cli_trace_prints_the_summary(tmp_path, capsys):
    from repro.__main__ import main

    trace.ingest(_fake_events())
    metrics.inc("session.fresh_runs", 2)
    path = write_trace(tmp_path / "t.json")
    assert main(["trace", str(path), "--top", "1"]) == 0
    out = capsys.readouterr().out
    assert "Top spans by total time (showing 1 of 2)" in out
    assert "Cache behaviour" in out


def test_cli_trace_rejects_an_unreadable_file(tmp_path):
    from repro.__main__ import main

    path = tmp_path / "broken.json"
    path.write_text("not json")
    with pytest.raises(SystemExit, match="cannot read trace"):
        main(["trace", str(path)])
    with pytest.raises(SystemExit, match="--top"):
        main(["trace", str(path), "--top", "0"])
