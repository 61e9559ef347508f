"""Fault injection: dead pool workers, torn cache entries, racing writers.

Pool workers are forked, so backends and experiments a test registers in
this process reach them; on a host whose default start method is not
``fork`` the worker-death tests are skipped.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.api import Session, SimRequest, clear_memo, register_backend
from repro.api.backends import _BACKENDS
from repro.api.pool import WorkerDied
from repro.harness import ExperimentResult, ResultCache, SuiteRunner, smoke_config
from repro.harness.registry import register, unregister
from repro.obs import ledger

needs_fork = pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="test-registered backends and experiments reach workers only when forked",
)


def _result(value: float, rows: int = 1) -> ExperimentResult:
    result = ExperimentResult(
        name="demo", paper_reference="-", description="d", columns=["x"]
    )
    for offset in range(rows):
        result.add_row(x=value + offset)
    return result


def _comparable(run) -> dict:
    """A run's payload minus how it was satisfied (status, wall-clock)."""
    payload = run.to_dict()
    payload.pop("status")
    payload.pop("seconds")
    return payload


# ---------------------------------------------------------------------------
# A worker that dies mid-task.


class _ExitBackend:
    name = "exit-test"

    def run(self, request, session=None):
        os._exit(3)


@needs_fork
def test_dead_session_worker_raises_worker_died_naming_the_request(tmp_path, monkeypatch):
    ledger_path = tmp_path / "ledger.jsonl"
    monkeypatch.setenv(ledger.LEDGER_ENV, str(ledger_path))
    config = smoke_config()
    register_backend(_ExitBackend())
    try:
        clear_memo()
        requests = [
            SimRequest.from_experiment(config, name, backend="exit-test")
            for name in config.datasets
        ]
        with pytest.raises(WorkerDied, match="exit-test:"):
            Session(use_cache=False, jobs=2).run_batch(requests)
    finally:
        _BACKENDS.pop("exit-test", None)
    records, _ = ledger.load_ledger(ledger_path)
    assert [r["outcome"] for r in records if r.get("backend") == "exit-test"] == ["failed"]


@needs_fork
def test_dead_suite_worker_fails_its_experiment_and_the_suite_finishes(tmp_path):
    results_dir = tmp_path / "results"
    cache_dir = results_dir / "cache"

    @register("_test_dying_experiment")
    def dying_experiment(cfg):
        # Die only once the sibling's result has reached the parent (the
        # parent writes its cache entry), so the sibling finishes first.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline and not any(
            cache_dir.glob("table1_datasets-*.json")
        ):
            time.sleep(0.02)
        os._exit(3)

    try:
        report = SuiteRunner(
            config=smoke_config(),
            experiments=["table1_datasets", "_test_dying_experiment"],
            jobs=2,
            results_dir=results_dir,
        ).run()
    finally:
        unregister("_test_dying_experiment")
    failure = report.outcome("_test_dying_experiment")
    assert failure.status == "failed" and "worker" in failure.error
    assert report.outcome("table1_datasets").status == "ran"
    summary = json.loads((results_dir / "suite_report.json").read_text())
    assert summary["summary"] == {"ran": 1, "cached": 0, "failed": 1}


# ---------------------------------------------------------------------------
# Torn, vanished and unreadable entries.


def test_truncated_entry_is_a_clean_miss_then_rewritten_and_hit(tmp_path):
    request = SimRequest.from_experiment(smoke_config(), "cora")
    clear_memo()
    fresh = Session(results_dir=tmp_path, memoize=False).run(request)
    (entry,) = (tmp_path / "cache").glob("api-*.json")
    entry.write_bytes(entry.read_bytes()[:100])

    recomputed = Session(results_dir=tmp_path, memoize=False).run(request)
    assert recomputed.status == "ran"
    json.loads(entry.read_text())  # rewritten whole
    hit = Session(results_dir=tmp_path, memoize=False).run(request)
    assert hit.status == "cached"
    assert json.dumps(_comparable(hit)) == json.dumps(_comparable(recomputed))
    assert _comparable(hit) == _comparable(fresh)


def test_entry_vanishing_or_unreadable_is_a_miss(tmp_path, monkeypatch):
    config = smoke_config()
    cache = ResultCache(tmp_path)
    path = cache.put("demo", config, _result(1.0))
    # A directory where the entry should be cannot be read.
    path.unlink()
    path.mkdir()
    assert cache.get("demo", config) is None
    path.rmdir()
    # A concurrent clear() or prune can remove the entry after any
    # existence check: model that check still seeing it.
    monkeypatch.setattr(Path, "exists", lambda self: True)
    assert cache.get("demo", config) is None


# ---------------------------------------------------------------------------
# Atomic writes.


def test_failed_put_keeps_the_previous_entry_and_leaves_no_temp_file(tmp_path, monkeypatch):
    config = smoke_config()
    cache = ResultCache(tmp_path)
    path = cache.put("demo", config, _result(1.0))
    before = path.read_bytes()

    def refuse(source, destination):
        raise OSError("simulated crash before the rename")

    monkeypatch.setattr("repro.harness.cache.os.replace", refuse)
    with pytest.raises(OSError, match="simulated crash"):
        cache.put("demo", config, _result(2.0))
    monkeypatch.undo()
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def _hammer(directory: Path, config, rounds: int) -> None:
    cache = ResultCache(directory, code_version="race")
    for value in range(rounds):
        cache.put("race", config, _result(float(value), rows=500))


def test_racing_writers_never_tear_an_entry(tmp_path):
    config = smoke_config()
    context = multiprocessing.get_context("fork")
    writers = [
        context.Process(target=_hammer, args=(tmp_path, config, 100)) for _ in range(2)
    ]
    for writer in writers:
        writer.start()
    reader = ResultCache(tmp_path, code_version="race")
    seen = False
    # Once the entry exists, every read while the writers replace it must
    # be a hit: a reader never sees a partly written file.
    while any(writer.is_alive() for writer in writers):
        hit = reader.get("race", config)
        seen = seen or hit is not None
        assert hit is not None or not seen
    for writer in writers:
        writer.join(timeout=60)
        assert writer.exitcode == 0
    (entry,) = reader.entries()
    assert json.loads(entry.read_text())["code_version"] == "race"
    assert reader.get("race", config) is not None
    assert [p.name for p in tmp_path.iterdir()] == [entry.name]
