"""Tests of the benchmark's own logic: percentiles, self-times and checks.

Fast and free of the simulator; run with ``python -m pytest perfbench``.
"""

import json
import math
from pathlib import Path

import pytest

import pb_trace
from pb_stats import Checker, percentile, percentiles

HERE = Path(__file__).resolve().parent


class FakeClock:
    """A clock that moves only when the code under test says so."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def test_percentiles_report_the_sample_count():
    summary = percentiles([float(v) for v in range(1, 201)])
    assert summary == {"p50": 100.5, "p95": pytest.approx(190.05), "samples": 200}


def test_p95_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError, match="200 samples"):
        percentiles([1.0] * 199)


def test_percentile_interpolates_between_ranks():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == 2.5
    assert percentile([7.0], 95) == 7.0


def test_nested_calls_subtract_their_children(tmp_path):
    clock = FakeClock()
    recorder = pb_trace.Recorder(tmp_path, clock=clock)
    outer_layer = pb_trace.Layer("test.outer", "unused", "outer", misses=True)
    inner_layer = pb_trace.Layer("test.inner", "unused", "inner")

    def inner_body(seconds):
        clock.advance(seconds)

    inner = recorder.wrap(inner_layer, inner_body)

    def outer_body():
        clock.advance(1.0)
        inner(2.0)
        inner(0.5)
        clock.advance(3.0)

    outer = recorder.wrap(outer_layer, outer_body)
    outer()
    inner(4.0)  # a call of its own, outside ``outer``

    assert recorder.stats["test.outer"].self_s == 4.0
    assert recorder.stats["test.inner"].self_s == 6.5
    assert recorder.stats["test.inner"].calls == 3
    # The outer call made nested wrapped calls; the lone inner one did not.
    assert recorder.stats["test.outer"].misses == 1
    # Self-times partition the wall-clock: nothing is counted twice.
    assert recorder.self_seconds() == clock.now == 10.5


def test_a_raising_call_is_still_accounted(tmp_path):
    clock = FakeClock()
    recorder = pb_trace.Recorder(tmp_path, clock=clock)

    def fails():
        clock.advance(1.0)
        raise RuntimeError("boom")

    wrapped = recorder.wrap(pb_trace.Layer("test.fails", "unused", "fails"), fails)
    with pytest.raises(RuntimeError):
        wrapped()
    assert recorder.stats["test.fails"].self_s == 1.0
    assert recorder._stack == []


def test_worker_figures_come_home_under_a_worker_prefix(tmp_path):
    clock = FakeClock()
    parent = pb_trace.Recorder(tmp_path, clock=clock)
    # A recorder whose pid is not this process's behaves as a forked worker.
    worker = pb_trace.Recorder(tmp_path, clock=clock)
    worker.pid = -1
    wrapped = worker.wrap(
        pb_trace.Layer("core.accelerator.run_model", "unused", "run_model"),
        lambda: clock.advance(2.0),
    )
    wrapped()
    wrapped()
    parent.merge_workers()
    assert parent.stats["worker.core.accelerator.run_model"].self_s == 4.0
    assert parent.stats["worker.core.accelerator.run_model"].calls == 2
    assert parent.metrics()["worker.core.accelerator.run_model.self_s"] == 4.0
    # Worker time runs beside the parent's, so it is not part of its wall.
    assert parent.self_seconds() == 0.0
    assert list(tmp_path.iterdir()) == []


def test_a_perturbed_expected_value_is_a_failed_operation():
    expected = json.loads((HERE / "expected.json").read_text())["cold-100k"]
    perturbed = dict(expected, cycles=math.nextafter(expected["cycles"], math.inf))
    checker = Checker()
    assert checker.same("cold-100k metrics", dict(expected), expected)
    assert not checker.same("cold-100k metrics", dict(expected), perturbed)
    assert (checker.attempted, checker.failed) == (2, 1)
    assert "cold-100k metrics" in checker.failures[0]


def test_every_recorded_layer_metric_is_declared():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    declared = {metric["name"] for metric in spec["per_layer"]}
    recorded = set(pb_trace.Recorder(Path("unused")).metrics())
    assert recorded <= declared
    assert {"unattributed_s", "traced_wall_s", "tracing_overhead_s"} <= declared
