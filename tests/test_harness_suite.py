"""Tests for the suite orchestration engine: parallelism, caching, reports."""

from __future__ import annotations

import json

import pytest

from repro.harness import (
    ExperimentResult,
    ResultCache,
    SuiteRunner,
    smoke_config,
)
from repro.harness.cache import config_fingerprint, source_tree_version
from repro.harness.registry import register, unregister

# Cheap experiments that still cover a simulator, an analysis pass and a
# metadata-producing experiment.
FAST_EXPERIMENTS = ["table1_datasets", "fig2_mac_ops", "fig3_density", "fig20_speedup"]


@pytest.fixture()
def config():
    return smoke_config()


def run_suite(tmp_path, config, **kwargs):
    defaults = dict(
        config=config,
        experiments=FAST_EXPERIMENTS,
        results_dir=tmp_path / "results",
    )
    defaults.update(kwargs)
    return SuiteRunner(**defaults).run()


def test_parallel_matches_serial(tmp_path, config):
    serial = run_suite(tmp_path / "serial", config, jobs=1, use_cache=False)
    parallel = run_suite(tmp_path / "parallel", config, jobs=2, use_cache=False)
    assert serial.ok and parallel.ok
    for name in FAST_EXPERIMENTS:
        assert serial.result(name).to_dict() == parallel.result(name).to_dict()


def test_second_run_serves_from_cache(tmp_path, config):
    first = run_suite(tmp_path, config, jobs=1)
    assert first.num_ran == len(FAST_EXPERIMENTS) and first.num_cached == 0
    second = run_suite(tmp_path, config, jobs=1)
    assert second.num_cached == len(FAST_EXPERIMENTS) and second.num_ran == 0
    for name in FAST_EXPERIMENTS:
        assert first.result(name).to_dict() == second.result(name).to_dict()


def test_cache_hit_skips_recompute(tmp_path, config):
    """A cached experiment's function is not called again on the next run."""
    calls = tmp_path / "calls.log"

    @register("_test_counting_experiment")
    def counting_experiment(cfg):
        with calls.open("a") as handle:
            handle.write("call\n")
        result = ExperimentResult(
            name="_test_counting_experiment",
            paper_reference="-",
            description="test",
            columns=["value"],
        )
        result.add_row(value=42)
        return result

    try:
        for _ in range(3):
            report = run_suite(tmp_path, config, experiments=["_test_counting_experiment"])
            assert report.result("_test_counting_experiment").rows[0]["value"] == 42
        assert calls.read_text().count("call") == 1
    finally:
        unregister("_test_counting_experiment")


def test_cache_invalidates_on_config_change(tmp_path, config):
    first = run_suite(tmp_path, config, jobs=1)
    assert first.num_ran == len(FAST_EXPERIMENTS)
    changed = run_suite(tmp_path, config.with_bandwidth(32.0), jobs=1)
    assert changed.num_ran == len(FAST_EXPERIMENTS) and changed.num_cached == 0


def test_cache_invalidates_on_code_version_change(tmp_path, config):
    cache_v1 = ResultCache(tmp_path / "cache", code_version="v1")
    first = run_suite(tmp_path, config, jobs=1, cache=cache_v1)
    assert first.num_ran == len(FAST_EXPERIMENTS)
    hit = run_suite(tmp_path, config, jobs=1, cache=ResultCache(tmp_path / "cache", code_version="v1"))
    assert hit.num_cached == len(FAST_EXPERIMENTS)
    miss = run_suite(tmp_path, config, jobs=1, cache=ResultCache(tmp_path / "cache", code_version="v2"))
    assert miss.num_ran == len(FAST_EXPERIMENTS) and miss.num_cached == 0


def test_force_recomputes_despite_cache(tmp_path, config):
    run_suite(tmp_path, config, jobs=1)
    forced = run_suite(tmp_path, config, jobs=1, force=True)
    assert forced.num_ran == len(FAST_EXPERIMENTS) and forced.num_cached == 0


def test_failed_experiment_is_reported_not_raised(tmp_path, config):
    @register("_test_failing_experiment")
    def failing_experiment(cfg):
        raise RuntimeError("intentional failure")

    try:
        report = run_suite(
            tmp_path, config, experiments=["table1_datasets", "_test_failing_experiment"]
        )
        assert not report.ok
        assert report.outcome("table1_datasets").ok
        failure = report.outcome("_test_failing_experiment")
        assert failure.status == "failed"
        assert "intentional failure" in failure.error
        with pytest.raises(RuntimeError):
            report.result("_test_failing_experiment")
    finally:
        unregister("_test_failing_experiment")


def test_reports_written_to_results_dir(tmp_path, config):
    report = run_suite(tmp_path, config, jobs=1)
    results_dir = tmp_path / "results"
    for name in FAST_EXPERIMENTS:
        stored = json.loads((results_dir / f"{name}.json").read_text())
        assert ExperimentResult.from_dict(stored).to_dict() == report.result(name).to_dict()
        markdown = (results_dir / f"{name}.md").read_text()
        assert markdown.startswith(f"## {name}")
    summary = json.loads((results_dir / "suite_report.json").read_text())
    assert summary["summary"]["ran"] == len(FAST_EXPERIMENTS)
    assert {e["name"] for e in summary["experiments"]} == set(FAST_EXPERIMENTS)
    assert "# Experiment suite report" in (results_dir / "suite_report.md").read_text()


def test_unknown_experiment_rejected_up_front(tmp_path, config):
    with pytest.raises(KeyError):
        SuiteRunner(config=config, experiments=["no_such_experiment"], results_dir=tmp_path)


def test_result_cache_round_trip(tmp_path, config):
    cache = ResultCache(tmp_path)
    result = ExperimentResult(
        name="demo", paper_reference="Figure 0", description="d", columns=["x"]
    )
    result.add_row(x=1.5)
    identity = config_fingerprint(config)
    assert cache.get("demo", identity) is None
    cache.put("demo", identity, result.to_dict())
    fetched = cache.get("demo", identity)
    assert fetched is not None and ExperimentResult.from_dict(fetched).to_dict() == result.to_dict()
    assert cache.clear() == 1
    assert cache.get("demo", identity) is None


def test_cache_coexists_across_configs_but_prunes_old_code_versions(tmp_path, config):
    result = ExperimentResult(
        name="demo", paper_reference="Figure 0", description="d", columns=["x"]
    )
    result.add_row(x=1.0)
    payload = result.to_dict()
    identity = config_fingerprint(config)
    swept = config_fingerprint(config.with_bandwidth(32.0))

    old = ResultCache(tmp_path, code_version="v1")
    old.put("demo", identity, payload)

    new = ResultCache(tmp_path, code_version="v2")
    new.put("demo", identity, payload)
    new.put("demo", swept, payload)
    new.put("other", identity, payload)

    # The v1 entry is gone (it could never hit again), but the two v2 configs
    # of "demo" coexist and "other" is untouched.
    assert old.get("demo", identity) is None
    assert new.get("demo", identity) is not None
    assert new.get("demo", swept) is not None
    assert len(list(new.entries())) == 3


def test_config_fingerprint_covers_every_field(config):
    fingerprint = config_fingerprint(config)
    assert set(fingerprint) == {
        "datasets",
        "bandwidth_gbps",
        "num_macs",
        "seed",
        "target_cluster_nodes",
        "gcnax_tile",
        "num_nodes_override",
        "scenarios",
    }


def test_source_tree_version_is_stable():
    assert source_tree_version() == source_tree_version()
    assert len(source_tree_version()) == 16
