"""Tests for the ``python -m repro`` command-line interface.

The smoke-target test runs the CLI as a real subprocess — the same
invocation a CI job would use — so argument parsing, experiment
registration, parallel execution and cache reuse are all exercised
end to end.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.__main__ import main
from repro.harness import list_experiments


def test_list_prints_every_experiment(capsys):
    assert main(["list"]) == 0
    printed = capsys.readouterr().out.split()
    assert printed == list_experiments()


def test_list_verbose_includes_summaries(capsys):
    assert main(["list", "--verbose"]) == 0
    out = capsys.readouterr().out
    assert "fig20_speedup" in out
    assert "speedup" in out.lower()


def test_run_prints_table(capsys):
    code = main(["run", "fig3_density", "--datasets", "cora"])
    out = capsys.readouterr().out
    assert code == 0
    assert "fig3_density" in out and "cora" in out


def test_run_unknown_experiment_fails_cleanly():
    with pytest.raises(SystemExit, match="unknown experiment 'no_such_experiment'"):
        main(["run", "no_such_experiment"])
    with pytest.raises(SystemExit, match="unknown experiment"):
        main(["suite", "no_such_experiment"])


def test_run_unknown_experiment_suggests_close_matches():
    # A near-miss (dash for underscore) earns a did-you-mean suggestion.
    with pytest.raises(SystemExit, match="did you mean.*fig20_speedup"):
        main(["run", "fig20-speedup"])
    # Gibberish gets the plain error plus the pointer at 'repro list'.
    with pytest.raises(SystemExit, match="python -m repro list"):
        main(["run", "zzzzqqqq"])


def test_suite_writes_reports_and_caches(tmp_path, capsys):
    argv = [
        "suite",
        "--smoke",
        "--jobs",
        "1",
        "--results-dir",
        str(tmp_path),
        "fig2_mac_ops",
        "fig3_density",
    ]
    assert main(argv) == 0
    assert "2 experiments" in capsys.readouterr().out
    assert (tmp_path / "fig2_mac_ops.json").exists()
    assert (tmp_path / "suite_report.md").exists()

    assert main(argv) == 0
    summary = json.loads((tmp_path / "suite_report.json").read_text())
    assert summary["summary"] == {"ran": 0, "cached": 2, "failed": 0}


def test_report_renders_stored_results(tmp_path, capsys):
    assert (
        main(["suite", "--smoke", "--jobs", "1", "--results-dir", str(tmp_path), "fig3_density"])
        == 0
    )
    capsys.readouterr()
    assert main(["report", "fig3_density", "--results-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("## fig3_density")
    assert main(["report", "fig3_density", "--results-dir", str(tmp_path), "--format", "table"]) == 0
    assert "fig3_density  (Figure 3)" in capsys.readouterr().out


def test_report_missing_results_fails_cleanly(tmp_path, capsys):
    missing = tmp_path / "empty"
    assert main(["report", "--results-dir", str(missing)]) == 1
    err = capsys.readouterr().err
    assert f"results directory {missing} does not exist" in err
    assert "python -m repro suite" in err

    missing.mkdir()
    assert main(["report", "--results-dir", str(missing)]) == 1
    err = capsys.readouterr().err
    assert f"no stored results in {missing}" in err


def test_report_corrupt_result_fails_cleanly(tmp_path, capsys):
    (tmp_path / "broken.json").write_text("{not json")
    assert main(["report", "--results-dir", str(tmp_path)]) == 1
    assert "is unreadable" in capsys.readouterr().err


def _cli_env() -> dict[str, str]:
    src_dir = str(Path(repro.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = src_dir + os.pathsep + env.get("PYTHONPATH", "")
    return env


def test_smoke_target_subprocess(tmp_path):
    """The CI smoke target: ``python -m repro suite --smoke --jobs 2``."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "suite",
        "--smoke",
        "--jobs",
        "2",
        "--results-dir",
        str(tmp_path),
    ]
    first = subprocess.run(argv, env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert first.returncode == 0, first.stdout + first.stderr

    summary = json.loads((tmp_path / "suite_report.json").read_text())
    assert summary["jobs"] == 2
    assert summary["summary"]["failed"] == 0
    assert summary["summary"]["ran"] == len(list_experiments())

    # The second invocation must complete entirely via cache hits.
    second = subprocess.run(argv, env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert second.returncode == 0, second.stdout + second.stderr
    summary = json.loads((tmp_path / "suite_report.json").read_text())
    assert summary["summary"]["ran"] == 0
    assert summary["summary"]["cached"] == len(list_experiments())


def test_dse_list_spaces(capsys):
    assert main(["dse", "--list-spaces"]) == 0
    out = capsys.readouterr().out
    assert "grow-sizing" in out and "grow-smoke" in out


def test_dse_unknown_space_fails_cleanly():
    with pytest.raises(SystemExit, match="unknown space"):
        main(["dse", "--space", "no_such_space"])


def test_dse_smoke_writes_frontier_and_caches(tmp_path, capsys):
    argv = [
        "dse",
        "--smoke",
        "--seed",
        "7",
        "--jobs",
        "1",
        "--budget",
        "6",
        "--results-dir",
        str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "Pareto point" in out
    frontier_path = tmp_path / "dse_grow-smoke.json"
    assert frontier_path.exists() and (tmp_path / "dse_grow-smoke.md").exists()
    first_rows = json.loads(frontier_path.read_text())["rows"]
    assert first_rows

    # Same seed again: every evaluation is a cache hit, the frontier identical.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "6 cached" in out and "0 ran" in out
    assert json.loads(frontier_path.read_text())["rows"] == first_rows

    # And ``report`` re-renders the stored frontier without recomputing.
    assert main(["report", "dse_grow-smoke", "--results-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("## dse_grow-smoke")


def test_scaleout_smoke_writes_reports_and_caches(tmp_path, capsys):
    argv = [
        "scaleout",
        "--chips",
        "4",
        "--smoke",
        "--results-dir",
        str(tmp_path),
    ]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "4-chip ring system" in out
    assert "efficiency" in out and "interchip_mb" in out
    report_path = tmp_path / "scaleout_ring4.json"
    assert report_path.exists() and (tmp_path / "scaleout_ring4.md").exists()
    first = json.loads(report_path.read_text())
    assert [row["dataset"] for row in first["rows"]] == ["cora", "amazon"]

    # Second run: every system comes from the cache, the report is identical.
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert out.count("(cached)") == 2 and "(ran)" not in out
    assert json.loads(report_path.read_text()) == first

    # And ``report`` re-renders the stored system results without recomputing.
    assert main(["report", "scaleout_ring4", "--results-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out.startswith("## scaleout_ring4")


def test_scaleout_invalid_chips_fails_cleanly():
    with pytest.raises(SystemExit, match="--chips must be at least 1"):
        main(["scaleout", "--chips", "0", "--smoke"])


def test_scaleout_invalid_link_parameters_fail_cleanly():
    with pytest.raises(SystemExit, match="link_bandwidth_gbps must be positive"):
        main(["scaleout", "--chips", "4", "--link-bandwidth", "0", "--smoke"])
    with pytest.raises(SystemExit, match="link_latency_cycles must be non-negative"):
        main(["scaleout", "--chips", "4", "--link-latency", "-1", "--smoke"])


def test_dse_smoke_target_subprocess(tmp_path):
    """The CI smoke target: ``python -m repro dse --smoke --jobs 2``."""
    argv = [
        sys.executable,
        "-m",
        "repro",
        "dse",
        "--smoke",
        "--seed",
        "7",
        "--jobs",
        "2",
        "--results-dir",
        str(tmp_path),
    ]
    run = subprocess.run(argv, env=_cli_env(), capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert "Pareto point" in run.stdout
    assert (tmp_path / "dse_grow-smoke.json").exists()


# ---------------------------------------------------------------------------
# the API facade verbs: sim, and --json machine-readable output
# ---------------------------------------------------------------------------


def test_sim_prints_table_and_caches_in_process(capsys):
    from repro.api import clear_memo

    clear_memo()
    argv = ["sim", "--backend", "grow", "--datasets", "cora", "--smoke"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "sim_grow" in out and "cora" in out and "ran" in out
    # Second in-process invocation is served from the session memo.
    assert main(argv) == 0
    assert "cached" in capsys.readouterr().out


def test_sim_json_emits_canonical_run_result_payloads(capsys):
    from repro.api import SimRequest
    from repro.harness import smoke_config

    assert main(["sim", "--backend", "gcnax", "--smoke", "--json"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    config = smoke_config()
    assert [p["request"]["dataset"] for p in payloads] == list(config.datasets)
    for payload in payloads:
        # The payload round-trips into the exact request that produced it.
        request = SimRequest.from_dict(payload["request"])
        assert request.backend == "gcnax"
        assert payload["metrics"]["cycles"] > 0
        assert "result" in payload["detail"]


def test_sim_scaleout_backend_consumes_fabric_flags(capsys):
    argv = [
        "sim", "--backend", "scaleout", "--datasets", "amazon", "--smoke",
        "--chips", "2", "--topology", "mesh", "--json",
    ]
    assert main(argv) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    assert payload["request"]["fabric"]["num_chips"] == 2
    assert payload["request"]["fabric"]["topology"] == "mesh"
    assert payload["detail"]["system"]["topology"]["kind"] == "mesh"


def test_sim_unknown_names_fail_with_suggestions():
    with pytest.raises(SystemExit, match="did you mean grow"):
        main(["sim", "--backend", "gorw", "--smoke"])
    with pytest.raises(SystemExit, match="did you mean amazon"):
        main(["sim", "--datasets", "amazn", "--smoke"])


def test_sim_override_flags_reach_the_simulator(capsys):
    assert main([
        "sim", "--datasets", "cora", "--smoke", "--json",
        "--override", "runahead_degree=1", "--override", "enable_hdn_cache=false",
    ]) == 0
    (payload,) = json.loads(capsys.readouterr().out)
    assert payload["request"]["overrides"] == {
        "enable_hdn_cache": False, "runahead_degree": 1,
    }
    with pytest.raises(SystemExit, match="KEY=VALUE"):
        main(["sim", "--smoke", "--override", "runahead_degree"])


def test_run_json_emits_experiment_results(capsys):
    assert main(["run", "fig3_density", "--datasets", "cora", "--json"]) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert [p["name"] for p in payloads] == ["fig3_density"]
    assert payloads[0]["rows"][0]["dataset"] == "cora"


def test_scaleout_json_emits_canonical_run_result_payloads(tmp_path, capsys):
    argv = [
        "scaleout", "--chips", "2", "--smoke", "--json",
        "--results-dir", str(tmp_path),
    ]
    assert main(argv) == 0
    payloads = json.loads(capsys.readouterr().out)
    assert [p["request"]["dataset"] for p in payloads] == ["cora", "amazon"]
    for payload in payloads:
        assert payload["request"]["backend"] == "scaleout"
        assert payload["request"]["fabric"]["num_chips"] == 2
        assert payload["metrics"]["cycles"] > 0
        assert payload["detail"]["system"]["system_cycles"] == payload["metrics"]["cycles"]
    # The human-readable reports are still written alongside.
    assert (tmp_path / "scaleout_ring2.json").exists()
