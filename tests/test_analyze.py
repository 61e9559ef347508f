"""Tests for the invariant checker (``repro.analyze`` / ``repro check``).

Every rule family is exercised four ways against synthetic fixture trees:
a seeded violation (positive), conforming code (negative), the violation
with an inline ``# repro: allow(...)`` suppression, and the violation
grandfathered by a baseline file.  The fixture trees reuse this repo's
layer names (``core``, ``obs``, ``harness``, ...) so ``DEFAULT_CONFIG``
applies unchanged.  The final tests are the acceptance criteria: the real
source tree is clean under the committed baseline, and a deliberately
broken tree makes ``repro check`` exit 1 — which is exactly what gates CI.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

import repro.analyze
from repro.analyze import (
    BaselineError,
    CheckReport,
    Finding,
    ProjectError,
    default_baseline_path,
    load_baseline,
    run_check,
    select_rules,
    split_by_baseline,
)
from repro.analyze.cli import main as check_main
from repro.analyze.suppress import parse_suppressions

REAL_ROOT = Path(repro.analyze.__file__).resolve().parent.parent


def make_tree(tmp_path, files):
    """Materialise ``{relpath: source}`` under ``tmp_path/repro``."""
    root = tmp_path / "repro"
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source, encoding="utf-8")
    return root


def rules_of(report: CheckReport) -> list[str]:
    return [finding.rule for finding in report.findings]


# ---------------------------------------------------------------------------
# LAY: layering


def test_lay001_flags_undocumented_module_scope_edge(tmp_path):
    root = make_tree(tmp_path, {
        "core/engine.py": "from repro.scaleout import fabric\n",
        "scaleout/fabric.py": "RING = 'ring'\n",
    })
    report = run_check(root, rule_names=["LAY001"])
    assert rules_of(report) == ["LAY001"]
    assert report.findings[0].path == "repro/core/engine.py"
    assert "must not import" in report.findings[0].message


def test_lay001_accepts_documented_edges_and_obs(tmp_path):
    root = make_tree(tmp_path, {
        "graph/loader.py": "from repro.sparse import csr\nfrom repro.obs import trace\n",
        "sparse/csr.py": "",
        "obs/trace.py": "",
    })
    report = run_check(root, rule_names=["LAY001"])
    assert report.findings == []


def test_lay001_calltime_and_type_checking_imports_are_exempt(tmp_path):
    root = make_tree(tmp_path, {
        "api/facade.py": (
            "from typing import TYPE_CHECKING\n"
            "if TYPE_CHECKING:\n"
            "    from repro.harness import suite\n"
            "def run():\n"
            "    from repro.core import engine\n"
            "    return engine\n"
        ),
        "harness/suite.py": "",
        "core/engine.py": "",
    })
    report = run_check(root, rule_names=["LAY001"])
    assert report.findings == []


def test_lay001_unknown_layer_must_be_documented_first(tmp_path):
    root = make_tree(tmp_path, {
        "newthing/impl.py": "from repro.core import engine\n",
        "core/engine.py": "",
    })
    report = run_check(root, rule_names=["LAY001"])
    assert rules_of(report) == ["LAY001"]
    assert "LAYER_DEPS" in report.findings[0].message


def test_lay002_stdlib_only_layer_rejects_third_party_and_internal(tmp_path):
    root = make_tree(tmp_path, {
        "obs/log.py": "import numpy\n",
        "obs/link.py": "def f():\n    from repro.core import engine\n",
        "obs/pure.py": "import json\nfrom repro.obs import trace\n",
        "obs/trace.py": "",
        "core/engine.py": "",
    })
    report = run_check(root, rule_names=["LAY002"])
    assert sorted((f.path, f.rule) for f in report.findings) == [
        ("repro/obs/link.py", "LAY002"),  # internal, even at call time
        ("repro/obs/log.py", "LAY002"),   # third-party
    ]


def test_lay002_documented_consumer_split_is_exempt(tmp_path):
    root = make_tree(tmp_path, {
        "obs/trend.py": "def load():\n    from repro.bench import runner\n    return runner\n",
        "bench/runner.py": "",
    })
    report = run_check(root, rule_names=["LAY002"])
    assert report.findings == []


def test_lay003_flags_module_scope_cycle(tmp_path):
    root = make_tree(tmp_path, {
        "core/a.py": "from repro.core import b\n",
        "core/b.py": "from repro.core import a\n",
    })
    report = run_check(root, rule_names=["LAY003"])
    assert rules_of(report) == ["LAY003"]
    assert "repro.core.a -> repro.core.b -> repro.core.a" in report.findings[0].message


def test_lay003_calltime_back_edge_is_not_a_cycle(tmp_path):
    root = make_tree(tmp_path, {
        "core/a.py": "from repro.core import b\n",
        "core/b.py": "def f():\n    from repro.core import a\n    return a\n",
    })
    report = run_check(root, rule_names=["LAY003"])
    assert report.findings == []


def test_lay004_engines_never_import_orchestration_even_lazily(tmp_path):
    root = make_tree(tmp_path, {
        "gcn/layer.py": "def run():\n    from repro.harness import suite\n    return suite\n",
        "harness/suite.py": "",
    })
    report = run_check(root, rule_names=["LAY004"])
    assert rules_of(report) == ["LAY004"]
    assert "call time" in report.findings[0].message


# ---------------------------------------------------------------------------
# DET: determinism


def test_det001_flags_wall_clock_in_scoped_layer(tmp_path):
    root = make_tree(tmp_path, {
        "core/engine.py": "import time\n\ndef cost():\n    return time.time()\n",
    })
    report = run_check(root, rule_names=["DET"])
    assert rules_of(report) == ["DET001"]
    assert report.findings[0].line == 4


def test_det001_from_import_and_datetime_are_canonicalised(tmp_path):
    root = make_tree(tmp_path, {
        "core/engine.py": (
            "from time import perf_counter\n"
            "from datetime import datetime\n"
            "def f():\n"
            "    return perf_counter(), datetime.now()\n"
        ),
    })
    report = run_check(root, rule_names=["DET001"])
    assert len(report.findings) == 2


def test_det001_obs_and_bench_layers_are_allowlisted(tmp_path):
    root = make_tree(tmp_path, {
        "obs/timing.py": "import time\nNOW = time.time()\n",
        "bench/runner.py": "import time\nNOW = time.perf_counter()\n",
    })
    report = run_check(root, rule_names=["DET"])
    assert report.findings == []


def test_det002_unseeded_rng_and_global_state_draws(tmp_path):
    root = make_tree(tmp_path, {
        "gcn/init.py": (
            "import random\n"
            "import numpy as np\n"
            "from numpy.random import default_rng\n"
            "bad_global = np.random.rand(3)\n"
            "bad_stdlib = random.random()\n"
            "bad_unseeded = default_rng()\n"
            "good = default_rng(42)\n"
            "also_good = np.random.default_rng(seed=7)\n"
        ),
    })
    report = run_check(root, rule_names=["DET002"])
    assert [f.line for f in report.findings] == [4, 5, 6]


def test_det003_environment_reads(tmp_path):
    root = make_tree(tmp_path, {
        "harness/cachekey.py": (
            "import os\n"
            "def key():\n"
            "    return os.environ.get('HOME'), os.getenv('USER')\n"
        ),
        "obs/ledger.py": "import os\nWHO = os.environ.get('USER', '')\n",
    })
    report = run_check(root, rule_names=["DET003"])
    assert {f.path for f in report.findings} == {"repro/harness/cachekey.py"}
    assert len(report.findings) == 2


# ---------------------------------------------------------------------------
# KEY: cache identity


FROZEN_LEAKY = """\
from dataclasses import dataclass

@dataclass(frozen=True)
class Req:
    dataset: str
    backend: str
    secret_knob: int = 0

    def to_dict(self):
        return {"dataset": self.dataset, "backend": self.backend}
"""


def test_key001_field_missing_from_to_dict(tmp_path):
    root = make_tree(tmp_path, {"api/request.py": FROZEN_LEAKY})
    report = run_check(root, rule_names=["KEY001"])
    assert rules_of(report) == ["KEY001"]
    assert "secret_knob" in report.findings[0].message


def test_key001_fields_reached_via_helper_are_fine(tmp_path):
    root = make_tree(tmp_path, {
        "api/request.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Req:\n"
            "    dataset: str\n"
            "    knob: int\n"
            "    def _extras(self):\n"
            "        return {'knob': self.knob}\n"
            "    def to_dict(self):\n"
            "        d = {'dataset': self.dataset}\n"
            "        d.update(self._extras())\n"
            "        return d\n"
        ),
    })
    report = run_check(root, rule_names=["KEY001"])
    assert report.findings == []


def test_key002_setattr_outside_post_init(tmp_path):
    root = make_tree(tmp_path, {
        "api/request.py": (
            "from dataclasses import dataclass\n"
            "@dataclass(frozen=True)\n"
            "class Req:\n"
            "    n: int\n"
            "    def __post_init__(self):\n"
            "        self._canon()\n"
            "    def _canon(self):\n"
            "        object.__setattr__(self, 'n', max(0, self.n))\n"
            "    def bump(self):\n"
            "        object.__setattr__(self, 'n', self.n + 1)\n"
            "def poke(req):\n"
            "    object.__setattr__(req, 'n', -1)\n"
        ),
    })
    report = run_check(root, rule_names=["KEY002"])
    assert [f.line for f in report.findings] == [10, 12]
    assert "bump" in report.findings[0].message
    assert "outside any class" in report.findings[1].message


# ---------------------------------------------------------------------------
# POOL: process-pool safety


def test_pool001_lambda_nested_and_bound_method(tmp_path):
    root = make_tree(tmp_path, {
        "harness/fanout.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x):\n"
            "    return x\n"
            "class R:\n"
            "    def go(self, items):\n"
            "        def local(x):\n"
            "            return x\n"
            "        with ProcessPoolExecutor() as pool:\n"
            "            pool.submit(lambda: 1)\n"
            "            pool.submit(local, 2)\n"
            "            pool.map(self.handle, items)\n"
            "            pool.submit(work, 3)\n"
            "    def handle(self, x):\n"
            "        return x\n"
        ),
    })
    report = run_check(root, rule_names=["POOL001"])
    assert [f.line for f in report.findings] == [9, 10, 11]


def test_pool001_partial_of_module_function_is_fine(tmp_path):
    root = make_tree(tmp_path, {
        "dse/fanout.py": (
            "import functools\n"
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def work(x, y):\n"
            "    return x + y\n"
            "def go(pool: ProcessPoolExecutor, items):\n"
            "    pool.submit(functools.partial(work, 1))\n"
            "    pool.submit(make_worker())\n"
            "def make_worker():\n"
            "    return work\n"
        ),
    })
    report = run_check(root, rule_names=["POOL001"])
    # partial(work, ...) is fine; submit(make_worker()) ships a call result.
    assert [f.line for f in report.findings] == [7]


def test_pool001_polices_the_shared_fan_out_helper(tmp_path):
    root = make_tree(tmp_path, {
        "harness/fanout.py": (
            "from repro.api.pool import fan_out\n"
            "def work(x):\n"
            "    return x\n"
            "def go(items):\n"
            "    list(fan_out(work, [(i,) for i in items], 2))\n"
            "    return list(fan_out(lambda x: x, [(i,) for i in items], 2))\n"
        ),
    })
    report = run_check(root, rule_names=["POOL001"])
    assert [f.line for f in report.findings] == [6]
    assert "fan_out()" in report.findings[0].message


# ---------------------------------------------------------------------------
# EXC: exception hygiene


def test_exc_rules_flag_bare_and_silent_swallow_only(tmp_path):
    root = make_tree(tmp_path, {
        "core/run.py": (
            "def f():\n"
            "    try:\n"
            "        g()\n"
            "    except:\n"
            "        pass\n"
            "    try:\n"
            "        g()\n"
            "    except Exception:\n"
            "        pass\n"
            "    try:\n"
            "        g()\n"
            "    except ValueError:\n"
            "        pass\n"
            "    try:\n"
            "        g()\n"
            "    except Exception as e:\n"
            "        handle(e)\n"
            "def g():\n"
            "    pass\n"
            "def handle(e):\n"
            "    pass\n"
        ),
    })
    report = run_check(root, rule_names=["EXC"])
    assert [(f.rule, f.line) for f in report.findings] == [("EXC001", 4), ("EXC002", 8)]


# ---------------------------------------------------------------------------
# Suppressions


def test_trailing_suppression_silences_the_finding(tmp_path):
    root = make_tree(tmp_path, {
        "core/engine.py": (
            "import time\n"
            "T = time.time()  # repro: allow(DET001) wall-time metadata only\n"
        ),
    })
    report = run_check(root, rule_names=["DET001"])
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["DET001"]


def test_comment_only_suppression_shields_the_next_line(tmp_path):
    root = make_tree(tmp_path, {
        "core/engine.py": (
            "import time\n"
            "# repro: allow(DET001) wall-time metadata only\n"
            "T = time.time()\n"
        ),
    })
    report = run_check(root, rule_names=["DET001"])
    assert report.findings == []
    assert len(report.suppressed) == 1


def test_reasonless_suppression_is_inactive_and_reported(tmp_path):
    root = make_tree(tmp_path, {
        "core/engine.py": "import time\nT = time.time()  # repro: allow(DET001)\n",
    })
    report = run_check(root, rule_names=["DET001"])
    assert rules_of(report) == ["DET001"]
    assert [e["line"] for e in report.reasonless_suppressions] == [2]


def test_suppression_only_covers_named_rules():
    table = parse_suppressions([
        "x = 1  # repro: allow(DET001, EXC002) measured, never keyed",
    ])
    assert table.allows(1, "DET001")
    assert table.allows(1, "EXC002")
    assert not table.allows(1, "LAY001")
    assert not table.allows(2, "DET001")


# ---------------------------------------------------------------------------
# Baseline


def _violation_tree(tmp_path):
    return make_tree(tmp_path, {
        "core/engine.py": "import time\n\ndef cost():\n    return time.time()\n",
    })


def _baseline_for(report: CheckReport, path: Path, reason="grandfathered in tests"):
    entries = [
        {**f.to_dict(), "reason": reason} for f in report.findings
    ]
    for entry in entries:
        entry.pop("line")
    path.write_text(json.dumps({"schema": 1, "findings": entries}), encoding="utf-8")


def test_baselined_finding_does_not_fail_the_run(tmp_path):
    root = _violation_tree(tmp_path)
    first = run_check(root, rule_names=["DET001"])
    assert not first.ok
    baseline = tmp_path / "baseline.json"
    _baseline_for(first, baseline)
    second = run_check(root, rule_names=["DET001"], baseline_path=baseline)
    assert second.ok
    assert [f.rule for f in second.baselined] == ["DET001"]


def test_baseline_is_line_drift_stable(tmp_path):
    root = _violation_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    _baseline_for(run_check(root, rule_names=["DET001"]), baseline)
    source = (root / "core/engine.py").read_text()
    (root / "core/engine.py").write_text("# a new leading comment\n" + source)
    report = run_check(root, rule_names=["DET001"], baseline_path=baseline)
    assert report.ok and len(report.baselined) == 1


def test_baseline_matches_by_multiplicity(tmp_path):
    root = make_tree(tmp_path, {
        "core/engine.py": (
            "import time\n\ndef cost():\n    return time.time()\n"
            "\ndef cost2():\n    return time.time()\n"
        ),
    })
    first = run_check(root, rule_names=["DET001"])
    assert len(first.findings) == 2
    baseline = tmp_path / "baseline.json"
    # Grandfather only ONE of the two identical findings.
    _baseline_for(
        CheckReport(root="", rules=[], files_scanned=0, findings=first.findings[:1]),
        baseline,
    )
    report = run_check(root, rule_names=["DET001"], baseline_path=baseline)
    assert len(report.baselined) == 1 and len(report.findings) == 1


def test_stale_baseline_entries_are_reported(tmp_path):
    root = make_tree(tmp_path, {"core/engine.py": "X = 1\n"})
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"schema": 1, "findings": [{
        "rule": "DET001", "path": "repro/core/engine.py",
        "message": "long gone", "reason": "was fixed",
    }]}), encoding="utf-8")
    report = run_check(root, rule_names=["DET001"], baseline_path=baseline)
    assert report.ok
    assert [e["message"] for e in report.stale_baseline] == ["long gone"]


def test_baseline_rejects_missing_or_empty_reasons(tmp_path):
    path = tmp_path / "baseline.json"
    path.write_text(json.dumps({"schema": 1, "findings": [{
        "rule": "DET001", "path": "p", "message": "m", "reason": "  ",
    }]}), encoding="utf-8")
    with pytest.raises(BaselineError, match="empty or placeholder"):
        load_baseline(path)
    path.write_text(json.dumps({"schema": 1, "findings": [{
        "rule": "DET001", "path": "p", "message": "m",
        "reason": "TODO: justify this grandfathered finding",
    }]}), encoding="utf-8")
    with pytest.raises(BaselineError, match="empty or placeholder"):
        load_baseline(path)
    path.write_text(json.dumps({"schema": 1, "findings": [{"rule": "DET001"}]}),
                    encoding="utf-8")
    with pytest.raises(BaselineError, match="missing"):
        load_baseline(path)
    path.write_text("not json", encoding="utf-8")
    with pytest.raises(BaselineError, match="not valid JSON"):
        load_baseline(path)


def test_split_by_baseline_consumes_entries():
    finding = Finding(rule="R", path="p", line=3, message="m")
    entry = {"rule": "R", "path": "p", "message": "m", "reason": "ok"}
    new, baselined, stale = split_by_baseline([finding, finding], [entry])
    assert (len(new), len(baselined), len(stale)) == (1, 1, 0)


# ---------------------------------------------------------------------------
# CLI (the `repro check` verb)


def test_cli_broken_tree_exits_one(tmp_path, capsys):
    root = _violation_tree(tmp_path)
    code = check_main(["--root", str(root), "--no-baseline"])
    assert code == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "repro/core/engine.py:4" in out


def test_cli_json_report_schema(tmp_path, capsys):
    root = _violation_tree(tmp_path)
    code = check_main(["--root", str(root), "--no-baseline", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["schema"] == 2
    assert payload["ok"] is False
    assert payload["files_scanned"] == 1
    assert [f["rule"] for f in payload["findings"]] == ["DET001"]
    assert set(payload["findings"][0]) == {"rule", "path", "line", "message"}


def test_cli_did_you_mean_for_mistyped_rules(tmp_path, capsys):
    code = check_main(["--root", str(tmp_path), "--rules", "DTE001"])
    assert code == 2
    err = capsys.readouterr().err
    assert "unknown rule 'DTE001'" in err
    assert "did you mean DET001" in err


def test_cli_actionable_error_for_bad_root(tmp_path, capsys):
    code = check_main(["--root", str(tmp_path / "nope")])
    assert code == 2
    assert "not a directory" in capsys.readouterr().err
    (tmp_path / "empty").mkdir()
    code = check_main(["--root", str(tmp_path / "empty")])
    assert code == 2
    assert "nothing to check" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert check_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "LAY001", "DET001", "KEY001", "KEY003", "POOL001", "EXC001",
        "CONC001", "CONC002", "CONC003", "VEC001", "VEC002", "VEC003",
    ):
        assert rule_id in out


def test_cli_baseline_flags_are_mutually_exclusive(tmp_path, capsys):
    code = check_main([
        "--root", str(tmp_path), "--baseline", str(tmp_path / "b.json"),
        "--no-baseline",
    ])
    assert code == 2


def test_cli_update_baseline_roundtrip(tmp_path, capsys):
    root = _violation_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    code = check_main([
        "--root", str(root), "--baseline", str(baseline), "--update-baseline",
    ])
    assert code == 0
    out = capsys.readouterr().out
    assert "1 entry" in out and "needs" in out
    # New entries carry a placeholder reason the loader rejects: the
    # baseline cannot silently accumulate unjustified exemptions.
    assert check_main(["--root", str(root), "--baseline", str(baseline)]) == 2
    assert "justify" in capsys.readouterr().err
    data = json.loads(baseline.read_text())
    data["findings"][0]["reason"] = "timing metadata, keyed on nothing"
    baseline.write_text(json.dumps(data), encoding="utf-8")
    assert check_main(["--root", str(root), "--baseline", str(baseline)]) == 0


def test_cli_update_baseline_preserves_existing_reasons(tmp_path, capsys):
    root = _violation_tree(tmp_path)
    baseline = tmp_path / "baseline.json"
    first = run_check(root, rule_names=["DET001"])
    _baseline_for(first, baseline, reason="a human wrote this")
    code = check_main([
        "--root", str(root), "--baseline", str(baseline), "--update-baseline",
    ])
    assert code == 0
    data = json.loads(baseline.read_text())
    reasons = [e["reason"] for e in data["findings"] if e["rule"] == "DET001"]
    assert "a human wrote this" in reasons


def test_cli_rules_selection_accepts_families_and_ids(tmp_path, capsys):
    root = _violation_tree(tmp_path)
    code = check_main([
        "--root", str(root), "--no-baseline", "--rules", "EXC,KEY", "--json",
    ])
    assert code == 0  # the DET001 violation is out of scope for EXC/KEY
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules"] == ["EXC001", "EXC002", "KEY001", "KEY002", "KEY003"]


def test_select_rules_raises_keyerror_with_the_unknown_token():
    with pytest.raises(KeyError) as error:
        select_rules(["nope"])
    assert error.value.args[0] == "NOPE"


# ---------------------------------------------------------------------------
# The acceptance criteria


def test_real_tree_is_clean_under_committed_baseline():
    """The repository's own source obeys its documented invariants."""
    baseline = default_baseline_path(REAL_ROOT)
    assert baseline.exists(), "committed baseline missing"
    report = run_check(REAL_ROOT, baseline_path=baseline)
    assert report.parse_errors == []
    assert report.findings == [], "\n".join(f.render() for f in report.findings)
    # The deliberate wall-time metadata sites and the per-process memos
    # are suppressed inline, with reasons — none silently, none via the
    # baseline.
    assert report.reasonless_suppressions == []
    assert {f.rule for f in report.suppressed} <= {"DET001", "CONC001", "CONC002"}
    assert report.stale_baseline == []


def test_real_tree_scans_every_layer():
    report = run_check(REAL_ROOT, rule_names=["LAY003"])
    assert report.files_scanned > 100


def test_ci_gate_fails_on_a_fresh_violation(tmp_path, capsys):
    """End to end: the exact invocation CI runs exits 1 on a broken tree
    seeded with one violation per rule family."""
    root = make_tree(tmp_path, {
        "core/clock.py": "import time\nT = time.time()\n",
        "core/driver.py": "from repro.harness import suite\n",
        "harness/suite.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "def go(pool: ProcessPoolExecutor):\n"
            "    pool.submit(lambda: 1)\n"
        ),
        "api/request.py": FROZEN_LEAKY,
        "gcn/init.py": "from numpy.random import default_rng\nRNG = default_rng()\n",
        "sparse/ops.py": "def f():\n    try:\n        pass\n    except:\n        pass\n",
        "sparse/vec.py": "import numpy as np\ndef order(x):\n    return np.argsort(x)\n",
        "dse/fan.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "CACHE = {}\n"
            "def work(x):\n"
            "    CACHE[x] = x\n"
            "    return x\n"
            "def go():\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        pool.submit(work, 1)\n"
        ),
    })
    code = check_main(["--root", str(root), "--no-baseline"])
    assert code == 1
    out = capsys.readouterr().out
    fired = {line.split(" ")[1] for line in out.splitlines() if ": " in line and " " in line}
    for expected in (
        "DET001", "DET002", "LAY001", "LAY004", "POOL001", "KEY001",
        "EXC001", "VEC001", "CONC001",
    ):
        assert expected in out, f"{expected} did not fire on the broken tree"


def test_repro_check_verb_is_wired(tmp_path):
    """``python -m repro check`` delegates to the analyzer CLI."""
    import os
    import subprocess
    import sys

    env = dict(os.environ, PYTHONPATH=str(REAL_ROOT.parent))
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "check", "--rules", "LAY003", "--json"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["ok"] is True and payload["rules"] == ["LAY003"]


def test_parse_error_exits_2_and_still_checks_the_rest(tmp_path, capsys):
    """An unparseable file is a configuration failure (exit 2, the file
    named), not a finding — and every parseable module is still checked,
    so its findings are reported in the same run."""
    root = make_tree(tmp_path, {
        "core/ok.py": "import time\nT = time.time()\n",
        "core/broken.py": "def f(:\n",
    })
    report = run_check(root)
    assert not report.ok
    assert len(report.parse_errors) == 1
    assert "broken.py" in report.parse_errors[0]
    # The parseable module was still analysed.
    assert "DET001" in {f.rule for f in report.findings}
    assert check_main(["--root", str(root), "--no-baseline"]) == 2
    captured = capsys.readouterr()
    assert "broken.py" in captured.err
    assert "DET001" in captured.out


def test_project_error_for_file_root(tmp_path):
    target = tmp_path / "afile.py"
    target.write_text("X = 1\n")
    with pytest.raises(ProjectError, match="not a directory"):
        run_check(target)
