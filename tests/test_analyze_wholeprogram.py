"""Tests for the whole-program analysis layer of ``repro check``.

Covers the call graph (``repro.analyze.callgraph``), the three rule
families built on it (CONC worker purity, VEC vectorization contract,
KEY003 cache-key flow), the SARIF 2.1.0 export and the git-scoped
``--changed`` mode.  Fixture trees follow ``tests/test_analyze.py``'s
idiom: first-level package names reuse the real layer names so
``DEFAULT_CONFIG`` applies unchanged, and each new family is exercised
positive / negative / suppressed / baselined.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analyze import run_check
from repro.analyze.callgraph import graph_for, pool_entry_points
from repro.analyze.changed import ChangedError, reverse_closure
from repro.analyze.cli import main as check_main
from repro.analyze.contracts import DEFAULT_CONFIG
from repro.analyze.project import Project
from repro.analyze.sarif import sarif_report, validate_sarif, write_sarif
from repro.analyze.rules import select_rules

from test_analyze import REAL_ROOT, make_tree, rules_of


def graph_of(root):
    return graph_for(Project.load(root))


# ---------------------------------------------------------------------------
# The call graph


def test_callgraph_resolves_aliased_imports(tmp_path):
    root = make_tree(tmp_path, {
        "core/engine.py": "def run():\n    return 1\n",
        "core/driver.py": (
            "import repro.core.engine as eng\n"
            "from repro.core.engine import run as launch\n"
            "def via_module():\n    return eng.run()\n"
            "def via_name():\n    return launch()\n"
        ),
    })
    graph = graph_of(root)
    target = "repro.core.engine.run"
    assert target in graph.reachable(["repro.core.driver.via_module"])
    assert target in graph.reachable(["repro.core.driver.via_name"])


def test_callgraph_follows_functools_partial(tmp_path):
    root = make_tree(tmp_path, {
        "core/work.py": "def work(x):\n    return x\n",
        "core/driver.py": (
            "from functools import partial\n"
            "from repro.core.work import work\n"
            "def go():\n"
            "    bound = partial(work, 1)\n"
            "    return bound()\n"
        ),
    })
    graph = graph_of(root)
    assert "repro.core.work.work" in graph.reachable(["repro.core.driver.go"])


def test_callgraph_resolves_methods_through_annotations(tmp_path):
    root = make_tree(tmp_path, {
        "api/backends.py": (
            "from typing import Protocol\n"
            "class Backend(Protocol):\n"
            "    name: str\n"
            "    def run(self, request):\n        ...\n"
            "class GrowBackend:\n"
            "    name = 'grow'\n"
            "    def run(self, request):\n"
            "        return self._inner(request)\n"
            "    def _inner(self, request):\n"
            "        return request\n"
            "def dispatch(backend: Backend, request):\n"
            "    return backend.run(request)\n"
        ),
    })
    graph = graph_of(root)
    reached = graph.reachable(["repro.api.backends.dispatch"])
    # Protocol-typed dispatch lands on the structural implementation,
    # and the method body's self-calls are followed.
    assert "repro.api.backends.GrowBackend.run" in reached
    assert "repro.api.backends.GrowBackend._inner" in reached


def test_callgraph_reachability_is_cycle_safe(tmp_path):
    root = make_tree(tmp_path, {
        "core/mutual.py": (
            "def a(n):\n    return b(n - 1) if n else 0\n"
            "def b(n):\n    return a(n - 1) if n else 1\n"
        ),
    })
    graph = graph_of(root)
    reached = graph.reachable(["repro.core.mutual.a"])
    assert "repro.core.mutual.b" in reached
    assert "repro.core.mutual.a" in reached


def test_pool_entry_points_cover_submitted_callables(tmp_path):
    root = make_tree(tmp_path, {
        "core/work.py": "def work(x):\n    return x\n",
        "harness/fan.py": (
            "from concurrent.futures import ProcessPoolExecutor\n"
            "from repro.core.work import work\n"
            "def go(items):\n"
            "    with ProcessPoolExecutor() as pool:\n"
            "        return [pool.submit(work, item) for item in items]\n"
        ),
    })
    project = Project.load(root)
    graph = graph_for(project)
    entries = pool_entry_points(project, graph)
    assert "repro.core.work.work" in entries


def test_pool_entry_points_follow_the_fan_out_helper(tmp_path):
    root = make_tree(tmp_path, {
        "core/work.py": "def work(x):\n    return x\n",
        "harness/fan.py": (
            "from repro.api.pool import fan_out\n"
            "from repro.core.work import work\n"
            "def go(items):\n"
            "    return list(fan_out(work, [(item,) for item in items], 2))\n"
        ),
    })
    project = Project.load(root)
    assert "repro.core.work.work" in pool_entry_points(project, graph_for(project))


def test_real_tree_pool_entry_points_are_the_three_workers():
    # The shared helper submits a parameter the graph cannot resolve; the
    # workers must still be found at the helper's call sites.
    project = Project.load(REAL_ROOT)
    assert set(pool_entry_points(project, graph_for(project))) == {
        "repro.api.session._execute_request",
        "repro.harness.suite._execute_experiment",
        "repro.dse.engine._evaluate_candidate",
    }


# ---------------------------------------------------------------------------
# CONC: worker purity

_FAN_OUT = (
    "from concurrent.futures import ProcessPoolExecutor\n"
    "from repro.core.work import work\n"
    "def go():\n"
    "    with ProcessPoolExecutor() as pool:\n"
    "        pool.submit(work, 1)\n"
)


def conc_tree(tmp_path, worker_source):
    return make_tree(tmp_path, {
        "core/work.py": worker_source,
        "harness/fan.py": _FAN_OUT,
    })


def test_conc001_flags_worker_writes_to_module_state(tmp_path):
    root = conc_tree(tmp_path, (
        "CACHE = {}\n"
        "ITEMS = []\n"
        "TOTAL = 0\n"
        "def work(x):\n"
        "    global TOTAL\n"
        "    TOTAL += 1\n"
        "    CACHE[x] = x\n"
        "    ITEMS.append(x)\n"
        "    return helper(x)\n"
        "def helper(x):\n"
        "    return x\n"
    ))
    report = run_check(root, rule_names=["CONC001"])
    assert rules_of(report) == ["CONC001"] * 3
    messages = " ".join(f.message for f in report.findings)
    assert "TOTAL" in messages and "CACHE" in messages and "ITEMS" in messages


def test_conc001_flags_transitively_reachable_writes(tmp_path):
    root = conc_tree(tmp_path, (
        "from repro.core.deep import memoise\n"
        "def work(x):\n"
        "    return memoise(x)\n"
    ))
    (root / "core" / "deep.py").write_text(
        "MEMO = {}\ndef memoise(x):\n    MEMO[x] = x\n    return x\n",
        encoding="utf-8",
    )
    report = run_check(root, rule_names=["CONC001"])
    assert rules_of(report) == ["CONC001"]
    assert report.findings[0].path == "repro/core/deep.py"


def test_conc001_ignores_local_shadows_and_unreachable_code(tmp_path):
    root = conc_tree(tmp_path, (
        "CACHE = {}\n"
        "def work(x):\n"
        "    CACHE = {}\n"          # local shadow, not module state
        "    CACHE[x] = x\n"
        "    return x\n"
        "def parent_only(x):\n"     # never submitted to a pool
        "    CACHE[x] = x\n"
    ))
    report = run_check(root, rule_names=["CONC001"])
    assert report.findings == []


def test_conc001_inline_suppression_with_reason(tmp_path):
    root = conc_tree(tmp_path, (
        "CACHE = {}\n"
        "def work(x):\n"
        "    CACHE[x] = x  # repro: allow(CONC001) per-process memo, rebuilt deterministically\n"
        "    return x\n"
    ))
    report = run_check(root, rule_names=["CONC001"])
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["CONC001"]


def test_conc001_baselined_finding_does_not_fail(tmp_path):
    root = conc_tree(tmp_path, (
        "CACHE = {}\ndef work(x):\n    CACHE[x] = x\n    return x\n"
    ))
    first = run_check(root, rule_names=["CONC001"])
    assert not first.ok
    entries = [{**f.to_dict(), "reason": "grandfathered"} for f in first.findings]
    for entry in entries:
        entry.pop("line")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"schema": 1, "findings": entries}))
    second = run_check(root, rule_names=["CONC001"], baseline_path=baseline)
    assert second.ok and [f.rule for f in second.baselined] == ["CONC001"]


def test_conc002_flags_global_telemetry_reconfiguration(tmp_path):
    root = conc_tree(tmp_path, (
        "from repro.obs import trace, metrics\n"
        "def work(x):\n"
        "    trace.disable()\n"
        "    metrics.merge({})\n"
        "    return x\n"
    ))
    (root / "obs").mkdir()
    (root / "obs" / "trace.py").write_text("def disable():\n    pass\n")
    (root / "obs" / "metrics.py").write_text("def merge(d):\n    pass\n")
    report = run_check(root, rule_names=["CONC002"])
    assert rules_of(report) == ["CONC002"] * 2
    assert "trace.disable" in report.findings[0].message


def test_conc002_scoped_recording_is_sanctioned(tmp_path):
    root = conc_tree(tmp_path, (
        "from repro.obs import trace, metrics\n"
        "def work(x):\n"
        "    with trace.collect() as spans, metrics.scoped() as m:\n"
        "        metrics.inc('work.calls')\n"
        "        with trace.span('work'):\n"
        "            pass\n"
        "    return x\n"
    ))
    (root / "obs").mkdir()
    (root / "obs" / "trace.py").write_text(
        "def collect():\n    pass\ndef span(name):\n    pass\n"
    )
    (root / "obs" / "metrics.py").write_text(
        "def scoped():\n    pass\ndef inc(name):\n    pass\n"
    )
    report = run_check(root, rule_names=["CONC002"])
    assert report.findings == []


def test_conc003_flags_unjustified_clock_and_env_reads(tmp_path):
    root = conc_tree(tmp_path, (
        "import os\nimport time\n"
        "def work(x):\n"
        "    t = time.time()\n"
        "    home = os.environ['HOME']\n"
        "    return x\n"
    ))
    report = run_check(root, rule_names=["CONC003"])
    assert rules_of(report) == ["CONC003"] * 2


def test_conc003_respects_justified_det_allows(tmp_path):
    root = conc_tree(tmp_path, (
        "import time\n"
        "def work(x):\n"
        "    t = time.time()  # repro: allow(DET001) wall-time metadata, excluded from byte-identity\n"
        "    return x\n"
    ))
    report = run_check(root, rule_names=["CONC003"])
    assert report.findings == []


# ---------------------------------------------------------------------------
# VEC: the vectorization contract


def test_vec001_flags_default_kind_sorts(tmp_path):
    root = make_tree(tmp_path, {
        "graph/order.py": (
            "import numpy as np\n"
            "def rank(x):\n"
            "    return np.argsort(x)\n"
            "def values(x):\n"
            "    return np.sort(x)\n"
        ),
    })
    report = run_check(root, rule_names=["VEC001"])
    assert rules_of(report) == ["VEC001"] * 2


def test_vec001_accepts_stable_kinds_and_python_sorts(tmp_path):
    root = make_tree(tmp_path, {
        "graph/order.py": (
            "import numpy as np\n"
            "def rank(x):\n"
            "    return np.argsort(x, kind='stable')\n"
            "def merge(x):\n"
            "    return np.sort(x, kind='mergesort')\n"
            "def py(x):\n"
            "    return sorted(x)\n"
        ),
    })
    report = run_check(root, rule_names=["VEC001"])
    assert report.findings == []


def test_vec001_out_of_scope_layer_is_exempt(tmp_path):
    root = make_tree(tmp_path, {
        "bench/plot.py": "import numpy as np\ndef f(x):\n    return np.sort(x)\n",
    })
    report = run_check(root, rule_names=["VEC001"])
    assert report.findings == []


def test_vec002_flags_sort_then_reverse(tmp_path):
    root = make_tree(tmp_path, {
        "graph/order.py": (
            "import numpy as np\n"
            "def descending(x):\n"
            "    return np.sort(x)[::-1]\n"
        ),
    })
    report = run_check(root, rule_names=["VEC002"])
    assert rules_of(report) == ["VEC002"]
    assert "negated stable sort" in report.findings[0].message


def test_vec002_accepts_negated_stable_sort(tmp_path):
    root = make_tree(tmp_path, {
        "graph/order.py": (
            "import numpy as np\n"
            "def descending(x):\n"
            "    return -np.sort(-x, kind='stable')\n"
        ),
    })
    report = run_check(root, rule_names=["VEC002"])
    assert report.findings == []


def test_vec003_flags_narrowing_casts_on_index_arrays(tmp_path):
    root = make_tree(tmp_path, {
        "sparse/index.py": (
            "import numpy as np\n"
            "def chained(x):\n"
            "    return np.argsort(x, kind='stable').astype(np.int32)\n"
            "def via_local(x):\n"
            "    idx = np.argsort(x, kind='stable')\n"
            "    return idx.astype('uint16')\n"
        ),
    })
    report = run_check(root, rule_names=["VEC003"])
    assert rules_of(report) == ["VEC003"] * 2


def test_vec003_accepts_full_width_and_value_casts(tmp_path):
    root = make_tree(tmp_path, {
        "sparse/index.py": (
            "import numpy as np\n"
            "def full(x):\n"
            "    return np.argsort(x, kind='stable').astype(np.int64)\n"
            "def values(x):\n"
            "    return x.astype(np.int32)\n"  # not an index array
        ),
    })
    report = run_check(root, rule_names=["VEC003"])
    assert report.findings == []


def test_vec_suppression_with_reason(tmp_path):
    root = make_tree(tmp_path, {
        "graph/order.py": (
            "import numpy as np\n"
            "def rank(x):\n"
            "    return np.argsort(x)  # repro: allow(VEC001) ties impossible, keys are unique ids\n"
        ),
    })
    report = run_check(root, rule_names=["VEC001"])
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["VEC001"]


# ---------------------------------------------------------------------------
# KEY003: cache-key flow

_REQUEST = (
    "from dataclasses import dataclass\n"
    "@dataclass(frozen=True)\n"
    "class SimRequest:\n"
    "    backend: str\n"
    "    dataset: str\n"
    "    debug_label: str\n"
    "    def to_dict(self):\n"
    "        return {'backend': self.backend, 'dataset': self.dataset}\n"
    "    def canonical_json(self):\n"
    "        import json\n"
    "        return json.dumps(self.to_dict(), sort_keys=True)\n"
)


def key_tree(tmp_path, backend_body):
    return make_tree(tmp_path, {
        "api/request.py": _REQUEST,
        "api/backends.py": backend_body,
    })


def test_key003_flags_backend_reads_of_unkeyed_fields(tmp_path):
    root = key_tree(tmp_path, (
        "class GrowBackend:\n"
        "    name = 'grow'\n"
        "    def run(self, request, session=None):\n"
        "        return self._inner(request)\n"
        "    def _inner(self, request):\n"
        "        return request.debug_label\n"  # never reaches to_dict()
    ))
    report = run_check(root, rule_names=["KEY003"])
    assert rules_of(report) == ["KEY003"]
    finding = report.findings[0]
    assert "debug_label" in finding.message
    assert "canonical_json" in finding.message


def test_key003_accepts_keyed_field_reads(tmp_path):
    root = key_tree(tmp_path, (
        "class GrowBackend:\n"
        "    name = 'grow'\n"
        "    def run(self, request, session=None):\n"
        "        return request.backend + request.dataset\n"
    ))
    report = run_check(root, rule_names=["KEY003"])
    assert report.findings == []


def test_key003_honours_documented_exempt_fields(tmp_path):
    root = key_tree(tmp_path, (
        "class GrowBackend:\n"
        "    name = 'grow'\n"
        "    def run(self, request, session=None):\n"
        "        return request.debug_label\n"
    ))
    config = dataclasses.replace(
        DEFAULT_CONFIG, cache_key_exempt_fields=frozenset({"debug_label"})
    )
    report = run_check(root, rule_names=["KEY003"], config=config)
    assert report.findings == []


# ---------------------------------------------------------------------------
# SARIF export


def _sarif_fixture(tmp_path):
    root = make_tree(tmp_path, {
        "core/clock.py": (
            "import time\n"
            "T = time.time()\n"
            "U = time.time()  # repro: allow(DET001) startup metadata, never keyed\n"
        ),
    })
    return root


def test_sarif_document_structure_and_validation(tmp_path):
    root = _sarif_fixture(tmp_path)
    report = run_check(root, rule_names=["DET001"])
    document = sarif_report(report, select_rules(["DET001"]))
    assert validate_sarif(document) == []
    assert document["version"] == "2.1.0"
    run = document["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-check"
    levels = {r["level"] for r in run["results"]}
    assert levels == {"error", "note"}
    kinds = [
        s["kind"] for r in run["results"] for s in r.get("suppressions", [])
    ]
    assert kinds == ["inSource"]


def test_sarif_baselined_findings_marked_external(tmp_path):
    root = _sarif_fixture(tmp_path)
    first = run_check(root, rule_names=["DET001"])
    entries = [{**f.to_dict(), "reason": "grandfathered"} for f in first.findings]
    for entry in entries:
        entry.pop("line")
    baseline = tmp_path / "baseline.json"
    baseline.write_text(json.dumps({"schema": 1, "findings": entries}))
    report = run_check(root, rule_names=["DET001"], baseline_path=baseline)
    document = sarif_report(report, select_rules(["DET001"]))
    assert validate_sarif(document) == []
    kinds = sorted(
        s["kind"]
        for r in document["runs"][0]["results"]
        for s in r.get("suppressions", [])
    )
    assert kinds == ["external", "inSource"]


def test_sarif_validator_rejects_structural_damage(tmp_path):
    root = _sarif_fixture(tmp_path)
    report = run_check(root, rule_names=["DET001"])
    document = sarif_report(report, select_rules(["DET001"]))

    broken = json.loads(json.dumps(document))
    broken["version"] = "1.0.0"
    assert any("version" in p for p in validate_sarif(broken))

    broken = json.loads(json.dumps(document))
    broken["runs"][0]["results"][0]["level"] = "fatal"
    assert any("level" in p for p in validate_sarif(broken))

    broken = json.loads(json.dumps(document))
    broken["runs"][0]["results"][0]["ruleId"] = "NOPE999"
    assert any("ruleId" in p for p in validate_sarif(broken))

    broken = json.loads(json.dumps(document))
    location = broken["runs"][0]["results"][0]["locations"][0]
    location["physicalLocation"]["region"]["startLine"] = 0
    assert any("startLine" in p for p in validate_sarif(broken))


def test_cli_sarif_writes_a_valid_file(tmp_path):
    root = _sarif_fixture(tmp_path)
    out = tmp_path / "report.sarif"
    code = check_main([
        "--root", str(root), "--no-baseline", "--rules", "DET001",
        "--sarif", str(out),
    ])
    assert code == 1  # findings still fail the run
    document = json.loads(out.read_text())
    assert validate_sarif(document) == []
    assert document["runs"][0]["results"]


def test_sarif_carries_parse_errors_as_notifications(tmp_path):
    root = make_tree(tmp_path, {
        "core/ok.py": "X = 1\n",
        "core/broken.py": "def f(:\n",
    })
    report = run_check(root)
    document = sarif_report(report, select_rules(None))
    assert validate_sarif(document) == []
    invocation = document["runs"][0]["invocations"][0]
    assert invocation["executionSuccessful"] is False
    texts = [
        n["message"]["text"]
        for n in invocation["toolExecutionNotifications"]
    ]
    assert any("broken.py" in text for text in texts)


# ---------------------------------------------------------------------------
# --changed: git-scoped incremental checking


def _git(root, *args):
    subprocess.run(
        ["git", "-c", "user.email=t@t", "-c", "user.name=t", *args],
        cwd=root, check=True, capture_output=True, text=True,
    )


def _changed_fixture(tmp_path):
    """A committed tree where core/a.py is imported by harness/b.py,
    while sparse/c.py is unrelated and carries its own violation."""
    root = make_tree(tmp_path, {
        "core/a.py": "def cost():\n    return 0\n",
        "harness/b.py": "from repro.core.a import cost\n",
        "sparse/c.py": "import time\nT = time.time()\n",
    })
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", ".")
    _git(tmp_path, "commit", "-qm", "seed")
    return root


def test_changed_scope_is_the_reverse_import_closure(tmp_path):
    root = _changed_fixture(tmp_path)
    # Introduce a violation in the changed module only.
    (root / "core" / "a.py").write_text(
        "import time\ndef cost():\n    return time.time()\n"
    )
    report = run_check(root, changed_ref="HEAD")
    assert report.scope is not None
    assert report.scope["changed"] == ["repro/core/a.py"]
    # The importer rides along; the unrelated module does not.
    assert "repro/harness/b.py" in report.scope["scope"]
    assert "repro/sparse/c.py" not in report.scope["scope"]
    # sparse/c.py's pre-existing DET001 is filtered out of the report.
    assert {f.path for f in report.findings} == {"repro/core/a.py"}


def test_changed_scope_includes_untracked_files(tmp_path):
    root = _changed_fixture(tmp_path)
    (root / "core" / "fresh.py").write_text("import time\nT = time.time()\n")
    report = run_check(root, changed_ref="HEAD")
    assert "repro/core/fresh.py" in report.scope["changed"]
    assert {f.path for f in report.findings} == {"repro/core/fresh.py"}


def test_changed_clean_diff_reports_nothing(tmp_path):
    root = _changed_fixture(tmp_path)
    report = run_check(root, changed_ref="HEAD")
    assert report.findings == []
    assert report.scope["changed"] == []


def test_changed_bad_ref_is_a_usage_error(tmp_path, capsys):
    root = _changed_fixture(tmp_path)
    code = check_main([
        "--root", str(root), "--no-baseline", "--changed", "no-such-ref",
    ])
    assert code == 2
    assert "git" in capsys.readouterr().err


def test_changed_outside_git_is_a_usage_error(tmp_path, capsys, monkeypatch):
    root = make_tree(tmp_path, {"core/a.py": "X = 1\n"})
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "no-such-gitdir"))
    with pytest.raises(ChangedError):
        run_check(root, changed_ref="HEAD")


def test_reverse_closure_is_transitive(tmp_path):
    root = make_tree(tmp_path, {
        "core/a.py": "",
        "gcn/b.py": "from repro.core import a\n",
        "harness/c.py": "from repro.gcn import b\n",
        "sparse/d.py": "",
    })
    project = Project.load(root)
    closure = reverse_closure(project, {"repro.core.a"})
    assert closure == {"repro.core.a", "repro.gcn.b", "repro.harness.c"}


def test_changed_cli_end_to_end(tmp_path, capsys):
    root = _changed_fixture(tmp_path)
    (root / "core" / "a.py").write_text(
        "import time\ndef cost():\n    return time.time()\n"
    )
    code = check_main(["--root", str(root), "--no-baseline", "--changed", "--json"])
    assert code == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["scope"]["ref"] == "HEAD"
    assert payload["scope"]["changed"] == ["repro/core/a.py"]
    assert [f["path"] for f in payload["findings"]] == ["repro/core/a.py"]


# ---------------------------------------------------------------------------
# The checker stays importable on a bare interpreter


def test_analyze_package_is_stdlib_only(tmp_path):
    """``repro check`` must run where numpy etc. are absent: importing
    the whole analyze package under an import hook that blocks every
    third-party module must succeed."""
    script = (
        "import sys\n"
        "class Block:\n"
        "    def find_module(self, name, path=None):\n"
        "        top = name.split('.')[0]\n"
        "        if top in ('numpy', 'scipy', 'matplotlib', 'pandas'):\n"
        "            raise ImportError(f'third-party import blocked: {name}')\n"
        "        return None\n"
        "sys.meta_path.insert(0, Block())\n"
        "import repro.analyze\n"
        "import repro.analyze.callgraph\n"
        "import repro.analyze.sarif\n"
        "import repro.analyze.changed\n"
        "from repro.analyze.cli import main\n"
        "print('ok')\n"
    )
    src = Path(__file__).resolve().parent.parent / "src"
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True,
        env={"PYTHONPATH": str(src), "PATH": "/usr/bin:/bin"},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
