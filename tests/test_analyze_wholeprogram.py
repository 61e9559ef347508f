"""Tests for the whole-program analysis layer of ``repro check``.

Covers the call graph (``repro.analyze.callgraph``), the three rule
families built on it (CONC worker purity, VEC vectorization contract,
KEY003 cache-key flow) and the SARIF 2.1.0 export.  Fixture trees follow ``tests/test_analyze.py``'s
idiom: first-level package names reuse the real layer names so
``DEFAULT_CONFIG`` applies unchanged, and each new family is exercised
positive / negative / suppressed.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys
from pathlib import Path
from typing import Any

from repro.analyze import run_check
from repro.analyze.callgraph import graph_for, pool_entry_points
from repro.analyze.cli import main as check_main
from repro.analyze.contracts import DEFAULT_CONFIG
from repro.analyze.project import Project
from repro.analyze.sarif import SARIF_VERSION, sarif_report
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


def test_vec004_flags_hash_path_and_axis_unique(tmp_path):
    root = make_tree(tmp_path, {
        "scaleout/plan.py": (
            "import numpy as np\n"
            "from numpy import unique\n"
            "def bare(x):\n"
            "    return np.unique(x)\n"
            "def rows(pairs):\n"
            "    return np.unique(pairs, axis=0)\n"
            "def counted_rows(pairs):\n"
            "    return np.unique(pairs, return_counts=True, axis=0)\n"
            "def false_flag(x):\n"
            "    return unique(x, return_counts=False)\n"
            "def positional_axis(x):\n"
            "    return np.unique(x, True, False, False, 0)\n"
        ),
    })
    report = run_check(root, rule_names=["VEC004"])
    assert rules_of(report) == ["VEC004"] * 5
    assert all("sorted_unique" in f.message for f in report.findings)
    assert sorted(f.line for f in report.findings) == [4, 6, 8, 10, 12]


def test_vec004_accepts_sort_path_unique(tmp_path):
    root = make_tree(tmp_path, {
        "scaleout/plan.py": (
            "import numpy as np\n"
            "def counts(x):\n"
            "    return np.unique(x, return_counts=True)\n"
            "def inverse(x):\n"
            "    return np.unique(x, return_inverse=True)\n"
            "def first(x):\n"
            "    return np.unique(x, True)\n"
            "def chosen(x, want):\n"
            "    return np.unique(x, return_index=want)\n"
        ),
        "bench/plot.py": "import numpy as np\ndef f(x):\n    return np.unique(x)\n",
    })
    report = run_check(root, rule_names=["VEC004"])
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


def test_vec004_suppression_with_reason(tmp_path):
    root = make_tree(tmp_path, {
        "graph/keys.py": (
            "import numpy as np\n"
            "def distinct(x):\n"
            "    return np.unique(x)  # repro: allow(VEC004) object keys, no sort path\n"
        ),
    })
    report = run_check(root, rule_names=["VEC004"])
    assert report.findings == []
    assert [f.rule for f in report.suppressed] == ["VEC004"]


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


_LEVELS = frozenset({"none", "note", "warning", "error"})
_SUPPRESSION_KINDS = frozenset({"inSource"})


def _check(condition: bool, problems: list[str], message: str) -> bool:
    if not condition:
        problems.append(message)
    return condition


def validate_sarif(document: Any) -> list[str]:
    """Structural problems of ``document`` against the SARIF 2.1.0 subset
    :mod:`repro.analyze.sarif` emits; empty means valid.

    Covers the properties the spec marks required (``version``, ``runs``,
    ``tool.driver.name``, ``message.text`` on every result, region line
    numbers >= 1) plus the enums (result ``level``, suppression ``kind``)
    and the rule-id cross-reference: every result's ``ruleId`` must be
    declared by the driver.
    """
    problems: list[str] = []
    if not _check(isinstance(document, dict), problems, "document is not an object"):
        return problems
    _check(
        document.get("version") == SARIF_VERSION,
        problems,
        f"version must be {SARIF_VERSION!r}",
    )
    runs = document.get("runs")
    if not _check(isinstance(runs, list) and runs, problems, "runs must be a non-empty array"):
        return problems
    for run_index, run in enumerate(runs):
        where = f"runs[{run_index}]"
        if not _check(isinstance(run, dict), problems, f"{where} is not an object"):
            continue
        driver = run.get("tool", {}).get("driver") if isinstance(run.get("tool"), dict) else None
        if not _check(
            isinstance(driver, dict), problems, f"{where}.tool.driver missing"
        ):
            continue
        _check(
            isinstance(driver.get("name"), str) and driver["name"],
            problems,
            f"{where}.tool.driver.name must be a non-empty string",
        )
        rule_ids = set()
        for rule_index, rule in enumerate(driver.get("rules", [])):
            rwhere = f"{where}.tool.driver.rules[{rule_index}]"
            if not _check(isinstance(rule, dict), problems, f"{rwhere} is not an object"):
                continue
            if _check(isinstance(rule.get("id"), str), problems, f"{rwhere}.id missing"):
                rule_ids.add(rule["id"])
            short = rule.get("shortDescription")
            _check(
                isinstance(short, dict) and isinstance(short.get("text"), str),
                problems,
                f"{rwhere}.shortDescription.text missing",
            )
        results = run.get("results")
        if not _check(isinstance(results, list), problems, f"{where}.results must be an array"):
            continue
        for result_index, result in enumerate(results):
            swhere = f"{where}.results[{result_index}]"
            if not _check(isinstance(result, dict), problems, f"{swhere} is not an object"):
                continue
            _check(
                isinstance(result.get("ruleId"), str)
                and (not rule_ids or result["ruleId"] in rule_ids),
                problems,
                f"{swhere}.ruleId missing or not declared by the driver",
            )
            _check(
                result.get("level") in _LEVELS,
                problems,
                f"{swhere}.level must be one of {sorted(_LEVELS)}",
            )
            message = result.get("message")
            _check(
                isinstance(message, dict) and isinstance(message.get("text"), str),
                problems,
                f"{swhere}.message.text missing",
            )
            for loc_index, location in enumerate(result.get("locations", [])):
                lwhere = f"{swhere}.locations[{loc_index}]"
                physical = (
                    location.get("physicalLocation")
                    if isinstance(location, dict)
                    else None
                )
                if not _check(
                    isinstance(physical, dict),
                    problems,
                    f"{lwhere}.physicalLocation missing",
                ):
                    continue
                artifact = physical.get("artifactLocation")
                _check(
                    isinstance(artifact, dict) and isinstance(artifact.get("uri"), str),
                    problems,
                    f"{lwhere}.physicalLocation.artifactLocation.uri missing",
                )
                region = physical.get("region")
                if region is not None:
                    _check(
                        isinstance(region, dict)
                        and isinstance(region.get("startLine"), int)
                        and region["startLine"] >= 1,
                        problems,
                        f"{lwhere}.physicalLocation.region.startLine must be >= 1",
                    )
            for sup_index, suppression in enumerate(result.get("suppressions", [])):
                _check(
                    isinstance(suppression, dict)
                    and suppression.get("kind") in _SUPPRESSION_KINDS,
                    problems,
                    f"{swhere}.suppressions[{sup_index}].kind must be one of "
                    f"{sorted(_SUPPRESSION_KINDS)}",
                )
    return problems


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
        "--root", str(root), "--rules", "DET001",
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
