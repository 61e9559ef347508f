"""Tests for the runtime dataset registry and the scenario subsystem.

Covers the registry itself (registration semantics, round-trips), the
generator statistical properties scenarios rely on, the API facade's
case/scenario canonicalisation (cache-key soundness), and the end-to-end
path: a scenario never named in the paper through ``grow``, scale-out and a
DSE generation, with serial == parallel == cached results identical.
"""

import json

import numpy as np
import pytest

from repro.api import RequestError, Session, SimRequest, clear_memo
from repro.graph import registry
from repro.graph.datasets import DATASET_NAMES, load_dataset
from repro.graph.generators import chung_lu_graph
from repro.harness.config import default_config, smoke_config
from repro.harness.workloads import clear_caches


@pytest.fixture(autouse=True)
def _clean_registry():
    """Each test starts from the built-in-only registry and empty memos."""
    custom = [n for n in registry.dataset_names() if not registry.is_builtin(n)]
    for name in custom:
        registry.unregister_dataset(name)
    clear_memo()
    clear_caches()
    yield
    custom = [n for n in registry.dataset_names() if not registry.is_builtin(n)]
    for name in custom:
        registry.unregister_dataset(name)
    clear_memo()
    clear_caches()


def _scenario_dict(name="synthtest", **overrides):
    data = {
        "name": name,
        "generator": "chung-lu",
        "num_nodes": 400,
        "average_degree": 6.0,
        "num_communities": 4,
        "feature_lengths": [64, 32, 8],
    }
    data.update(overrides)
    return data


# -- registry semantics -----------------------------------------------------


def test_builtins_are_registered():
    assert registry.dataset_names()[: len(DATASET_NAMES)] == DATASET_NAMES
    for name in DATASET_NAMES:
        assert registry.is_builtin(name)
        assert registry.known_dataset(name.upper())


def test_register_and_unregister_scenario():
    spec = registry.define_scenario(**_scenario_dict())
    assert registry.known_dataset("synthtest")
    assert not registry.is_builtin("synthtest")
    assert registry.get_spec("SynthTest") is spec
    assert "synthtest" in registry.dataset_names()
    registry.unregister_dataset("synthtest")
    assert not registry.known_dataset("synthtest")


def test_reregistering_identical_spec_is_noop():
    registry.define_scenario(**_scenario_dict())
    registry.define_scenario(**_scenario_dict())  # same parameters: fine
    assert registry.known_dataset("synthtest")


def test_conflicting_registration_requires_replace():
    registry.define_scenario(**_scenario_dict())
    with pytest.raises(ValueError, match="different parameters"):
        registry.define_scenario(**_scenario_dict(num_nodes=999))
    spec = registry.define_scenario(replace=True, **_scenario_dict(num_nodes=999))
    assert spec.synthetic_nodes == 999


def test_builtins_cannot_be_replaced_or_removed():
    cora = registry.get_spec("cora")
    with pytest.raises(ValueError):
        registry.register_dataset(
            registry.scenario_from_dict(_scenario_dict(name="cora")), replace=True
        )
    with pytest.raises(ValueError):
        registry.unregister_dataset("cora")
    assert registry.get_spec("cora") is cora


def test_scenario_round_trip():
    spec = registry.scenario_from_dict(_scenario_dict())
    assert registry.scenario_from_dict(registry.scenario_to_dict(spec)) == spec


def test_scenario_feature_shorthand():
    spec = registry.scenario_from_dict(
        {"name": "deep", "num_layers": 3, "input_features": 32,
         "hidden_features": 16, "output_features": 4}
    )
    assert spec.feature_lengths == (32, 16, 16, 4)


def test_scenario_validation_errors():
    with pytest.raises(ValueError, match="unknown key"):
        registry.scenario_from_dict(_scenario_dict(bogus=1))
    with pytest.raises(ValueError, match="unknown generator"):
        registry.scenario_from_dict(_scenario_dict(generator="barabasi"))
    with pytest.raises(ValueError, match="num_nodes"):
        registry.scenario_from_dict(_scenario_dict(num_nodes=0))
    with pytest.raises(ValueError, match="exponent"):
        registry.scenario_from_dict(_scenario_dict(exponent=0.9))
    with pytest.raises(ValueError, match="name"):
        registry.scenario_from_dict(_scenario_dict(name=""))
    with pytest.raises(ValueError, match="feature_lengths"):
        registry.scenario_from_dict(_scenario_dict(feature_lengths=[64]))
    with pytest.raises(ValueError, match="invalid scenario spec.*feature_lengths"):
        registry.scenario_from_dict(_scenario_dict(feature_lengths=["wide", 8]))
    with pytest.raises(ValueError, match="invalid scenario spec"):
        registry.scenario_from_dict({"name": "x", "num_layers": "deep"})


def test_redefined_scenario_gets_fresh_bundle():
    # Regression: a registry-resolved scenario used to be keyed by name
    # alone in the bundle memo, so redefining it returned the stale
    # workload.  Configs snapshot the definition at construction, so each
    # config gets exactly the bundle its carried spec describes.
    from repro.harness.config import ExperimentConfig
    from repro.harness.workloads import get_bundle

    registry.define_scenario(**_scenario_dict(name="probe", num_nodes=200))
    old_config = ExperimentConfig(datasets=("probe",))
    assert get_bundle("probe", old_config).dataset.num_nodes == 200
    registry.define_scenario(replace=True, **_scenario_dict(name="probe", num_nodes=400))
    new_config = ExperimentConfig(datasets=("probe",))
    assert get_bundle("probe", new_config).dataset.num_nodes == 400
    # The old config still resolves its own snapshot, not the redefinition.
    assert get_bundle("probe", old_config).dataset.num_nodes == 200


def test_config_snapshots_scenarios_at_construction():
    # A config built while a scenario is registered carries its full
    # definition, so worker processes (including spawn-start pools whose
    # registries hold only the built-ins) can rebuild the workload.
    from repro.harness.config import ExperimentConfig

    registry.define_scenario(**_scenario_dict(name="carried", num_nodes=256))
    config = ExperimentConfig(datasets=("cora", "carried"))
    assert config.scenario_for("carried") is not None
    assert config.scenario_for("carried").synthetic_nodes == 256
    assert config.scenario_for("cora") is None


def test_scenario_structure_honoured_at_natural_size():
    # Regression: num_communities used to be silently clamped to n//64 (and
    # the degree to n/4) even at the scenario's own size, degenerating the
    # community axis of the scenario-scaling DSE space.
    registry.define_scenario(
        **_scenario_dict(name="manycomm", num_nodes=1000, num_communities=64)
    )
    graph = load_dataset("manycomm").graph
    assert np.unique(graph.communities).size == 64
    # An explicit override still rescales the structure for the new size.
    shrunk = load_dataset("manycomm", num_nodes=128).graph
    assert np.unique(shrunk.communities).size <= 2


def test_redefined_scenario_changes_disk_fingerprint():
    # Regression: the on-disk ResultCache fingerprint used to key scenarios
    # by name alone, so redefining one hit stale persistent entries.  Each
    # config's fingerprint embeds the definition it snapshotted.
    from repro.harness.cache import config_fingerprint
    from repro.harness.config import ExperimentConfig

    registry.define_scenario(**_scenario_dict(name="probe", num_nodes=200))
    before = json.dumps(config_fingerprint(ExperimentConfig(datasets=("probe",))), sort_keys=True)
    registry.define_scenario(replace=True, **_scenario_dict(name="probe", num_nodes=400))
    after = json.dumps(config_fingerprint(ExperimentConfig(datasets=("probe",))), sort_keys=True)
    assert before != after
    # Built-in-only configs are unaffected (and carry no scenario payload).
    assert config_fingerprint(ExperimentConfig(datasets=("cora",)))["scenarios"] == []


def test_smoke_config_never_enlarges_a_scenario():
    # Regression: the blanket smoke override (500 nodes) used to *grow* a
    # smaller scenario; smoke only ever shrinks.
    registry.define_scenario(**_scenario_dict(name="tiny-scn", num_nodes=100))
    registry.define_scenario(**_scenario_dict(name="big-scn", num_nodes=5000))
    config = smoke_config(datasets=("tiny-scn", "big-scn"))
    assert config.num_nodes_override["tiny-scn"] == 100
    assert config.num_nodes_override["big-scn"] == 500
    from repro.harness.workloads import get_bundle

    assert get_bundle("tiny-scn", config).dataset.num_nodes == 100


def test_every_generator_family_loads_degenerate_sizes():
    # Scenario validation accepts num_nodes >= 1, so every family must
    # materialise (not crash) at the degenerate sizes.
    for family in registry.GENERATOR_FAMILIES:
        for n in (1, 2):
            spec = registry.scenario_from_dict(
                {"name": f"deg-{family}-{n}", "generator": family,
                 "num_nodes": n, "average_degree": 8.0, "feature_lengths": [8, 4]}
            )
            dataset = load_dataset(spec=spec)
            assert dataset.num_nodes == n


def test_builtin_graphs_keep_legacy_structure_scaling():
    # The calibrated Table I stand-ins keep their community rescaling
    # (reddit's 50 communities clamp to 3000 // 64 = 46 at natural size);
    # only runtime scenarios are honoured verbatim.
    graph = load_dataset("reddit").graph
    assert np.unique(graph.communities).size == 46


def test_smoke_config_bounds_scenario_candidates():
    # Regression: scenario candidates used to escape the smoke shrink
    # entirely; a shrunken config must bound their size (monotonically, so
    # the searched axis stays distinct).
    from repro.dse.objectives import _bind_scenario

    smoke = smoke_config()
    cap = 2 * max(smoke.num_nodes_override.values())
    sizes = []
    for requested in (400, 4000, 16000):
        bound, _ = _bind_scenario(smoke, {"num_nodes": requested})
        sizes.append(bound.scenarios[0].synthetic_nodes)
    assert sizes[0] == 400  # small candidates untouched
    assert sizes == sorted(sizes) and len(set(sizes)) == 3
    assert all(size <= 4 * cap for size in sizes)
    # Full-size configs leave candidates exactly as requested.
    full, _ = _bind_scenario(default_config(), {"num_nodes": 16000})
    assert full.scenarios[0].synthetic_nodes == 16000


def test_scenario_small_node_count_honoured():
    # The definition *is* the workload: a 5-node scenario simulates 5 nodes,
    # even as an explicit override (the historical floor of 16 only guards
    # overrides shrinking *below* the definition).
    registry.define_scenario(**_scenario_dict(num_nodes=5, average_degree=1.5))
    assert load_dataset("synthtest").num_nodes == 5
    assert load_dataset("synthtest", num_nodes=5).num_nodes == 5
    assert load_dataset("cora", num_nodes=5).num_nodes == 16


def test_redundant_num_nodes_override_is_canonicalised():
    # num_nodes equal to the scenario's own size describes the same
    # simulation as no override — the cache keys must agree.
    registry.define_scenario(**_scenario_dict(name="canon", num_nodes=100))
    assert (
        SimRequest(dataset="canon").cache_key()
        == SimRequest(dataset="canon", num_nodes=100).cache_key()
    )
    assert (
        SimRequest(dataset="canon", num_nodes=50).cache_key()
        != SimRequest(dataset="canon").cache_key()
    )
    # A smoke config clamps the override to exactly the scenario's size;
    # the resulting request canonicalises it away like library use does.
    config = smoke_config(datasets=("canon",))
    request = SimRequest.from_experiment(config, "canon")
    assert request.num_nodes is None
    assert (
        request.cache_key()
        == SimRequest(dataset="canon", target_cluster_nodes=150).cache_key()
    )


def test_load_dataset_resolves_every_generator_family():
    for family in registry.GENERATOR_FAMILIES:
        spec = registry.define_scenario(
            **_scenario_dict(name=f"fam-{family}", generator=family, num_nodes=200)
        )
        dataset = load_dataset(spec.name)
        assert dataset.num_nodes == 200
        assert dataset.graph.num_edges > 0
        assert dataset.num_layers == 2


def test_load_dataset_scenario_deterministic():
    registry.define_scenario(**_scenario_dict())
    a = load_dataset("synthtest", seed=3)
    b = load_dataset("synthtest", seed=3)
    np.testing.assert_array_equal(a.graph.src, b.graph.src)
    assert not np.array_equal(
        a.graph.src, load_dataset("synthtest", seed=4).graph.src
    )


# -- generator statistical properties ---------------------------------------


def test_scenario_graph_mean_degree_on_target():
    registry.define_scenario(**_scenario_dict(num_nodes=2000, average_degree=10.0))
    graph = load_dataset("synthtest").graph
    assert graph.average_degree == pytest.approx(10.0, rel=0.15)


def test_scenario_planted_intra_community_fraction():
    graph = chung_lu_graph(
        800, 8.0, num_communities=8, intra_community_prob=0.85,
        rng=np.random.default_rng(5),
    )
    labels = graph.communities
    intra = float((labels[graph.src] == labels[graph.dst]).mean())
    assert intra > 0.6


def test_scenario_powerlaw_exponent_sanity():
    from oracles import powerlaw_fit_exponent

    # Fit the tail (x_min=5): edge sampling distorts the low-degree mass,
    # but the tail exponent must track the requested one.
    graph = chung_lu_graph(4000, 10.0, exponent=2.2, rng=np.random.default_rng(9))
    fitted = powerlaw_fit_exponent(graph, x_min=5)
    assert fitted == pytest.approx(2.2, abs=0.5)


# -- facade canonicalisation (case + scenario cache keys) --------------------


def test_simrequest_accepts_loader_spellings():
    # Regression: load_dataset("Cora") worked while SimRequest(dataset="Cora")
    # raised; both paths must accept exactly the same names.
    for name in ("Cora", "AMAZON", "reddit"):
        dataset = load_dataset(name, num_nodes=64)
        request = SimRequest(dataset=name)
        assert request.dataset == dataset.name == name.lower()


def test_simrequest_case_insensitive_cache_key():
    assert SimRequest(dataset="Cora").cache_key() == SimRequest(dataset="cora").cache_key()


def test_scenario_request_embeds_definition():
    registry.define_scenario(**_scenario_dict())
    request = SimRequest(dataset="synthtest")
    assert request.scenario is not None
    assert request.to_dict()["scenario"]["num_nodes"] == 400


def test_scenario_cache_key_covers_parameters():
    # Same name, different parameters -> different cache keys (the key is the
    # definition, not the registry name).
    a = SimRequest(dataset="s", scenario=_scenario_dict(name="s"))
    b = SimRequest(dataset="s", scenario=_scenario_dict(name="s", num_nodes=800))
    c = SimRequest(dataset="s", scenario=_scenario_dict(name="s"))
    assert a.cache_key() != b.cache_key()
    assert a.cache_key() == c.cache_key()


def test_scenario_request_json_round_trip():
    request = SimRequest(dataset="synthtest", scenario=_scenario_dict())
    rebuilt = SimRequest.from_dict(json.loads(request.canonical_json()))
    assert rebuilt == request
    assert rebuilt.cache_key() == request.cache_key()


def test_scenario_name_mismatch_rejected():
    with pytest.raises(RequestError, match="does not match"):
        SimRequest(dataset="other", scenario=_scenario_dict(name="synthtest"))


def test_scenario_cannot_shadow_builtin():
    with pytest.raises(RequestError, match="built-in"):
        SimRequest(dataset="cora", scenario={"num_nodes": 64})


def test_unknown_dataset_suggests_registered_scenarios():
    registry.define_scenario(**_scenario_dict(name="mygraph"))
    with pytest.raises(RequestError, match="mygraph"):
        SimRequest(dataset="mygrap")


def test_experiment_config_carries_scenario():
    registry.define_scenario(**_scenario_dict())
    request = SimRequest(dataset="synthtest")
    config = request.experiment_config()
    assert config.scenario_for("synthtest") == request.scenario
    # The bridge back from a config picks the scenario up again.
    again = SimRequest.from_experiment(config, "synthtest")
    assert again.cache_key() == request.cache_key()


# -- end to end: a scenario the paper never names ----------------------------


def test_scenario_runs_grow_serial_parallel_cached_identical(tmp_path):
    request = SimRequest(dataset="synthtest", scenario=_scenario_dict())
    serial = Session(use_cache=False, jobs=1).run(request)
    assert serial.status == "ran" and serial.total_cycles > 0

    clear_memo()
    clear_caches()
    parallel = Session(use_cache=False, jobs=2).run_batch([request, request])
    assert parallel[0].metrics == serial.metrics
    assert parallel[0].to_dict()["detail"] == serial.to_dict()["detail"]
    assert parallel[1].status == "cached"

    clear_memo()
    clear_caches()
    disk = Session(results_dir=tmp_path, jobs=1)
    first = disk.run(request)
    assert first.metrics == serial.metrics
    clear_memo()
    cached = Session(results_dir=tmp_path, jobs=1).run(request)
    assert cached.status == "cached"
    assert cached.metrics == serial.metrics
    assert cached.to_dict()["detail"] == serial.to_dict()["detail"]


def test_scenario_runs_multichip_scaleout():
    request = SimRequest(
        dataset="synthtest",
        scenario=_scenario_dict(),
        backend="scaleout",
        fabric={"num_chips": 2, "topology": "ring"},
    )
    run = Session(use_cache=False).run(request)
    assert run.status == "ran"
    system = run.detail["system"]
    assert system["topology"]["num_chips"] == 2
    assert run.total_cycles > 0


def test_scenario_scaling_dse_generation():
    from repro.dse import DSERunner, get_space

    space = get_space("scenario-smoke")
    runner = DSERunner(
        space=space,
        sampler="grid",
        config=smoke_config(),
        budget=space.size,
        jobs=1,
        use_cache=False,
        results_dir=None,
    )
    report = runner.run()
    assert report.ok
    assert len(report.evaluations) == space.size
    # Distinct workload sizes must produce distinct cycle counts.
    cycles = {e.candidate["num_nodes"]: e.metrics["cycles"] for e in report.evaluations}
    assert len(set(cycles.values())) > 1


def test_scenario_candidate_metrics_deterministic():
    from repro.dse.objectives import candidate_metrics

    candidate = {"num_nodes": 300, "average_degree": 6.0}
    a = candidate_metrics("grow", candidate, smoke_config())
    b = candidate_metrics("grow", candidate, smoke_config())
    assert a == b
    bigger = candidate_metrics(
        "grow", {"num_nodes": 600, "average_degree": 6.0}, smoke_config()
    )
    assert bigger["cycles"] > a["cycles"]


def test_scenario_scaling_experiment_smoke():
    from repro.harness import run_experiment

    result = run_experiment("scenario_scaling", config=smoke_config())
    assert len(result.rows) == 3
    # More nodes, more cycles.
    cycles = [row["cycles"] for row in result.rows]
    assert cycles == sorted(cycles)


def test_scenario_generators_experiment_smoke():
    from repro.harness import run_experiment

    result = run_experiment("scenario_generators", config=smoke_config())
    assert [row["generator"] for row in result.rows] == list(registry.GENERATOR_FAMILIES)
    assert all(row["cycles"] > 0 for row in result.rows)


def test_cli_sim_with_inline_scenario(capsys):
    from repro.__main__ import main

    spec = json.dumps(_scenario_dict(name="cli-scn", num_nodes=200))
    assert main(["sim", "--backend", "grow", "--scenario", spec, "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["request"]["dataset"] == "cli-scn"
    assert payload[0]["request"]["scenario"]["num_nodes"] == 200
    assert payload[0]["metrics"]["cycles"] > 0


def test_cli_datasets_define(tmp_path, capsys):
    from repro.__main__ import main

    path = tmp_path / "scn.json"
    path.write_text(json.dumps(_scenario_dict(name="filedef", num_nodes=128)))
    assert main(["datasets", "--define", str(path)]) == 0
    out = capsys.readouterr().out
    assert "filedef" in out


def test_cli_rejects_malformed_scenario():
    from repro.__main__ import main

    with pytest.raises(SystemExit):
        main(["sim", "--scenario", "{not json"])
    with pytest.raises(SystemExit):
        main(["sim", "--scenario", "/nonexistent/path.json"])
    with pytest.raises(SystemExit):
        main(["sim", "--scenario", json.dumps({"name": "x", "generator": "nope"})])


def test_default_config_unchanged_by_registrations():
    registry.define_scenario(**_scenario_dict())
    # Registering a scenario never silently changes the default suite.
    assert default_config().datasets == DATASET_NAMES
