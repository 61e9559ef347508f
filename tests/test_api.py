"""Tests for the unified simulation-service API (``repro.api``)."""

from __future__ import annotations

import json

import pytest

from repro.api import (
    RequestError,
    RunResult,
    ScaleOutSpec,
    Session,
    SimRequest,
    UnknownBackendError,
    clear_memo,
    get_backend,
    known_backend,
    list_backends,
    register_backend,
    suggest_backends,
)
from repro.api.backends import _BACKENDS
from repro.core.accelerator import GrowSimulator
from repro.core.multi_pe import MultiPEGrowSimulator
from repro.harness import smoke_config
from repro.harness.workloads import get_bundle
from repro.obs import metrics


@pytest.fixture(scope="module")
def config():
    return smoke_config()


@pytest.fixture(scope="module")
def bundle(config):
    return get_bundle("cora", config)


@pytest.fixture()
def session():
    # Memo-only sessions leak state across tests otherwise.
    clear_memo()
    return Session(use_cache=False)


def request_for(config, dataset="cora", **kwargs):
    return SimRequest.from_experiment(config, dataset, **kwargs)


# ---------------------------------------------------------------------------
# request canonicalization and round-tripping
# ---------------------------------------------------------------------------


def test_request_json_round_trip_preserves_cache_key(config):
    request = request_for(
        config,
        backend="scaleout",
        overrides={"runahead_degree": 32, "enable_hdn_cache": True},
        fabric=ScaleOutSpec(num_chips=4, topology="mesh"),
    )
    rebuilt = SimRequest.from_dict(json.loads(request.canonical_json()))
    assert rebuilt == request
    assert rebuilt.cache_key() == request.cache_key()
    assert rebuilt.canonical_json() == request.canonical_json()


def test_override_order_does_not_change_the_key():
    a = SimRequest(dataset="cora", overrides={"runahead_degree": 8, "num_pes": 2})
    b = SimRequest(dataset="cora", overrides=(("num_pes", 2), ("runahead_degree", 8)))
    assert a == b
    assert a.cache_key() == b.cache_key()


def test_numeric_coercion_canonicalises_the_key():
    # 16 vs 16.0 for a float field (and a numeric string for an int field)
    # describe the same simulation and must hash identically.
    a = SimRequest(dataset="cora", bandwidth_gbps=16, num_macs="16")
    b = SimRequest(dataset="cora", bandwidth_gbps=16.0, num_macs=16)
    assert a.cache_key() == b.cache_key()


def test_distinct_requests_have_distinct_keys():
    base = SimRequest(dataset="cora")
    assert base.cache_key() != SimRequest(dataset="amazon").cache_key()
    assert base.cache_key() != SimRequest(dataset="cora", backend="gcnax").cache_key()
    assert base.cache_key() != SimRequest(dataset="cora", partitioned=False).cache_key()
    assert (
        base.cache_key()
        != SimRequest(dataset="cora", overrides={"runahead_degree": 32}).cache_key()
    )


def test_experiment_config_round_trip(config):
    request = request_for(config, "amazon")
    bound = request.experiment_config()
    assert bound.datasets == ("amazon",)
    assert bound.bandwidth_gbps == config.bandwidth_gbps
    assert bound.num_nodes_override == {"amazon": config.num_nodes_override["amazon"]}
    # from_experiment(experiment_config()) is a fixed point.
    assert SimRequest.from_experiment(bound, "amazon") == request


def test_from_dict_rejects_unknown_fields():
    with pytest.raises(RequestError, match="unknown request field"):
        SimRequest.from_dict({"dataset": "cora", "bandwith_gbps": 16.0})


# ---------------------------------------------------------------------------
# request validation
# ---------------------------------------------------------------------------


def test_unknown_dataset_gets_a_suggestion():
    with pytest.raises(RequestError, match="did you mean amazon"):
        SimRequest(dataset="amazn")


def test_unknown_backend_gets_a_suggestion():
    with pytest.raises(RequestError, match="did you mean grow"):
        SimRequest(dataset="cora", backend="gorw")


def test_field_range_validation():
    with pytest.raises(RequestError, match="bandwidth_gbps must be positive"):
        SimRequest(dataset="cora", bandwidth_gbps=0)
    with pytest.raises(RequestError, match="num_macs must be at least 1"):
        SimRequest(dataset="cora", num_macs=0)
    with pytest.raises(RequestError, match="did you mean ring"):
        ScaleOutSpec(topology="rng")
    with pytest.raises(RequestError, match="shard method"):
        ScaleOutSpec(shard_method="metsi")


def test_field_combination_validation():
    with pytest.raises(RequestError, match="fabric spec only applies"):
        SimRequest(dataset="cora", backend="grow", fabric=ScaleOutSpec())
    with pytest.raises(RequestError, match="JSON-safe scalar"):
        SimRequest(dataset="cora", overrides={"runahead_degree": [1, 2]})


# ---------------------------------------------------------------------------
# backend registry error paths
# ---------------------------------------------------------------------------


def test_backend_registry_contents():
    assert {"grow", "multipe", "gcnax", "hygcn", "matraptor", "gamma", "scaleout"} <= set(
        list_backends()
    )
    assert known_backend("grow") and not known_backend("nope")
    assert get_backend("grow").name == "grow"


def test_unknown_backend_lookup_suggests_close_matches():
    with pytest.raises(UnknownBackendError, match="did you mean scaleout"):
        get_backend("scaelout")
    # UnknownBackendError doubles as KeyError (mapping semantics) and
    # RequestError (validation semantics) without repr-mangling the message.
    assert issubclass(UnknownBackendError, KeyError)
    assert issubclass(UnknownBackendError, RequestError)
    assert suggest_backends("gcnx")[0] == "gcnax"


def test_register_backend_rejects_duplicates_and_anonymous_backends():
    class Anonymous:
        name = ""

        def run(self, request, session=None):  # pragma: no cover - never runs
            raise AssertionError

    with pytest.raises(ValueError, match="non-empty 'name'"):
        register_backend(Anonymous())
    with pytest.raises(ValueError, match="already registered"):
        register_backend(get_backend("grow"))


def test_registered_custom_backend_is_routable(config, session):
    class Constant:
        name = "constant-test"

        def run(self, request, session=None):
            return RunResult(request=request, metrics={"cycles": 42.0})

    register_backend(Constant())
    try:
        result = session.run(request_for(config, backend="constant-test"))
        assert result.total_cycles == 42.0 and result.status == "ran"
    finally:
        _BACKENDS.pop("constant-test", None)


# ---------------------------------------------------------------------------
# session: exactness, memo, disk cache, batches
# ---------------------------------------------------------------------------


def test_grow_request_reproduces_direct_simulator_exactly(config, bundle, session):
    result = session.run(request_for(config))
    reference = GrowSimulator(config.grow_config()).run_model(bundle.workloads, bundle.plan)
    assert result.total_cycles == reference.total_cycles
    assert result.dram_bytes == reference.total_dram_bytes
    rebuilt = result.accelerator_result()
    assert rebuilt.total_cycles == reference.total_cycles
    assert rebuilt.extra["hdn_hit_rate"] == reference.extra["hdn_hit_rate"]


def test_one_chip_scaleout_request_reproduces_direct_simulator(config, bundle, session):
    result = session.run(
        request_for(config, backend="scaleout", fabric=ScaleOutSpec(num_chips=1))
    )
    reference = GrowSimulator(config.grow_config()).run_model(bundle.workloads, bundle.plan)
    assert result.total_cycles == reference.total_cycles
    assert result.dram_bytes == reference.total_dram_bytes
    system = result.system_dict()
    assert system["speedup_vs_single_chip"] == 1.0


def test_multipe_request_matches_direct_model(config, bundle, session):
    result = session.run(
        request_for(config, backend="multipe", overrides={"num_pes": 4})
    )
    reference = MultiPEGrowSimulator(config.grow_config(num_pes=4)).run_aggregation(
        bundle.workloads[0], 4, bundle.plan
    )
    layer0 = result.detail["layers"][0]
    assert layer0["throughput_vs_single"] == reference.throughput_vs_single
    assert layer0["aggregation_cycles"] == reference.total_cycles


@pytest.mark.parametrize("backend", ["gcnax", "hygcn", "matraptor", "gamma"])
def test_baseline_backends_produce_positive_metrics(config, session, backend):
    result = session.run(request_for(config, backend=backend))
    assert result.total_cycles > 0
    assert result.dram_bytes > 0
    assert result.energy_nj > 0
    assert result.accelerator_result().accelerator == backend


def test_memo_serves_repeated_requests(config, session):
    first = session.run(request_for(config))
    second = session.run(request_for(config))
    assert first.status == "ran" and second.status == "cached"
    assert second.seconds == 0.0
    assert second.metrics == first.metrics
    assert second.detail == first.detail


def test_disk_cache_survives_sessions_and_force_recomputes(config, tmp_path):
    clear_memo()
    request = request_for(config)
    first = Session(results_dir=tmp_path).run(request)
    assert first.status == "ran"
    clear_memo()  # drop the memo so only the on-disk entry can serve it
    second = Session(results_dir=tmp_path).run(request)
    assert second.status == "cached"
    assert second.metrics == first.metrics
    forced = Session(results_dir=tmp_path, force=True).run(request)
    assert forced.status == "ran"
    assert forced.metrics == first.metrics


def test_run_batch_parallel_equals_serial(config):
    requests = [
        request_for(config, dataset, backend=backend)
        for dataset in config.datasets
        for backend in ("grow", "gcnax")
    ]
    clear_memo()
    serial = Session(use_cache=False, jobs=1).run_batch(requests)
    clear_memo()
    parallel = Session(use_cache=False, jobs=4).run_batch(requests)
    assert [r.status for r in serial] == ["ran"] * len(requests)
    assert [r.metrics for r in serial] == [r.metrics for r in parallel]
    assert [r.detail for r in serial] == [r.detail for r in parallel]
    assert [r.request for r in serial] == requests


def test_run_batch_mixes_cached_and_fresh_results(config, session):
    warm = request_for(config, "cora")
    session.run(warm)
    results = session.run_batch([warm, request_for(config, "amazon")])
    assert [r.status for r in results] == ["cached", "ran"]
    assert [r.request.dataset for r in results] == ["cora", "amazon"]


def test_run_result_round_trips_through_json(config, session):
    result = session.run(request_for(config))
    rebuilt = RunResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert rebuilt.metrics == result.metrics
    assert rebuilt.detail == result.detail
    assert rebuilt.request == result.request


# ---------------------------------------------------------------------------
# canonicalization of backend-irrelevant fields; batch dedup; session wiring
# ---------------------------------------------------------------------------


def test_backend_irrelevant_fields_do_not_change_the_key():
    # An omitted fabric means the default fabric.
    implicit = SimRequest(dataset="cora", backend="scaleout")
    explicit = SimRequest(dataset="cora", backend="scaleout", fabric=ScaleOutSpec())
    assert implicit.cache_key() == explicit.cache_key()
    # gcnax_tile only reaches the gcnax backend.
    assert (
        SimRequest(dataset="cora", backend="grow", gcnax_tile=64).cache_key()
        == SimRequest(dataset="cora", backend="grow").cache_key()
    )
    assert (
        SimRequest(dataset="cora", backend="gcnax", gcnax_tile=64).cache_key()
        != SimRequest(dataset="cora", backend="gcnax").cache_key()
    )
    # partitioned only reaches whole-dataset GROW-family runs.
    assert (
        SimRequest(dataset="cora", backend="gcnax", partitioned=False).cache_key()
        == SimRequest(dataset="cora", backend="gcnax").cache_key()
    )
    assert (
        SimRequest(dataset="cora", backend="grow", partitioned=False).cache_key()
        != SimRequest(dataset="cora", backend="grow").cache_key()
    )


def test_run_batch_dedups_identical_requests(config, session):
    twice = [request_for(config), request_for(config)]
    results = session.run_batch(twice)
    assert [r.status for r in results] == ["ran", "cached"]
    assert results[0].metrics == results[1].metrics


def test_scaleout_requests_share_the_session_cache_with_chip_runs(config, tmp_path):
    clear_memo()
    request = request_for(
        config, "amazon", backend="scaleout", fabric=ScaleOutSpec(num_chips=2)
    )
    Session(results_dir=tmp_path, jobs=1).run(request)
    # The session caches whole systems: the engine prices its chips in
    # process, so no chip entry reaches the disk.
    entries = [p.name for p in (tmp_path / "cache").glob("api-*.json")]
    assert [name.split("-")[1] for name in entries] == ["scaleout"]
    assert entries[0].startswith("api-scaleout-amazon-")
    # A session with a cleared memo serves the system from its disk entry.
    clear_memo()
    assert Session(results_dir=tmp_path, jobs=1).run(request).status == "cached"


@pytest.mark.parametrize("num_chips", [1, 2, 4, 16])
def test_a_scaleout_request_is_one_session_request(config, num_chips):
    """A system is one request and one fresh run, whatever its chip count."""
    clear_memo()
    request = request_for(
        config, "amazon", backend="scaleout", fabric=ScaleOutSpec(num_chips=num_chips)
    )
    with metrics.scoped() as recorded:
        result = Session(use_cache=False).run(request)
    assert result.status == "ran"
    assert recorded["counters"]["session.requests"] == 1
    assert recorded["counters"]["session.fresh_runs"] == 1


def test_memo_eviction_keeps_the_memo_bounded(config):
    from repro.api import session as session_module

    clear_memo()
    limit = session_module._MEMO_LIMIT
    try:
        session_module._MEMO_LIMIT = 2
        keys = [f"key-{i}" for i in range(4)]
        for key in keys:
            session_module._memoise(key, {"payload": key})
        assert len(session_module._RUN_MEMO) == 2
        assert list(session_module._RUN_MEMO) == keys[-2:]
    finally:
        session_module._MEMO_LIMIT = limit
        clear_memo()


def test_cached_results_are_isolated_from_caller_mutation(config, session):
    request = request_for(
        config, "amazon", backend="scaleout", fabric=ScaleOutSpec(num_chips=2)
    )
    first = session.run(request)
    first.system_dict()["layers"].clear()
    first.detail["system"]["system_cycles"] = -1.0
    second = session.run(request)
    assert second.status == "cached"
    assert second.system_dict()["layers"]  # still intact
    assert second.total_cycles > 0


def test_disk_hits_are_isolated_from_caller_mutation(config, tmp_path):
    clear_memo()
    request = request_for(config, "amazon")
    Session(results_dir=tmp_path).run(request)
    clear_memo()  # the next run must come from the disk entry
    session = Session(results_dir=tmp_path)
    from_disk = session.run(request)
    assert from_disk.status == "cached"
    reference = json.loads(json.dumps(from_disk.to_dict()))
    from_disk.detail["result"]["phases"].clear()
    from_disk.metrics["cycles"] = -1.0
    # The disk hit was memoised: the next hit comes from the memo, intact.
    from_memo = session.run(request)
    assert from_memo.status == "cached"
    assert from_memo.to_dict() == reference
    clear_memo()


def test_duplicate_override_keys_collapse_to_the_last_value():
    duplicated = SimRequest(dataset="cora", overrides=(("a", 1), ("a", 2)))
    collapsed = SimRequest(dataset="cora", overrides={"a": 2})
    assert duplicated == collapsed
    assert duplicated.cache_key() == collapsed.cache_key()
    assert SimRequest.from_dict(duplicated.to_dict()) == duplicated


def test_memoize_false_reaches_scaleout_chip_runs(config):
    clear_memo()
    request = request_for(
        config, "amazon", backend="scaleout", fabric=ScaleOutSpec(num_chips=2)
    )
    session = Session(use_cache=False, memoize=False)
    first = session.run(request)
    second = session.run(request)
    # Nothing is served from the global memo.
    assert first.status == second.status == "ran"


def test_a_cache_and_runahead_sweep_builds_one_hdn_profile_per_plan():
    """Cache size and runahead degree only read a profile's totals: a 4x4
    sweep over a fresh bundle streams each (adjacency, plan) pair once."""
    clear_memo()
    config = smoke_config(datasets=("amazon",), seed=4_417)
    requests = [
        request_for(
            config,
            "amazon",
            partitioned=partitioned,
            overrides={"hdn_cache_bytes": kib * 1024, "runahead_degree": degree},
        )
        for partitioned in (True, False)
        for kib in (4, 32, 256, 2048)
        for degree in (1, 4, 16, 64)
    ]
    with metrics.scoped() as recorded:
        results = Session(use_cache=False).run_batch(requests)
    assert [result.status for result in results] == ["ran"] * len(requests)
    # Both layers aggregate over one adjacency; the bundle has two plans.
    assert recorded["counters"]["grow.hdn_profile.builds"] == 2
    assert len({result.metrics["cycles"] for result in results}) > 16


# A seed per backend, so each request also builds its own bundle.
@pytest.mark.parametrize(
    "backend, fabric, seed",
    [
        ("grow", None, 6_271),
        ("gcnax", None, 6_272),
        ("hygcn", None, 6_273),
        ("gamma", None, 6_274),
        ("matraptor", None, 6_275),
        ("scaleout", ScaleOutSpec(num_chips=2), 6_276),
    ],
)
def test_a_cold_request_never_replays_feature_values(backend, fabric, seed):
    """Every backend prices X by its structure: a cold request, bundle build
    included, never draws X's values again."""
    clear_memo()
    config = smoke_config(datasets=("amazon",), seed=seed)
    with metrics.scoped() as recorded:
        result = Session(use_cache=False).run(
            request_for(config, "amazon", backend=backend, fabric=fabric)
        )
    assert result.status == "ran"
    assert recorded["counters"].get("gcn.features.replays", 0) == 0
