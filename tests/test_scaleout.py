"""Tests for the multi-chip scale-out subsystem (``repro.scaleout``)."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest

from repro.accelerators.gamma import simulate_lru_hits
from repro.api import ScaleOutSpec, Session, SimRequest, clear_memo
from repro.core.accelerator import GrowSimulator
from repro.harness import smoke_config
from repro.harness.workloads import clear_caches, get_bundle
from repro.obs import metrics
from repro.scaleout import (
    SHARD_METHODS,
    ChipTopology,
    InterconnectModel,
    ScaleOutResult,
    ScaleOutSimulator,
    build_shard_plan,
    get_shard_plan,
    make_topology,
)

from oracles import chip_workloads, local_plan


@pytest.fixture(scope="module")
def config():
    return smoke_config()


@pytest.fixture(scope="module")
def bundle(config):
    # The smoke amazon graph partitions into several clusters, so sharding
    # across chips produces real halo traffic.
    return get_bundle("amazon", config)


# ---------------------------------------------------------------------------
# topology
# ---------------------------------------------------------------------------


def test_ring_hops_take_the_shorter_arc():
    ring = ChipTopology(8, kind="ring")
    assert ring.hops(0, 1) == 1
    assert ring.hops(0, 7) == 1
    assert ring.hops(0, 4) == 4
    assert ring.max_hops == 4
    assert ring.num_links == 16  # 8 chips x 2 directed links


def test_mesh_uses_manhattan_distance_on_a_square_grid():
    mesh = ChipTopology(16, kind="mesh")
    assert mesh.mesh_dims == (4, 4)
    assert mesh.hops(0, 15) == 6  # (0,0) -> (3,3)
    assert mesh.degree(0) == 2  # corner
    assert mesh.degree(5) == 4  # interior


def test_fully_connected_is_always_one_hop():
    fc = ChipTopology(6, kind="fully-connected")
    assert all(fc.hops(0, d) == 1 for d in range(1, 6))
    assert fc.num_links == 30
    assert fc.max_hops == 1


def test_single_chip_topology_degenerates():
    solo = ChipTopology(1)
    assert solo.num_links == 0
    assert solo.max_hops == 0
    assert solo.average_hops == 0.0


def test_topology_validation():
    with pytest.raises(ValueError):
        ChipTopology(0)
    with pytest.raises(ValueError):
        ChipTopology(4, kind="hypercube")
    with pytest.raises(ValueError):
        ChipTopology(4, link_bandwidth_gbps=0.0)
    with pytest.raises(ValueError):
        ChipTopology(4).hops(0, 4)
    assert make_topology(4, "mesh").kind == "mesh"


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------


def test_shard_plan_covers_every_node_once(bundle):
    plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 4)
    plan.validate()
    assert sum(shard.num_nodes for shard in plan.shards) == bundle.plan.num_nodes
    assert plan.num_chips == 4


def test_shard_halos_are_remote_and_counted(bundle):
    plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 4)
    for shard in plan.shards:
        owned = set(shard.nodes.tolist())
        assert owned.isdisjoint(set(shard.halo_nodes.tolist()))
    # halo_counts[src, dst] sums to the total halo rows per requester.
    for shard in plan.shards:
        assert plan.halo_counts[:, shard.chip_id].sum() == shard.halo_nodes.size


def test_single_chip_shard_has_no_halo(bundle):
    plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 1)
    assert plan.shards[0].num_nodes == bundle.plan.num_nodes
    assert plan.shards[0].halo_nodes.size == 0
    assert plan.halo_rows_total == 0
    assert plan.partial_rows_total == 0


def test_more_chips_than_clusters_leaves_surplus_chips_empty(bundle):
    num_clusters = bundle.plan.num_clusters
    plan = build_shard_plan(bundle.dataset.graph, bundle.plan, num_clusters + 3)
    assert sum(1 for shard in plan.shards if not shard.empty) == num_clusters
    assert sum(shard.num_nodes for shard in plan.shards) == bundle.plan.num_nodes


def test_greedy_shard_method_balances_by_nnz(bundle):
    plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 2, method="greedy")
    plan.validate()
    assert all(not shard.empty for shard in plan.shards)


def test_unknown_shard_method_rejected(bundle):
    with pytest.raises(ValueError, match="unknown shard method"):
        build_shard_plan(bundle.dataset.graph, bundle.plan, 8, method="random")


def test_every_chip_count_and_method_shares_one_coupling_pass():
    """The cluster coupling is chip-count independent: one adjacency pass
    per bundle plan serves every chip count under both methods."""
    config = smoke_config(seed=7_904)
    with metrics.scoped() as recorded:
        for dataset in config.datasets:
            for method in SHARD_METHODS:
                for num_chips in (1, 2, 3, 4, 8, 16):
                    get_shard_plan(dataset, config, num_chips, method)
    assert recorded["counters"]["scaleout.coupling.builds"] == len(config.datasets)


def test_shard_plans_live_as_long_as_their_bundle():
    """A shard plan is memoised on its bundle plan: the same object until
    the bundle memo is cleared, then one built for the new bundle."""
    config = smoke_config(datasets=("amazon",), seed=7_906)
    first = get_shard_plan("amazon", config, 4, "metis")
    assert get_shard_plan("amazon", config, 4, "metis") is first
    assert get_shard_plan("amazon", config, 4, "greedy") is not first
    clear_caches()
    with mock.patch(
        "repro.scaleout.engine.build_shard_plan", side_effect=build_shard_plan
    ) as build:
        second = get_shard_plan("amazon", config, 4, "metis")
        assert get_shard_plan("amazon", config, 4, "metis") is second
    assert second is not first
    assert build.call_count == 1
    assert build.call_args.args[1] is get_bundle("amazon", config).plan


def test_chip_workloads_slice_rows(bundle):
    plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 4)
    shard = next(s for s in plan.shards if not s.empty)
    sliced = chip_workloads(bundle.workloads, shard)
    assert len(sliced) == len(bundle.workloads)
    layer = sliced[0]
    assert layer.aggregation.sparse.n_rows == shard.num_nodes
    assert layer.aggregation.sparse.n_cols == bundle.plan.num_nodes
    # Slicing all rows reproduces the original matrices.
    full = build_shard_plan(bundle.dataset.graph, bundle.plan, 1).shards[0]
    whole = chip_workloads(bundle.workloads, full)[0]
    np.testing.assert_array_equal(
        whole.aggregation.sparse.indices, bundle.workloads[0].aggregation.sparse.indices
    )


def test_local_plan_is_consistent(bundle):
    plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 4)
    for shard in plan.shards:
        if shard.empty:
            continue
        local = local_plan(bundle.plan, shard)
        local.validate()
        assert local.num_nodes == shard.num_nodes
        assert local.num_clusters == len(shard.clusters)


# ---------------------------------------------------------------------------
# interconnect
# ---------------------------------------------------------------------------


def test_zero_traffic_costs_nothing(bundle):
    model = InterconnectModel(ChipTopology(4))
    report = model.cost(np.zeros((4, 4), dtype=np.int64), "halo")
    assert report.transfer_cycles == 0.0
    assert report.exposed_latency_cycles == 0.0
    assert report.total_bytes == 0


def test_fully_connected_never_costs_more_hops_than_ring(bundle):
    shard_plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 4)
    row_bytes = bundle.workloads[0].aggregation.rhs_row_bytes
    ring = InterconnectModel(ChipTopology(4, kind="ring")).layer_exchange(shard_plan, row_bytes)
    fc = InterconnectModel(
        ChipTopology(4, kind="fully-connected")
    ).layer_exchange(shard_plan, row_bytes)
    assert ring.total_bytes == fc.total_bytes  # injected bytes are topology-free
    assert fc.hop_bytes <= ring.hop_bytes


def test_auto_exchange_picks_the_cheaper_pattern(bundle):
    shard_plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 4)
    row_bytes = bundle.workloads[0].aggregation.rhs_row_bytes
    topology = ChipTopology(4)
    halo = InterconnectModel(topology, exchange="halo").layer_exchange(shard_plan, row_bytes)
    reduce_ = InterconnectModel(topology, exchange="reduce").layer_exchange(
        shard_plan, row_bytes
    )
    auto = InterconnectModel(topology, exchange="auto").layer_exchange(shard_plan, row_bytes)
    assert auto.total_cost_cycles == min(halo.total_cost_cycles, reduce_.total_cost_cycles)


def test_unknown_exchange_pattern_rejected():
    with pytest.raises(ValueError, match="unknown exchange pattern"):
        InterconnectModel(ChipTopology(4), exchange="gossip")


def test_faster_links_lower_transfer_cycles(bundle):
    shard_plan = build_shard_plan(bundle.dataset.graph, bundle.plan, 4)
    row_bytes = bundle.workloads[0].aggregation.rhs_row_bytes
    slow = InterconnectModel(
        ChipTopology(4, link_bandwidth_gbps=8.0)
    ).layer_exchange(shard_plan, row_bytes)
    fast = InterconnectModel(
        ChipTopology(4, link_bandwidth_gbps=64.0)
    ).layer_exchange(shard_plan, row_bytes)
    assert fast.transfer_cycles < slow.transfer_cycles


# ---------------------------------------------------------------------------
# engine
# ---------------------------------------------------------------------------


def test_one_chip_system_reproduces_single_chip_grow_exactly(config, bundle):
    simulator = ScaleOutSimulator(config=config, topology=ChipTopology(1))
    system = simulator.run("amazon")
    reference = GrowSimulator(config.grow_config()).run_model(
        bundle.workloads, bundle.plan
    )
    assert system.system_cycles == reference.total_cycles
    assert system.dram_bytes == reference.total_dram_bytes
    assert system.interchip_bytes == 0
    assert system.speedup_vs_single_chip == 1.0
    assert system.scaling_efficiency == 1.0


def test_multi_chip_system_reports_traffic_and_efficiency(config):
    system = ScaleOutSimulator(config=config, topology=ChipTopology(4, kind="mesh")).run(
        "amazon"
    )
    assert system.interchip_bytes > 0
    assert system.comm_transfer_cycles > 0
    assert 0.0 < system.scaling_efficiency <= 4.0
    assert system.system_cycles < system.single_chip_cycles
    assert len(system.chip_cycles) == 4
    assert system.area_mm2 > 0
    assert system.energy_nj > system.interconnect_energy_nj > 0


def test_an_lru_sweep_replays_each_cluster_once_per_capacity():
    """Chips share the bundle plan's per-cluster LRU replays: a strong-scaling
    sweep replays each cluster's stream once per distinct cache capacity,
    not once per chip or chip count.  Fresh seed, fresh bundle."""
    config = smoke_config(datasets=("amazon",), seed=7_905)
    bundle = get_bundle("amazon", config)
    grow_config = config.grow_config(hdn_replacement="lru")
    capacities = {
        grow_config.hdn_cache_rows(layer.aggregation.rhs_row_bytes) for layer in bundle.workloads
    }
    row_nnz = bundle.workloads[0].aggregation.sparse.row_nnz()
    streamed = sum(1 for members in bundle.plan.clusters if row_nnz[members].sum())
    with mock.patch(
        "repro.core.accelerator.simulate_lru_hits", side_effect=simulate_lru_hits
    ) as replay:
        for num_chips in (1, 2, 4, 8, 16):
            ScaleOutSimulator(
                config=config,
                topology=ChipTopology(num_chips),
                grow_overrides={"hdn_replacement": "lru"},
            ).run("amazon")
    assert replay.call_count == streamed * len(capacities)


def test_serial_parallel_and_cached_runs_are_identical(config, tmp_path):
    clear_memo()  # the serial run must really execute, not hit the memo
    requests = [
        SimRequest.from_experiment(
            config, dataset, backend="scaleout", fabric=ScaleOutSpec(num_chips=4)
        )
        for dataset in config.datasets
    ]
    serial = Session(results_dir=tmp_path, jobs=1).run_batch(requests)
    parallel = Session(results_dir=tmp_path, jobs=2, force=True).run_batch(requests)
    # Clearing the in-memory memo forces the third batch through the
    # on-disk entries the first two wrote.
    clear_memo()
    cached = Session(results_dir=tmp_path, jobs=1).run_batch(requests)
    assert [run.status for run in serial + parallel] == ["ran"] * 4
    assert [run.status for run in cached] == ["cached"] * 2

    def systems(runs):
        return [ScaleOutResult.from_dict(run.system_dict()).to_dict() for run in runs]

    assert systems(serial) == systems(parallel) == systems(cached)


def _sweep_prices_the_same_chips(config, first, topologies):
    """Run ``topologies`` over amazon; every system must price ``first``'s
    chips from the bundle plan's memos, building no shard plan, coupling
    pass or HDN profile again."""
    with metrics.scoped() as recorded, mock.patch(
        "repro.scaleout.engine.build_shard_plan", side_effect=build_shard_plan
    ) as build:
        for topology in topologies:
            swept = ScaleOutSimulator(config=config, topology=topology).run("amazon")
            assert swept.chip_cycles == first.chip_cycles
            assert swept.dram_bytes == first.dram_bytes
    assert build.call_count == 0
    counters = recorded["counters"]
    assert counters.get("scaleout.coupling.builds", 0) == 0
    assert counters.get("grow.hdn_profile.builds", 0) == 0
    assert counters["scaleout.chips_ran"] + counters.get("scaleout.chips_empty", 0) == (
        len(topologies) * (first.num_chips + 1)
    )


def test_chip_cache_is_shared_across_link_parameter_sweeps(config):
    """Chips depend on the shard and the GROW configuration only: a link
    bandwidth or latency sweep shares the bundle plan's shard plans and
    per-cluster counts, and prices the same chips."""
    first = ScaleOutSimulator(
        config=config, topology=ChipTopology(4, link_bandwidth_gbps=16.0)
    ).run("amazon")
    _sweep_prices_the_same_chips(
        config,
        first,
        (ChipTopology(4, link_bandwidth_gbps=64.0), ChipTopology(4, link_latency_cycles=500)),
    )


def test_chip_memo_avoids_resimulation_without_a_disk_cache(config):
    """With no session and no disk cache, a topology sweep in the same
    process re-prices its chips from the bundle plan's memos: nothing of
    GROW's offline pass runs again, and the chip cycles are identical."""
    first = ScaleOutSimulator(config=config, topology=ChipTopology(4)).run("amazon")
    _sweep_prices_the_same_chips(
        config, first, (ChipTopology(4, kind="mesh"), ChipTopology(4, kind="fully-connected"))
    )


def test_unknown_dataset_rejected(config):
    simulator = ScaleOutSimulator(config=config, topology=ChipTopology(2))
    with pytest.raises(KeyError, match="not part of this configuration"):
        simulator.run("reddit")


def test_report_has_one_row_per_dataset(config):
    simulator = ScaleOutSimulator(config=config, topology=ChipTopology(2))
    results = [simulator.run(dataset) for dataset in config.datasets]
    report = simulator.report(results)
    assert report.name == "scaleout_ring2"
    assert [row["dataset"] for row in report.rows] == list(config.datasets)
    assert "efficiency" in report.columns and "interchip_mb" in report.columns
