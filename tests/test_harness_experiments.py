"""Integration tests: experiments run end to end on reduced-size datasets.

The full-size experiment suite is exercised by the benchmark harness; here
each experiment runs on two shrunken datasets so the behaviour (columns,
normalisations, internal consistency) is validated quickly on every test run.
"""

import pytest

from repro.harness.config import smoke_config
from repro.harness.registry import run_experiment
from repro.obs import metrics

# The CI smoke configuration doubles as the reduced-size test configuration.
SMALL = smoke_config()


#: The paper's evaluation figures, as the repository benchmark's ``figures``
#: workload regenerates them.
EVALUATION_FIGURES = (
    "fig17_hdn_hit_rate",
    "fig18_memory_traffic",
    "fig19_traffic_reduction",
    "fig20_speedup",
    "fig21_ablation",
    "fig22_energy",
    "fig24_pe_scaling",
    "fig25a_runahead_sweep",
    "fig25b_bandwidth_sweep",
    "fig26_spsp_comparison",
    "disc_replacement_policy",
    "scaleout_strong_scaling",
)


@pytest.fixture(scope="module")
def small_config():
    return SMALL


def test_the_evaluation_figures_never_replay_feature_values(small_config):
    """The simulators read X's structure only; Figure 3 multiplies X by W."""
    with metrics.scoped() as recorded:
        for name in EVALUATION_FIGURES:
            run_experiment(name, config=small_config)
    assert recorded["counters"].get("gcn.features.replays", 0) == 0
    with metrics.scoped() as recorded:
        run_experiment("fig3_density", config=small_config)
    # One replay of layer 0's X per dataset.
    assert recorded["counters"]["gcn.features.replays"] == len(small_config.datasets)


def test_gcnax_builds_one_tile_profile_per_matrix():
    """Tile occupancy depends on the matrix and the tile shape only: each
    dataset's X0, X1 and shared adjacency are profiled once, however many
    bandwidth points and figures price them.  Fresh seeds, fresh bundles."""
    config = smoke_config(seed=7_901)
    with metrics.scoped() as recorded:
        run_experiment("fig25b_bandwidth_sweep", config=config)
    assert recorded["counters"]["gcnax.tile_profile.builds"] == 3 * len(config.datasets)
    config = smoke_config(seed=7_902)
    with metrics.scoped() as recorded:
        for name in EVALUATION_FIGURES:
            run_experiment(name, config=config)
    assert recorded["counters"]["gcnax.tile_profile.builds"] == 3 * len(config.datasets)


def test_figures_5_and_6_read_the_tile_profiles_gcnax_prices():
    """Figure 5 profiles each dataset's adjacency and X0, Figure 6 reads the
    same two profiles, and Figure 7's GCNAX run adds only X1's.  Fresh
    seed, fresh bundles."""
    config = smoke_config(seed=7_904)
    builds = []
    for names in (["fig5_tile_nnz"], ["fig6_bandwidth_util"], ["fig7_gcnax_breakdown"]):
        with metrics.scoped() as recorded:
            for name in names:
                run_experiment(name, config=config)
        builds.append(recorded["counters"].get("gcnax.tile_profile.builds", 0))
    assert builds == [2 * len(config.datasets), 0, len(config.datasets)]


def test_strong_scaling_builds_one_hdn_profile_per_dataset():
    """A chip is priced from its bundle plan's per-cluster counts: every
    chip of every chip count reads the bundle plan's one rank profile of
    the shared adjacency.  Fresh seed, fresh bundles."""
    config = smoke_config(seed=7_903)
    with metrics.scoped() as recorded:
        run_experiment("scaleout_strong_scaling", config=config)
    assert recorded["counters"]["grow.hdn_profile.builds"] == len(config.datasets)
    assert recorded["counters"]["scaleout.coupling.builds"] == len(config.datasets)


def test_table1_rows_and_columns(small_config):
    result = run_experiment("table1_datasets", config=small_config)
    assert [row["dataset"] for row in result.rows] == ["cora", "amazon"]
    assert {"nodes", "edges", "density_A"} <= set(result.columns)


def test_fig2_normalisation(small_config):
    result = run_experiment("fig2_mac_ops", config=small_config)
    for row in result.rows:
        assert 0 < row["a_xw_normalized"] <= 1.0


def test_fig3_density_ordering(small_config):
    result = run_experiment("fig3_density", config=small_config)
    for row in result.rows:
        assert row["density_A"] <= row["density_XW"]


def test_fig5_bins_normalised(small_config):
    result = run_experiment("fig5_tile_nnz", config=small_config)
    for row in result.rows:
        fractions = [v for k, v in row.items() if k.startswith("frac_")]
        assert sum(fractions) == pytest.approx(1.0, abs=1e-6)


def test_fig6_utilisation_bounds(small_config):
    result = run_experiment("fig6_bandwidth_util", config=small_config)
    for row in result.rows:
        assert 0.0 < row["utilization_A"] <= 1.0
        assert 0.0 < row["utilization_X"] <= 1.0


def test_fig7_fractions_sum_to_one(small_config):
    result = run_experiment("fig7_gcnax_breakdown", config=small_config)
    for row in result.rows:
        assert row["aggregation_fraction"] + row["combination_fraction"] == pytest.approx(1.0)


def test_table4_independent_of_datasets(small_config):
    result = run_experiment("table4_area", config=small_config)
    totals = {row["component"]: row["area_mm2_65nm"] for row in result.rows}
    assert totals["total"] == pytest.approx(
        sum(v for k, v in totals.items() if k != "total"), rel=1e-6
    )


def test_fig17_hit_rates_bounded(small_config):
    result = run_experiment("fig17_hdn_hit_rate", config=small_config)
    for row in result.rows:
        assert 0.0 <= row["hit_rate_without_gp"] <= 1.0
        assert 0.0 <= row["hit_rate_with_gp"] <= 1.0


def test_fig18_normalised_to_gcnax(small_config):
    result = run_experiment("fig18_memory_traffic", config=small_config)
    for row in result.rows:
        assert row["gcnax"] == 1.0
        assert row["grow_with_gp"] > 0.0


def test_fig19_reductions_at_least_one(small_config):
    result = run_experiment("fig19_traffic_reduction", config=small_config)
    for row in result.rows:
        assert row["with_hdn_caching"] >= 1.0


def test_fig20_speedup_consistency(small_config):
    result = run_experiment("fig20_speedup", config=small_config)
    for row in result.rows:
        grow_total = row["grow_aggregation"] + row["grow_combination"]
        assert row["speedup_with_gp"] == pytest.approx(1.0 / grow_total, rel=1e-6)
    assert result.metadata["geomean_speedup_with_gp"] > 0


def test_fig21_ablation_rows(small_config):
    result = run_experiment("fig21_ablation", config=small_config)
    assert [row["configuration"] for row in result.rows] == [
        "gcnax_baseline",
        "hdn_cache_only",
        "plus_runahead",
        "plus_graph_partitioning",
    ]


def test_fig22_energy_breakdown_sums(small_config):
    result = run_experiment("fig22_energy", config=small_config)
    for row in result.rows:
        components = row["mac"] + row["register_file"] + row["sram"] + row["dram"] + row["leakage"]
        assert components == pytest.approx(row["total"], rel=1e-6)


def test_fig24_normalised_to_single_pe(small_config):
    result = run_experiment("fig24_pe_scaling", config=small_config)
    for row in result.rows:
        assert row["pe_1"] == pytest.approx(1.0)


def test_fig25a_normalised_to_one_way(small_config):
    result = run_experiment("fig25a_runahead_sweep", config=small_config)
    for row in result.rows:
        assert row["way_1"] == pytest.approx(1.0)
        assert row["way_32"] >= 1.0 - 1e-9


def test_fig25b_normalised_to_nominal(small_config):
    result = run_experiment("fig25b_bandwidth_sweep", config=small_config)
    for row in result.rows:
        assert row["bw_1.0x"] == pytest.approx(1.0)
        assert row["bw_0.25x"] <= 1.0 + 1e-9


def test_fig26_comparison_columns(small_config):
    result = run_experiment("fig26_spsp_comparison", config=small_config)
    for row in result.rows:
        assert row["grow"] > 0 and row["matraptor"] > 0 and row["gamma"] > 0
