"""Unit tests for the multi-PE GROW scaling model."""

from unittest import mock

import pytest

from repro.core.accelerator import GrowSimulator
from repro.core.config import GrowConfig
from repro.core.multi_pe import MultiPEGrowSimulator


@pytest.fixture
def multi_pe(scaled_arch):
    return MultiPEGrowSimulator(GrowConfig(arch=scaled_arch))


def test_single_pe_matches_baseline_definition(multi_pe, large_workloads, large_plan):
    result = multi_pe.run_aggregation(large_workloads[0], 1, large_plan)
    assert result.num_pes == 1
    assert result.throughput_vs_single == pytest.approx(1.0)
    # One PE runs the clusters back to back, each bound by compute or memory.
    config = multi_pe.config
    clusters = GrowSimulator(config).cluster_breakdown(large_workloads[0].aggregation, large_plan)
    runahead = config.runahead_model()
    expected = sum(
        max(c.compute_cycles, c.memory_bytes / config.arch.bytes_per_cycle)
        + runahead.exposed_stall_cycles(c.rows_with_miss)
        for c in clusters
    )
    assert result.total_cycles == pytest.approx(expected)


def test_invalid_pe_count(multi_pe, large_workloads, large_plan):
    with pytest.raises(ValueError):
        multi_pe.run_aggregation(large_workloads[0], 0, large_plan)


def test_throughput_never_decreases_with_pes(multi_pe, large_workloads, large_plan):
    values = [
        multi_pe.run_aggregation(large_workloads[0], p, large_plan).throughput_vs_single
        for p in (1, 2, 4, 8)
    ]
    assert values[0] == pytest.approx(1.0)
    assert all(b >= a - 1e-9 for a, b in zip(values, values[1:]))


def test_throughput_bounded_by_reasonable_superlinearity(multi_pe, large_workloads, large_plan):
    result = multi_pe.run_aggregation(large_workloads[0], 16, large_plan)
    # Super-linear speedups are possible (bandwidth pooling) but bounded.
    assert result.throughput_vs_single <= 16 * 3


def test_work_is_distributed_across_pes(multi_pe, large_workloads, large_plan):
    result = multi_pe.run_aggregation(large_workloads[0], 4, large_plan)
    busy = [c for c in result.per_pe_compute_cycles if c > 0]
    assert len(busy) >= min(4, large_plan.num_clusters)


def test_unpartitioned_plan_limits_scaling(multi_pe, large_workloads, small_large_dataset):
    from repro.core.preprocess import GrowPreprocessor

    plan = GrowPreprocessor().plan_from_graph(small_large_dataset.graph, partitioned=False)
    result = multi_pe.run_aggregation(large_workloads[0], 8, plan)
    # A single cluster cannot spread across PEs: compute stays on one PE.
    assert sum(c > 0 for c in result.per_pe_compute_cycles) == 1


@pytest.mark.parametrize("num_pes", [1, 4])
def test_run_aggregation_computes_the_cluster_breakdown_once(
    multi_pe, large_workloads, large_plan, num_pes
):
    expected = multi_pe.run_aggregation(large_workloads[0], num_pes, large_plan)
    with mock.patch.object(
        GrowSimulator,
        "cluster_breakdown",
        autospec=True,
        side_effect=GrowSimulator.cluster_breakdown,
    ) as breakdown:
        assert multi_pe.run_aggregation(large_workloads[0], num_pes, large_plan) == expected
    assert breakdown.call_count == 1
