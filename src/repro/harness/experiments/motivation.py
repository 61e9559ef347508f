"""GCNAX inefficiency studies that motivate GROW: Figures 5, 6 and 7."""

from __future__ import annotations

from repro.analysis.breakdown import latency_breakdown
from repro.analysis.tiles import effective_bandwidth_utilization
from repro.harness.config import ExperimentConfig
from repro.harness.experiments.common import gcnax_results
from repro.harness.registry import register
from repro.harness.report import ExperimentResult
from repro.harness.workloads import get_bundle
from repro.sparse.tiling import tile_nnz_histogram


@register("fig5_tile_nnz")
def fig5_tile_nnz(config: ExperimentConfig) -> ExperimentResult:
    """Distribution of non-zeros per tile for matrices A and X."""
    result = ExperimentResult(
        name="fig5_tile_nnz",
        paper_reference="Figure 5",
        description=(
            "Fraction of occupied GCNAX tiles per non-zero-count bin, for the "
            "adjacency matrix A (aggregation) and feature matrix X (combination)"
        ),
        columns=["dataset", "matrix"],
        notes=[f"Tile size {config.gcnax_tile}x{config.gcnax_tile}."],
    )
    tile = config.gcnax_tile
    for name in config.datasets:
        bundle = get_bundle(name, config)
        adjacency = bundle.workloads[0].aggregation.sparse
        features = bundle.workloads[0].combination.sparse
        bins_a = tile_nnz_histogram(adjacency, tile, tile, bin_edges=(1, 2, 8, 16))
        bins_x = tile_nnz_histogram(features, tile, tile, bin_edges=(1, 2, 8, 1024))
        result.add_row(dataset=name, matrix="A", **{f"frac_{k}": v for k, v in bins_a.items()})
        result.add_row(dataset=name, matrix="X", **{f"frac_{k}": v for k, v in bins_x.items()})
    return result


@register("fig6_bandwidth_util")
def fig6_bandwidth_util(config: ExperimentConfig) -> ExperimentResult:
    """Effective DRAM bandwidth utilisation fetching A and X under 2-D tiling."""
    result = ExperimentResult(
        name="fig6_bandwidth_util",
        paper_reference="Figure 6",
        description=(
            "Fraction of DRAM bytes that are effectual when GCNAX fetches the "
            "sparse matrices with 64-byte minimum access granularity"
        ),
        columns=["dataset", "utilization_A", "utilization_X"],
    )
    tile = config.gcnax_tile
    for name in config.datasets:
        bundle = get_bundle(name, config)
        adjacency = bundle.workloads[0].aggregation.sparse
        features = bundle.workloads[0].combination.sparse
        result.add_row(
            dataset=name,
            utilization_A=effective_bandwidth_utilization(adjacency, tile, tile),
            utilization_X=effective_bandwidth_utilization(features, tile, tile),
        )
    return result


@register("fig7_gcnax_breakdown")
def fig7_gcnax_breakdown(config: ExperimentConfig) -> ExperimentResult:
    """Aggregation vs combination share of GCNAX's end-to-end latency."""
    result = ExperimentResult(
        name="fig7_gcnax_breakdown",
        paper_reference="Figure 7",
        description="Fraction of GCNAX inference latency spent in each phase",
        columns=["dataset", "aggregation_fraction", "combination_fraction"],
    )
    for name in config.datasets:
        bundle = get_bundle(name, config)
        breakdown = latency_breakdown(gcnax_results(config, bundle))
        total = breakdown["total"] or 1.0
        result.add_row(
            dataset=name,
            aggregation_fraction=breakdown["aggregation"] / total,
            combination_fraction=breakdown["combination"] / total,
        )
    return result
