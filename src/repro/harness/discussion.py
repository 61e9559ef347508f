"""Experiments for the paper's Section VIII discussion points.

These go beyond the evaluation figures: the pinned-vs-demand-based HDN cache
replacement comparison, GROW's behaviour on non-power-law graphs, and the
area cost of supporting the advanced aggregation functions (SAGEConv pooling,
GAT attention).
"""

from __future__ import annotations

import numpy as np

from repro.accelerators.gcnax import GCNAXSimulator
from repro.accelerators.workload import build_model_workloads
from repro.core.accelerator import GrowSimulator
from repro.core.preprocess import GrowPreprocessor
from repro.energy.area import grow_area_breakdown
from repro.gcn.aggregators import area_with_aggregator_support, grow_support_assessment
from repro.gcn.layer import build_model_for_dataset
from repro.graph.datasets import load_dataset
from repro.graph.generators import erdos_renyi_graph
from repro.harness.config import ExperimentConfig
from repro.harness.experiments.common import gcnax_results, grow_results
from repro.harness.registry import register
from repro.harness.report import ExperimentResult
from repro.harness.workloads import get_bundle


@register("disc_replacement_policy")
def disc_replacement_policy(config: ExperimentConfig) -> ExperimentResult:
    """Pinned vs demand-based (LRU) HDN cache replacement (Section VIII)."""
    result = ExperimentResult(
        name="disc_replacement_policy",
        paper_reference="Section VIII (pinned vs demand-based replacement)",
        description="HDN cache hit rate and speedup over GCNAX under both replacement policies",
        columns=["dataset", "hit_rate_pinned", "hit_rate_lru", "speedup_pinned", "speedup_lru"],
        notes=["The paper found statically pinning high-degree nodes the most robust choice."],
    )
    for name in config.datasets:
        bundle = get_bundle(name, config)
        gcnax = gcnax_results(config, bundle)
        pinned = grow_results(config, bundle, hdn_replacement="pinned")
        lru = grow_results(config, bundle, hdn_replacement="lru")
        result.add_row(
            dataset=name,
            hit_rate_pinned=pinned.extra["hdn_hit_rate"],
            hit_rate_lru=lru.extra["hdn_hit_rate"],
            speedup_pinned=pinned.speedup_over(gcnax),
            speedup_lru=lru.speedup_over(gcnax),
        )
    return result


@register("disc_nonpowerlaw")
def disc_nonpowerlaw(config: ExperimentConfig) -> ExperimentResult:
    """GROW on non-power-law (uniform random) graphs (Section VIII)."""
    result = ExperimentResult(
        name="disc_nonpowerlaw",
        paper_reference="Section VIII (GROW for non-power-law graphs)",
        description=(
            "Speedup over GCNAX and HDN hit rate on a power-law graph vs an "
            "Erdos-Renyi graph of the same size and degree"
        ),
        columns=["graph", "hdn_hit_rate", "speedup_over_gcnax", "traffic_ratio"],
        notes=[
            "The HDN cache is less effective without the power-law skew, but the "
            "row-stationary dataflow keeps GROW competitive."
        ],
    )
    base = load_dataset("pokec", num_nodes=config.num_nodes_override.get("pokec"), seed=config.seed)
    uniform_graph = erdos_renyi_graph(
        base.num_nodes,
        base.graph.average_degree,
        rng=np.random.default_rng(config.seed),
        name="uniform",
    )
    for label, graph in (("power-law (pokec)", base.graph), ("uniform (erdos-renyi)", uniform_graph)):
        model = build_model_for_dataset(base, seed=config.seed, graph=graph)
        workloads = build_model_workloads(model)
        plan = GrowPreprocessor(
            target_cluster_nodes=config.target_cluster_nodes, seed=config.seed
        ).plan_from_graph(graph)
        grow = GrowSimulator(config.grow_config()).run_model(workloads, plan)
        gcnax = GCNAXSimulator(config.gcnax_config()).run_model(workloads)
        result.add_row(
            graph=label,
            hdn_hit_rate=grow.extra["hdn_hit_rate"],
            speedup_over_gcnax=grow.speedup_over(gcnax),
            traffic_ratio=grow.traffic_ratio_to(gcnax),
        )
    return result


@register("disc_aggregator_support")
def disc_aggregator_support(config: ExperimentConfig) -> ExperimentResult:
    """Area cost of supporting advanced aggregation functions (Section VIII)."""
    base_area = grow_area_breakdown(technology_nm=65).total_mm2
    result = ExperimentResult(
        name="disc_aggregator_support",
        paper_reference="Section VIII (advanced aggregation functions)",
        description="GROW support and area overhead per aggregation function",
        columns=["aggregator", "supported_as_is", "extra_structures", "area_overhead", "total_area_mm2"],
    )
    for name, support in grow_support_assessment().items():
        result.add_row(
            aggregator=name,
            supported_as_is=support.supported_as_is,
            extra_structures=", ".join(support.extra_structures) or "-",
            area_overhead=support.area_overhead_fraction,
            total_area_mm2=area_with_aggregator_support(base_area, (name,)),
        )
    return result
