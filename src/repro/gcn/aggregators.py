"""Advanced aggregation functions (paper Section VIII).

The paper discusses how GROW extends beyond the plain GCN sum-aggregation to
the aggregation functions of SAGEConv (mean / pool / LSTM over sampled
neighbours), GIN (learnable central-node weighting, refactored into
consecutive weight matrices) and GAT (attention).  This module holds the
paper's applicability analysis, :func:`grow_support_assessment`: which
existing GROW structures execute each aggregator and what additional area
each one costs (a vector comparator array for pooling, a softmax unit for
attention).
"""

from __future__ import annotations

from dataclasses import dataclass

# Additional area overheads quoted in the paper's Section VIII, as fractions
# of the baseline GROW design.
POOL_COMPARATOR_AREA_OVERHEAD = 0.014
GAT_SOFTMAX_AREA_OVERHEAD = 0.017


@dataclass(frozen=True)
class AggregatorSupport:
    """GROW's support assessment for one aggregation function.

    Attributes:
        name: aggregator name.
        supported_as_is: True when the existing MAC array executes it.
        extra_structures: additional hardware needed, if any.
        area_overhead_fraction: chip-wide area overhead of that hardware.
    """

    name: str
    supported_as_is: bool
    extra_structures: tuple[str, ...]
    area_overhead_fraction: float


def grow_support_assessment() -> dict[str, AggregatorSupport]:
    """The paper's Section VIII applicability table as structured data."""
    return {
        "gcn_sum": AggregatorSupport("gcn_sum", True, (), 0.0),
        "sage_mean": AggregatorSupport("sage_mean", True, (), 0.0),
        "sage_lstm": AggregatorSupport("sage_lstm", True, (), 0.0),
        "sage_pool": AggregatorSupport(
            "sage_pool", False, ("vector comparator array",), POOL_COMPARATOR_AREA_OVERHEAD
        ),
        "gin": AggregatorSupport("gin", True, (), 0.0),
        "gat": AggregatorSupport(
            "gat", False, ("softmax unit",), GAT_SOFTMAX_AREA_OVERHEAD
        ),
    }


def area_with_aggregator_support(base_area_mm2: float, aggregators: tuple[str, ...]) -> float:
    """GROW area after adding the structures the named aggregators require."""
    assessment = grow_support_assessment()
    overhead = 0.0
    for name in aggregators:
        if name not in assessment:
            raise KeyError(f"unknown aggregator {name!r}; known: {sorted(assessment)}")
        overhead += assessment[name].area_overhead_fraction
    return base_area_mm2 * (1.0 + overhead)
