"""Unit tests for the advanced aggregation functions (Section VIII)."""

import pytest

from repro.gcn.aggregators import (
    GAT_SOFTMAX_AREA_OVERHEAD,
    POOL_COMPARATOR_AREA_OVERHEAD,
    area_with_aggregator_support,
    grow_support_assessment,
)


def test_support_assessment_matches_paper():
    support = grow_support_assessment()
    assert support["gin"].supported_as_is
    assert support["sage_mean"].supported_as_is
    assert not support["sage_pool"].supported_as_is
    assert support["sage_pool"].area_overhead_fraction == POOL_COMPARATOR_AREA_OVERHEAD
    assert support["gat"].area_overhead_fraction == GAT_SOFTMAX_AREA_OVERHEAD


def test_area_with_aggregator_support():
    assert area_with_aggregator_support(100.0, ("gin",)) == 100.0
    assert area_with_aggregator_support(100.0, ("sage_pool",)) == pytest.approx(101.4)
    assert area_with_aggregator_support(100.0, ("sage_pool", "gat")) == pytest.approx(103.1)
    with pytest.raises(KeyError):
        area_with_aggregator_support(100.0, ("unknown",))
