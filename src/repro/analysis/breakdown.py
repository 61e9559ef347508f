"""Latency breakdowns of accelerator results (Figures 7 and 20(b))."""

from __future__ import annotations

from repro.accelerators.base import AcceleratorResult


def latency_breakdown(result: AcceleratorResult) -> dict[str, float]:
    """Cycles spent in aggregation vs combination phases of one result."""
    return {
        "aggregation": result.phase_cycles("aggregation"),
        "combination": result.phase_cycles("combination"),
        "total": result.total_cycles,
    }
