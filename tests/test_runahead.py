"""Unit tests for the runahead execution latency model."""

import pytest

from repro.core.runahead import RunaheadModel


def test_effective_degree_bounded_by_ldn_entries():
    model = RunaheadModel(degree=32, ldn_entries=16)
    assert model.effective_degree == 16
    assert RunaheadModel(degree=4, ldn_entries=16).effective_degree == 4


def test_exposed_stalls_shrink_with_degree():
    one_way = RunaheadModel(degree=1, dram_latency_cycles=100)
    sixteen_way = RunaheadModel(degree=16, dram_latency_cycles=100, ldn_entries=16)
    assert one_way.exposed_stall_cycles(1000) == 100_000
    assert sixteen_way.exposed_stall_cycles(1000) == pytest.approx(100_000 / 16)


def test_no_misses_no_stalls():
    assert RunaheadModel().exposed_stall_cycles(0) == 0.0
    assert RunaheadModel().exposed_stall_cycles(-5) == 0.0


def test_sweep_is_monotonically_non_increasing():
    values = [
        RunaheadModel(
            degree=degree, dram_latency_cycles=100, ldn_entries=max(16, degree)
        ).exposed_stall_cycles(500)
        for degree in (1, 2, 4, 8, 16, 32)
    ]
    assert all(a >= b for a, b in zip(values, values[1:]))

