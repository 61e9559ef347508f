"""Unit tests for the runahead execution model (LDN table, LHS ID table)."""

import pytest

from repro.core.runahead import LDNTable, LHSIdTable, RunaheadModel


# ----------------------------------------------------------------------
# LDN table (MSHR)
# ----------------------------------------------------------------------

def test_ldn_allocate_and_complete():
    table = LDNTable(capacity=2)
    assert table.allocate(10) is not None
    assert table.allocate(20) is not None
    assert table.occupancy == 2
    assert table.complete(10) is True
    assert table.occupancy == 1
    assert table.complete(99) is False


def test_ldn_duplicate_allocation_reuses_entry():
    table = LDNTable(capacity=2)
    first = table.allocate(5)
    second = table.allocate(5)
    assert first == second
    assert table.occupancy == 1


def test_ldn_allocation_fails_when_full():
    table = LDNTable(capacity=1)
    table.allocate(1)
    assert table.allocate(2) is None
    assert table.allocation_failures == 1


def test_ldn_storage_bytes():
    assert LDNTable(capacity=16).storage_bytes == 64


# ----------------------------------------------------------------------
# LHS ID table
# ----------------------------------------------------------------------

def test_lhs_table_allocate_and_drain():
    table = LHSIdTable(capacity=4)
    assert table.allocate(ldn_index=0, output_row=1, lhs_value=2.0)
    assert table.allocate(ldn_index=0, output_row=3, lhs_value=4.0)
    assert table.allocate(ldn_index=1, output_row=2, lhs_value=5.0)
    ready = table.drain(0)
    assert sorted(ready) == [(1, 2.0), (3, 4.0)]
    assert table.occupancy == 1


def test_lhs_table_capacity():
    table = LHSIdTable(capacity=1)
    assert table.allocate(0, 0, 1.0)
    assert not table.allocate(0, 1, 1.0)
    assert table.allocation_failures == 1


def test_lhs_table_storage_bytes():
    assert LHSIdTable(capacity=64).storage_bytes == 64 * 9


# ----------------------------------------------------------------------
# Runahead latency model
# ----------------------------------------------------------------------

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
    model = RunaheadModel(dram_latency_cycles=100)
    sweep = model.sweep(rows_with_miss=500)
    values = [sweep[d] for d in sorted(sweep)]
    assert all(a >= b for a, b in zip(values, values[1:]))

