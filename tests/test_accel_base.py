"""Unit tests for the shared accelerator result schema."""

import pytest

from repro.accelerators.base import (
    AcceleratorConfig,
    AcceleratorResult,
    PhaseStats,
    combine_results,
)


def make_phase(name="aggregation", compute=100.0, memory=200.0, stall=10.0, reads=1000, writes=500):
    return PhaseStats(
        name=name,
        compute_cycles=compute,
        memory_cycles=memory,
        stall_cycles=stall,
        mac_operations=42,
        dram_read_bytes=reads,
        dram_write_bytes=writes,
        requested_read_bytes=reads // 2,
        sram_access_bytes={"buf": 64},
    )


def test_arch_bytes_per_cycle():
    arch = AcceleratorConfig(bandwidth_gbps=128.0, frequency_ghz=1.0)
    assert arch.bytes_per_cycle == pytest.approx(137.438953472)


def test_arch_with_bandwidth():
    arch = AcceleratorConfig().with_bandwidth(32.0)
    assert arch.bandwidth_gbps == 32.0
    assert arch.num_macs == 16


def test_phase_total_cycles_is_bound_plus_stalls():
    phase = make_phase(compute=100, memory=250, stall=25)
    assert phase.total_cycles == 275
    phase = make_phase(compute=300, memory=250, stall=0)
    assert phase.total_cycles == 300


def test_result_totals():
    result = AcceleratorResult(accelerator="x", workload="w", phases=[make_phase(), make_phase("combination")])
    assert result.total_cycles == 2 * make_phase().total_cycles
    assert result.total_mac_operations == 84
    assert result.dram_read_bytes == 2000
    assert result.total_dram_bytes == 3000


def test_result_phase_cycles_filter():
    result = AcceleratorResult(
        accelerator="x",
        workload="w",
        phases=[make_phase("aggregation"), make_phase("combination", memory=100)],
    )
    assert result.phase_cycles("aggregation") == make_phase().total_cycles
    assert result.phase_cycles("nonexistent") == 0.0


def test_result_speedup_and_traffic_ratio():
    fast = AcceleratorResult(accelerator="a", workload="w", phases=[make_phase(memory=100, stall=0, compute=50)])
    slow = AcceleratorResult(accelerator="b", workload="w", phases=[make_phase(memory=200, stall=0, compute=50)])
    assert fast.speedup_over(slow) == 2.0
    assert fast.traffic_ratio_to(slow) == 1.0


def test_sram_access_bytes_summed():
    result = AcceleratorResult(accelerator="x", workload="w", phases=[make_phase(), make_phase()])
    assert result.sram_access_bytes()["buf"] == 128


def test_combine_results():
    a = AcceleratorResult(accelerator="x", workload="l0", phases=[make_phase()])
    a.sram_capacities = {"buf": 100}
    a.extra = {"hits": 1.0}
    b = AcceleratorResult(accelerator="x", workload="l1", phases=[make_phase()])
    b.sram_capacities = {"buf": 200}
    b.extra = {"hits": 2.0}
    combined = combine_results([a, b], workload="model")
    assert combined.workload == "model"
    assert len(combined.phases) == 2
    assert combined.sram_capacities["buf"] == 200
    assert combined.extra["hits"] == 3.0


def test_combine_results_empty():
    with pytest.raises(ValueError):
        combine_results([])
