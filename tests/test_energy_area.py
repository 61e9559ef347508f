"""Unit tests for the energy and area models."""

import pytest

from repro.energy.area import (
    GCNAX_AREA_MM2_40NM,
    AreaModel,
    grow_area_breakdown,
    scale_area,
)
from repro.energy.energy_model import EnergyBreakdown, EnergyParameters, estimate_energy
from repro.energy.sram_model import SRAMEnergyModel, sram_access_energy_pj

from oracles import sram_leakage_mw

KB = 1024


# ----------------------------------------------------------------------
# SRAM energy model
# ----------------------------------------------------------------------

def test_sram_access_energy_grows_with_capacity():
    assert sram_access_energy_pj(512 * KB) > sram_access_energy_pj(8 * KB)


def test_sram_access_energy_scales_with_width():
    assert sram_access_energy_pj(8 * KB, access_bytes=128) == pytest.approx(
        2 * sram_access_energy_pj(8 * KB, access_bytes=64)
    )


def test_sram_energy_cheaper_than_dram_per_byte():
    params = EnergyParameters()
    per_byte = sram_access_energy_pj(512 * KB, access_bytes=64) / 64
    assert per_byte < params.dram_energy_pj_per_byte / 2


def test_sram_zero_capacity():
    assert sram_access_energy_pj(0) == 0.0
    assert sram_leakage_mw(0) == 0.0


def test_sram_leakage_linear():
    assert sram_leakage_mw(64 * KB) == pytest.approx(2 * sram_leakage_mw(32 * KB))


def test_sram_model_dynamic_energy():
    model = SRAMEnergyModel(capacity_bytes=32 * KB)
    assert model.dynamic_energy_nj(1000) > 0
    assert model.dynamic_energy_nj(0) == 0.0


# ----------------------------------------------------------------------
# Energy model
# ----------------------------------------------------------------------

def test_energy_breakdown_total():
    breakdown = EnergyBreakdown(mac_nj=1, register_nj=2, sram_nj=3, dram_nj=4, leakage_nj=5)
    assert breakdown.total_nj == 15
    assert breakdown.as_dict()["total"] == 15


def test_estimate_energy_components():
    breakdown = estimate_energy(
        mac_operations=1_000_000,
        dram_bytes=10_000_000,
        sram_access_events={"buffer": (256 * KB, 5_000_000)},
        runtime_cycles=1_000_000,
        area_mm2=5.0,
    )
    assert breakdown.mac_nj > 0
    assert breakdown.dram_nj > breakdown.sram_nj
    assert breakdown.leakage_nj > 0
    assert breakdown.total_nj == pytest.approx(
        breakdown.mac_nj
        + breakdown.register_nj
        + breakdown.sram_nj
        + breakdown.dram_nj
        + breakdown.leakage_nj
    )


def test_estimate_energy_zero_activity():
    breakdown = estimate_energy(0, 0, {}, 0.0, 0.0)
    assert breakdown.total_nj == 0.0


def test_dram_energy_proportional_to_traffic():
    low = estimate_energy(0, 1_000_000, {}, 0, 0)
    high = estimate_energy(0, 2_000_000, {}, 0, 0)
    assert high.dram_nj == pytest.approx(2 * low.dram_nj)


# ----------------------------------------------------------------------
# Area model
# ----------------------------------------------------------------------

def test_scale_area_quadratic():
    assert scale_area(4.0, 65, 32.5) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        scale_area(1.0, 0, 40)


def test_default_breakdown_matches_paper_total():
    breakdown = grow_area_breakdown(technology_nm=65)
    assert breakdown.total_mm2 == pytest.approx(5.785, abs=0.01)
    # SRAM dominates the area (paper: 88%).
    assert breakdown.sram_fraction() > 0.8


def test_breakdown_components_match_paper():
    breakdown = grow_area_breakdown(technology_nm=65)
    assert breakdown.components["hdn_cache"] == pytest.approx(3.569, abs=0.01)
    assert breakdown.components["mac_array"] == pytest.approx(0.613, abs=0.01)


def test_scaled_to_40nm_below_gcnax():
    breakdown = grow_area_breakdown(technology_nm=40)
    assert breakdown.total_mm2 < GCNAX_AREA_MM2_40NM
    assert breakdown.total_mm2 == pytest.approx(2.19, abs=0.1)


def test_area_scales_with_sizing():
    model = AreaModel()
    assert model.hdn_cache_area(1024 * KB) == pytest.approx(2 * model.hdn_cache_area(512 * KB))
    assert model.mac_array_area(32) == pytest.approx(2 * model.mac_array_area(16))


def test_breakdown_as_dict():
    breakdown = grow_area_breakdown()
    as_dict = breakdown.as_dict()
    assert as_dict["total"] == pytest.approx(breakdown.total_mm2)
    assert "hdn_cache" in as_dict
