"""Unit tests for the GROW configuration object."""

import pytest

from repro.accelerators.base import KB
from repro.core.config import GrowConfig


def test_defaults_match_table3():
    config = GrowConfig()
    assert config.arch.num_macs == 16
    assert config.sparse_buffer_bytes == 12 * KB
    assert config.hdn_id_list_bytes == 12 * KB
    assert config.hdn_cache_bytes == 512 * KB
    assert config.output_buffer_bytes == 2 * KB
    assert config.runahead_degree == 16
    assert config.arch.bandwidth_gbps == 128.0


def test_hdn_id_capacity_three_bytes_per_id():
    config = GrowConfig()
    assert config.hdn_id_capacity == (12 * KB) // 3 == 4096


def test_hdn_cache_rows_by_row_size():
    config = GrowConfig()
    assert config.hdn_cache_rows(rhs_row_bytes=512) == 1024
    assert config.hdn_cache_rows(rhs_row_bytes=128) == 4096  # capped by the ID list
    assert config.hdn_cache_rows(rhs_row_bytes=0) == 0


def test_hdn_cache_rows_disabled():
    config = GrowConfig(enable_hdn_cache=False)
    assert config.hdn_cache_rows(512) == 0


def test_effective_runahead():
    assert GrowConfig(runahead_degree=8).effective_runahead == 8
    assert GrowConfig(runahead_degree=64, ldn_table_entries=16).effective_runahead == 16
    assert GrowConfig(enable_runahead=False).effective_runahead == 1


def test_invalid_values_rejected():
    with pytest.raises(ValueError):
        GrowConfig(runahead_degree=0)
    with pytest.raises(ValueError):
        GrowConfig(num_pes=0)


def test_ablation_switches():
    config = GrowConfig(enable_hdn_cache=False, enable_runahead=False)
    assert config.enable_hdn_cache is False
    assert config.enable_runahead is False
    assert config.effective_runahead == 1
