"""Unit tests for the HDN cache and HDN ID list oracles."""

import numpy as np
import pytest

from oracles import HDNCache, HDNIdList


def test_id_list_load_and_lookup():
    id_list = HDNIdList(capacity=8)
    id_list.load(np.array([3, 1, 4, 1, 5]))
    assert id_list.size == 4  # duplicates removed
    hits = id_list.lookup(np.array([1, 2, 3, 9]))
    np.testing.assert_array_equal(hits, [True, False, True, False])


def test_id_list_truncates_to_capacity():
    id_list = HDNIdList(capacity=3)
    id_list.load(np.arange(10))
    assert id_list.size == 3


def test_id_list_empty_lookup():
    id_list = HDNIdList(capacity=4)
    assert not id_list.lookup(np.array([1, 2, 3])).any()


def test_id_list_storage_bytes():
    assert HDNIdList(capacity=4096).storage_bytes == 12 * 1024


def test_id_list_overflow_rejected():
    with pytest.raises(ValueError):
        HDNIdList(capacity=2, node_ids=np.array([1, 2, 3]))


def test_id_list_constructor_and_load_agree_on_duplicates():
    built = HDNIdList(capacity=2, node_ids=[5, 5])
    loaded = HDNIdList(capacity=2)
    loaded.load([5, 5])
    assert built.size == loaded.size == 1
    np.testing.assert_array_equal(built.node_ids, loaded.node_ids)


def test_id_list_overflow_counts_distinct_ids():
    id_list = HDNIdList(capacity=2, node_ids=[5, 5, 6])
    assert id_list.size == 2
    np.testing.assert_array_equal(id_list.node_ids, [5, 6])


@pytest.mark.parametrize("ids", [[-1], [3, -2, 3]])
def test_id_list_rejects_negative_ids(ids):
    with pytest.raises(ValueError, match="non-negative"):
        HDNIdList(capacity=4, node_ids=ids)
    id_list = HDNIdList(capacity=4)
    with pytest.raises(ValueError, match="non-negative"):
        id_list.load(ids)


def test_id_list_out_of_range_columns_miss():
    id_list = HDNIdList(capacity=4, node_ids=[0, 2, 7])
    hits = id_list.lookup(np.array([-8, -1, 0, 2, 7, 8, 100, 2**40]))
    np.testing.assert_array_equal(hits, [False, False, True, True, True, False, False, False])


def test_cache_capacity_rows():
    cache = HDNCache(capacity_bytes=512 * 1024, id_list=HDNIdList(capacity=4096))
    cache.begin_phase(row_bytes=512)
    assert cache.capacity_rows == 1024
    cache.begin_phase(row_bytes=64)
    assert cache.capacity_rows == 4096  # capped by the ID list capacity


def test_cache_begin_phase_validation():
    cache = HDNCache(capacity_bytes=1024)
    with pytest.raises(ValueError):
        cache.begin_phase(0)


def test_cache_fill_and_hit_accounting():
    cache = HDNCache(capacity_bytes=10 * 128, id_list=HDNIdList(capacity=16))
    cache.begin_phase(row_bytes=128)
    fetched = cache.fill_cluster(np.array([0, 1, 2]))
    assert fetched == 3 * 128
    mask = cache.lookup_batch(np.array([0, 1, 5, 2, 9]))
    assert mask.sum() == 3
    assert cache.hits == 3
    assert cache.misses == 2
    assert cache.hit_rate == pytest.approx(0.6)


def test_cache_fill_truncated_by_capacity():
    cache = HDNCache(capacity_bytes=2 * 256, id_list=HDNIdList(capacity=64))
    cache.begin_phase(row_bytes=256)
    fetched = cache.fill_cluster(np.arange(10))
    assert fetched == 2 * 256
    # Only the first two ids are resident.
    assert cache.lookup_batch(np.array([0, 1])).all()
    assert not cache.lookup_batch(np.array([5])).any()


def test_cache_refill_replaces_contents():
    cache = HDNCache(capacity_bytes=4 * 64, id_list=HDNIdList(capacity=8))
    cache.begin_phase(64)
    cache.fill_cluster(np.array([1, 2]))
    cache.fill_cluster(np.array([7, 8]))
    assert cache.lookup_batch(np.array([7])).all()
    assert not cache.lookup_batch(np.array([1])).any()


def test_cache_hit_rate_empty():
    cache = HDNCache(capacity_bytes=0)
    assert cache.hit_rate == 0.0


def test_zero_capacity_cache_never_hits():
    cache = HDNCache(capacity_bytes=0, id_list=HDNIdList(capacity=8))
    cache.begin_phase(64)
    cache.fill_cluster(np.array([1, 2, 3]))
    assert not cache.lookup_batch(np.array([1, 2, 3])).any()
