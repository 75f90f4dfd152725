"""Eviction-policy contract of the memory tier, which is LRU only.

The bulk of the LRU contract lives in
``tests/cache/test_result_cache.py::TestLRUCache``; these cases pin the
round-trip counters, the capacity check and least-recently-used order.
"""

from __future__ import annotations

import pytest

from repro.cache import LRUCache

LRU = pytest.param(LRUCache, id="lru")


@pytest.mark.parametrize("cache_cls", [LRU])
def test_capacity_must_be_positive(cache_cls):
    for bad in (0, -1):
        with pytest.raises(ValueError, match="max_entries"):
            cache_cls(bad)


@pytest.mark.parametrize("cache_cls", [LRU])
def test_get_put_roundtrip_and_counters(cache_cls):
    cache = cache_cls(4)
    assert cache.get("a") is None
    cache.put("a", 1)
    assert cache.get("a") == 1
    assert "a" in cache and len(cache) == 1
    assert (cache.hits, cache.misses, cache.evictions) == (1, 1, 0)
    assert cache.max_entries == 4


def test_lru_evicts_least_recently_used():
    lru = LRUCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    assert lru.get("a") == 1     # refresh a; b is now LRU
    lru.put("c", 3)
    assert "b" not in lru
    assert lru.get("a") == 1 and lru.get("c") == 3


def test_lru_put_refresh_updates_recency():
    lru = LRUCache(2)
    lru.put("a", 1)
    lru.put("b", 2)
    lru.put("a", 10)             # refresh via put, not get
    lru.put("c", 3)
    assert "b" not in lru and lru.get("a") == 10
