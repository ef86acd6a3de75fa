"""Unit tests for the set-associative data cache."""

from repro.config import CacheConfig
from repro.memory.cache import SetAssociativeCache


def make_cache(size=1024, ways=2):
    return SetAssociativeCache(CacheConfig(size_bytes=size, associativity=ways))


def test_miss_then_hit_after_fill():
    cache = make_cache()
    assert cache.access(5) is False
    cache.fill(5)
    assert cache.access(5) is True


def test_access_does_not_auto_fill():
    cache = make_cache()
    cache.access(5)
    assert cache.access(5) is False


def test_lru_eviction_within_set():
    # 1024B/64B = 16 lines, 2-way -> 8 sets; lines 0, 8, 16 share set 0.
    cache = make_cache()
    cache.fill(0)
    cache.fill(8)
    cache.access(0)  # 8 becomes LRU
    cache.fill(16)
    assert cache.contains(8) is False
    assert cache.contains(0) and cache.contains(16)
    assert cache.evictions == 1


def test_sets_are_independent():
    cache = make_cache()
    cache.fill(0)
    cache.fill(1)  # different set
    cache.fill(8)
    cache.fill(16)  # evicts within set 0 only
    assert cache.contains(1) is True


def test_fill_refreshes_existing_line():
    cache = make_cache()
    cache.fill(0)
    cache.fill(8)
    cache.fill(0)  # refresh, no duplicate
    cache.fill(16)  # evicts 8
    assert cache.contains(0) is True
    assert cache.contains(8) is False


def test_contains_is_stat_free():
    cache = make_cache()
    cache.fill(3)
    hits, misses = cache.hits, cache.misses
    cache.contains(3)
    cache.contains(4)
    assert (cache.hits, cache.misses) == (hits, misses)


def test_hit_rate():
    cache = make_cache()
    cache.fill(1)
    cache.access(1)
    cache.access(2)
    assert cache.hit_rate == 0.5
    assert cache.accesses == 2


def test_stats_dict():
    cache = make_cache()
    cache.access(9)
    stats = cache.stats()
    assert stats["misses"] == 1
    assert stats["hits"] == 0
