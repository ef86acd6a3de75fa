"""The model's true-LRU sets: naive twins, and what the collector sees.

The TLBs, the data caches and the page walk caches keep each set in a
hashed, insertion-ordered container.  The twins below keep each set as a
plain list, oldest first, and do everything by linear search: a hit
moves the item to the end, an eviction takes the front.  Seeded random
operation streams drive a structure and its twin side by side; after
every step the return values, the counters and each set's LRU order
must agree.
"""

import gc
import random

import pytest

from repro import baseline_config
from repro.config import (
    BITS_PER_LEVEL,
    PAGE_TABLE_LEVELS,
    CacheConfig,
    PWCConfig,
    TLBConfig,
)
from repro.experiments.runner import build_system
from repro.memory.cache import SetAssociativeCache
from repro.mmu.geometry import BASE_4K, LARGE_2M
from repro.mmu.pwc import PageWalkCache
from repro.mmu.tlb import TLB

STEPS = 3000


def _find(items, key):
    """Index of ``key`` among ``[key, value]`` items, or None."""
    for index, item in enumerate(items):
        if item[0] == key:
            return index
    return None


class TwinSets:
    """Sets of ``[key, value]`` lists, each ordered oldest first."""

    def __init__(self, num_sets, ways):
        self.sets = [[] for _ in range(num_sets)]
        self.ways = ways
        self.hits = self.misses = self.evictions = 0

    def items(self, key):
        return self.sets[key % len(self.sets)]

    def touch(self, key):
        """The key's item, moved to the most-recent end; None if absent."""
        items = self.items(key)
        index = _find(items, key)
        if index is None:
            return None
        item = items.pop(index)
        items.append(item)
        return item

    def install(self, key, value):
        items = self.items(key)
        index = _find(items, key)
        if index is not None:
            items.pop(index)
        elif len(items) >= self.ways:
            items.pop(0)
            self.evictions += 1
        items.append([key, value])

    def order(self):
        return [[tuple(item) for item in items] for items in self.sets]


class TwinTLB(TwinSets):
    def lookup(self, vpn):
        item = self.touch(vpn)
        if item is None:
            self.misses += 1
            return None
        self.hits += 1
        return item[1]

    def probe(self, vpn):
        return _find(self.items(vpn), vpn) is not None

    def invalidate(self, vpn):
        items = self.items(vpn)
        index = _find(items, vpn)
        if index is None:
            return False
        items.pop(index)
        return True

    def flush(self):
        for items in self.sets:
            items.clear()


class TwinCache(TwinSets):
    def access(self, line):
        if self.touch(line) is None:
            self.misses += 1
            return False
        self.hits += 1
        return True

    def contains(self, line):
        return _find(self.items(line), line) is not None


def _sets_of(structure):
    return [list(entries.items()) for entries in structure._sets]


@pytest.mark.parametrize("entries, ways", [(8, None), (32, 4)])
@pytest.mark.parametrize("seed", [1, 2])
def test_tlb_matches_list_twin(entries, ways, seed):
    tlb = TLB(TLBConfig(entries=entries, associativity=ways))
    twin = TwinTLB(tlb.config.num_sets, entries // tlb.config.num_sets)
    rng = random.Random(seed)
    for step in range(STEPS):
        vpn = rng.randrange(4 * entries)
        op = rng.random()
        if op < 0.45:
            got, want = tlb.lookup(vpn), twin.lookup(vpn)
        elif op < 0.8:
            pfn = rng.randrange(1 << 20)
            got, want = tlb.insert(vpn, pfn), twin.install(vpn, pfn)
        elif op < 0.9:
            got, want = tlb.probe(vpn), twin.probe(vpn)
        elif op < 0.99:
            got, want = tlb.invalidate(vpn), twin.invalidate(vpn)
        else:
            got, want = tlb.flush(), twin.flush()
        assert got == want, step
        assert (tlb.hits, tlb.misses, tlb.evictions) == (
            twin.hits, twin.misses, twin.evictions
        ), step
        assert _sets_of(tlb) == twin.order(), step
    assert twin.hits and twin.evictions


@pytest.mark.parametrize("size_lines, ways", [(4, 4), (16, 4)])
@pytest.mark.parametrize("seed", [1, 2])
def test_cache_matches_list_twin(size_lines, ways, seed):
    cache = SetAssociativeCache(
        CacheConfig(size_bytes=64 * size_lines, associativity=ways)
    )
    twin = TwinCache(cache.config.num_sets, ways)
    rng = random.Random(seed)
    for step in range(STEPS):
        line = rng.randrange(4 * size_lines)
        op = rng.random()
        if op < 0.5:
            got, want = cache.access(line), twin.access(line)
        elif op < 0.9:
            got, want = cache.fill(line), twin.install(line, None)
        else:
            got, want = cache.contains(line), twin.contains(line)
        assert got == want, step
        assert (cache.hits, cache.misses, cache.evictions) == (
            twin.hits, twin.misses, twin.evictions
        ), step
        assert _sets_of(cache) == twin.order(), step
    assert twin.hits and twin.evictions


class TwinPWC:
    """Per-level sets of ``[tag, counter]`` with the §IV counter guard."""

    def __init__(self, config, geometry):
        self.geometry = geometry
        self.guard = config.counter_guard
        self.counter_max = (1 << config.counter_bits) - 1
        num_sets = config.entries_per_level // config.associativity
        self.levels = {
            level: TwinSets(num_sets, config.associativity)
            for level in geometry.pwc_levels
        }
        self.guarded = {level: 0 for level in self.levels}

    def _tag(self, vpn, level):
        return self.geometry.vpn_prefix(vpn, level)

    def _entry(self, vpn, level):
        tag = self._tag(vpn, level)
        items = self.levels[level].items(tag)
        index = _find(items, tag)
        return None if index is None else items[index]

    def _deepest_hit(self, vpn):
        for level in sorted(self.levels):  # deepest (lowest) first
            cache = self.levels[level]
            if self._entry(vpn, level) is not None:
                cache.hits += 1
                return level
            cache.misses += 1
        return 0

    def _accesses(self, level):
        if level == 0:
            return self.geometry.walk_levels
        return level - self.geometry.leaf_level

    def score(self, vpn):
        level = self._deepest_hit(vpn)
        pins = tuple(range(level, PAGE_TABLE_LEVELS + 1)) if level else ()
        for pinned in pins:
            entry = self._entry(vpn, pinned)
            if entry is not None and entry[1] < self.counter_max:
                entry[1] += 1
        return self._accesses(level), pins

    def walk_lookup(self, vpn, pins):
        level = self._deepest_hit(vpn)
        for pinned in pins:
            entry = self._entry(vpn, pinned)
            if entry is not None and entry[1]:
                entry[1] -= 1
        if level:
            for above in range(level, PAGE_TABLE_LEVELS + 1):
                self.levels[above].touch(self._tag(vpn, above))
        return self._accesses(level)

    def fill(self, vpn):
        for level, cache in self.levels.items():
            tag = self._tag(vpn, level)
            if cache.touch(tag) is not None:
                continue
            items = cache.items(tag)
            if len(items) >= cache.ways:
                unpinned = [i for i, item in enumerate(items) if item[1] == 0]
                if self.guard and unpinned:
                    items.pop(unpinned[0])
                else:
                    if self.guard:
                        self.guarded[level] += 1
                    items.pop(0)
            items.append([tag, 0])

    def flush(self):
        discarded = 0
        for cache in self.levels.values():
            for items in cache.sets:
                discarded += len(items)
                items.clear()
        return discarded

    def stats(self):
        return {
            f"level{level}": {
                "hits": cache.hits,
                "misses": cache.misses,
                "guarded_evictions_avoided": self.guarded[level],
            }
            for level, cache in self.levels.items()
        }

    def order(self):
        return {level: cache.order() for level, cache in self.levels.items()}


def _pwc_order(pwc):
    return {
        level: [
            [(tag, entry.counter) for tag, entry in entries.items()]
            for entries in cache._sets
        ]
        for level, cache in pwc._levels.items()
    }


def _region_vpn(rng, geometry):
    """A VPN from a few regions at every cached level, so tags collide."""
    vpn = 0
    for level in geometry.pwc_levels:
        vpn |= rng.randrange(3) << (BITS_PER_LEVEL * (level - geometry.leaf_level))
    return vpn | rng.randrange(4)


@pytest.mark.parametrize("geometry", [BASE_4K, LARGE_2M], ids=["4K", "2M"])
@pytest.mark.parametrize("guard", [True, False], ids=["guard", "noguard"])
@pytest.mark.parametrize("entries, ways", [(2, 2), (4, 2)])
def test_pwc_matches_list_twin(geometry, guard, entries, ways):
    config = PWCConfig(
        entries_per_level=entries, associativity=ways, counter_guard=guard
    )
    pwc = PageWalkCache(config, geometry=geometry)
    twin = TwinPWC(config, geometry)
    rng = random.Random(entries * 10 + ways)
    scored = []  # (vpn, pins) of scored walks not yet looked up
    for step in range(STEPS):
        vpn = _region_vpn(rng, geometry)
        op = rng.random()
        if op < 0.35:
            got, want = pwc.score(vpn), twin.score(vpn)
            scored.append((vpn, want[1]))
        elif op < 0.6:
            pins = ()
            if scored and rng.random() < 0.8:
                vpn, pins = scored.pop(rng.randrange(len(scored)))
            got, want = pwc.walk_lookup(vpn, pins), twin.walk_lookup(vpn, pins)
        elif op < 0.995:
            got, want = pwc.fill(vpn), twin.fill(vpn)
        else:
            got, want = pwc.flush(), twin.flush()
        assert got == want, step
        assert pwc.stats() == twin.stats(), step
        assert _pwc_order(pwc) == twin.order(), step
    # The streams reach fully pinned sets: the guard falls back to LRU.
    assert any(twin.guarded.values()) == guard


def test_lru_sets_of_ints_are_invisible_to_the_collector():
    """A baseline system's TLB and data-cache sets hold only ints, so
    the cyclic collector never tracks them: 4,425 containers it would
    otherwise walk on every full collection.  (PWC sets hold counter
    objects and are tracked once filled.)  A Mosaic IOMMU's region TLB
    is one more such set; other policies build none."""
    system = build_system(baseline_config())
    assert system.iommu.region_tlb is None
    tlbs = [cu.l1_tlb for cu in system.gpu.cus] + [
        system.gpu.l2_tlb, system.iommu.l1_tlb, system.iommu.l2_tlb,
    ]
    caches = system.memory.l1_caches + [system.memory.l2_cache]
    for tlb in tlbs:
        tlb.insert(7, 70)
    for cache in caches:
        cache.fill(7)
    sets = [entries for owner in tlbs + caches for entries in owner._sets]
    assert len(sets) == 4425
    assert not any(gc.is_tracked(entries) for entries in sets)

    region_tlb = build_system(baseline_config("mosaic")).iommu.region_tlb
    region_tlb.insert(7, True)
    assert len(region_tlb._sets) == 1
    assert not gc.is_tracked(region_tlb._sets[0])
