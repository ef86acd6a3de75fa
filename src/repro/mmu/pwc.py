"""Page walk caches (PWCs) with the paper's 2-bit saturating counters.

The IOMMU keeps one small cache per *upper* page-table level (levels 4,
3 and 2 of the four-level table; level 1 holds the leaf PTEs which are
what TLBs cache).  A PWC entry at level *n* caches the physical address
of the level-(n-1) table, letting the walker skip the accesses above it:

===========================  =================================
Deepest PWC hit              Memory accesses left for the walk
===========================  =================================
level 2 (PD entry cached)    1  (leaf PTE only)
level 3 (PDPT entry cached)  2
level 4 (PML4 entry cached)  3
complete miss                4
===========================  =================================

Section IV of the paper adds a 2-bit saturating counter to every PWC
entry.  When a newly-arrived walk request is *scored* against the PWC
(action 1-a), the counters of the entries it hit are incremented; when a
*scheduled* walk later hits those entries (action 2-b), they are
decremented.  A non-zero counter therefore means "some pending request
was promised this entry" and the replacement policy refuses to victimise
such entries unless the whole set is pinned.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.config import BITS_PER_LEVEL, PAGE_TABLE_LEVELS, PWCConfig
from repro.mmu.geometry import BASE_4K, PageGeometry


class _Entry:
    __slots__ = ("counter",)

    def __init__(self) -> None:
        self.counter = 0


class _LevelCache:
    """One per-level set-associative cache with counter-guarded LRU.

    Each set is a plain dict in LRU order (oldest first), kept the way
    :class:`~repro.mmu.tlb.TLB` keeps its sets.
    """

    def __init__(self, config: PWCConfig) -> None:
        self._ways = config.associativity
        self._num_sets = config.entries_per_level // config.associativity
        self._sets: List[Dict[int, _Entry]] = [{} for _ in range(self._num_sets)]
        self._counter_max = (1 << config.counter_bits) - 1
        self._guard = config.counter_guard
        self.hits = 0
        self.misses = 0
        self.guarded_evictions_avoided = 0

    def _evict(self, entries: Dict[int, _Entry]) -> None:
        if self._guard:
            # Victimise the LRU entry whose counter is zero; fall back to
            # plain LRU when every entry in the set is pinned (paper §IV).
            for tag, entry in entries.items():
                if entry.counter == 0:
                    del entries[tag]
                    return
            self.guarded_evictions_avoided += 1
        for tag in entries:  # the first key is the LRU entry
            break
        del entries[tag]


class PageWalkCache:
    """The bundle of per-level page walk caches.

    One cache per level of ``geometry.pwc_levels``: levels 4, 3 and 2
    under 4 KB pages, and only 4 and 3 under 2 MB pages, whose level 2
    holds the leaves.
    """

    def __init__(
        self,
        config: PWCConfig,
        geometry: PageGeometry = BASE_4K,
        tracer=None,
        clock=None,
    ) -> None:
        self.config = config
        self.geometry = geometry
        self._cached_levels = geometry.pwc_levels
        self._levels: Dict[int, _LevelCache] = {
            level: _LevelCache(config) for level in self._cached_levels
        }
        # Hot-path precomputation: ``vpn_prefix(vpn, level)`` is a plain
        # shift once the level is known to be in range, and probe order
        # (deepest first) never changes.
        leaf = geometry.leaf_level
        self._probe_order: Tuple[Tuple[int, _LevelCache, int], ...] = tuple(
            (level, self._levels[level], BITS_PER_LEVEL * (level - leaf))
            for level in reversed(self._cached_levels)
        )
        #: hit level (0 for a miss) -> the levels a score there pins:
        #: that level and every level above it.
        self._pins: Dict[int, Tuple[int, ...]] = {
            level: tuple(range(level, PAGE_TABLE_LEVELS + 1)) if level else ()
            for level in (0,) + self._cached_levels
        }
        #: hit level (0 for a miss) -> memory accesses the walk needs.
        self._accesses_after = {
            level: self.accesses_for_hit_level(level)
            for level in (0,) + self._cached_levels
        }
        #: Optional :class:`~repro.obs.trace.Tracer` recording probes,
        #: stamped with the simulator ``clock``'s current cycle.
        self.tracer = tracer
        self._trace_clock = clock

    def accesses_for_hit_level(self, level: int) -> int:
        """Memory accesses a walk needs given the deepest PWC hit level."""
        if level == 0:
            return self.geometry.walk_levels
        return level - self.geometry.leaf_level

    def score(self, vpn: int) -> Tuple[int, Tuple[int, ...]]:
        """Score probe (action 1-a): estimate accesses and pin hit entries.

        Probes each level once, deepest first: the deepest hit sets the
        estimate, and the 2-bit counters of the entries at and above it
        (the entries the estimate relies on) are incremented.  Returns
        ``(accesses, pinned_levels)``.  The caller must record
        ``pinned_levels`` on the pending walk so :meth:`walk_lookup` can
        unpin exactly those levels — unpinning by the hit depth *at walk
        time* drifts whenever fills or evictions change the depth between
        scoring and walking (pins leak until saturation, or unrelated
        entries lose their guard).
        """
        level = 0
        for probed, cache, shift in self._probe_order:
            tag = vpn >> shift
            entry = cache._sets[tag % cache._num_sets].get(tag)
            if entry is None:
                if not level:
                    cache.misses += 1
                continue
            if not level:
                level = probed
                cache.hits += 1
            if entry.counter < cache._counter_max:
                entry.counter += 1
        accesses = self._accesses_after[level]
        tracer = self.tracer
        if tracer is not None and tracer.cat_pwc:
            tracer.pwc_probe(
                self._trace_clock._now, "score", vpn, level, accesses
            )
        return accesses, self._pins[level]

    def peek_accesses(self, vpn: int) -> int:
        """Estimate accesses without touching counters or stats."""
        for level, cache, shift in self._probe_order:
            tag = vpn >> shift
            if tag in cache._sets[tag % cache._num_sets]:
                return self._accesses_after[level]
        return self._accesses_after[0]

    def walk_lookup(self, vpn: int, pinned_levels: Tuple[int, ...] = ()) -> int:
        """Walker lookup (action 2-b): returns accesses needed; unpins entries.

        Probes each level once, deepest first.  Every entry the walk
        hits becomes its set's most recently used, and the counters of
        the levels pinned when this walk was scored (``pinned_levels``,
        as returned by :meth:`score`) are decremented; levels below the
        deepest hit hold no entry for ``vpn``.  A walk that was never
        scored (non-scoring scheduler, prefetch) passes the default
        empty tuple and unpins nothing.
        """
        level = 0
        for probed, cache, shift in self._probe_order:
            tag = vpn >> shift
            entries = cache._sets[tag % cache._num_sets]
            entry = entries.pop(tag, None)
            if entry is None:
                if not level:
                    cache.misses += 1
                continue
            entries[tag] = entry
            if not level:
                level = probed
                cache.hits += 1
            if entry.counter and probed in pinned_levels:
                entry.counter -= 1
        accesses = self._accesses_after[level]
        tracer = self.tracer
        if tracer is not None and tracer.cat_pwc:
            tracer.pwc_probe(
                self._trace_clock._now, "walk", vpn, level, accesses
            )
        return accesses

    def fill(self, vpn: int) -> None:
        """Install the upper-level entries discovered by a completed walk."""
        for _, cache, shift in self._probe_order:
            tag = vpn >> shift
            entries = cache._sets[tag % cache._num_sets]
            if tag in entries:
                entries[tag] = entries.pop(tag)
                continue
            if len(entries) >= cache._ways:
                cache._evict(entries)
            entries[tag] = _Entry()

    def flush(self) -> int:
        """Invalidate every cached entry at every level (fault injection).

        Counter pins vanish with their entries — pending requests scored
        against flushed entries simply re-walk from the root, which is
        the safe, conservative outcome.  Returns entries discarded.
        """
        discarded = 0
        for cache in self._levels.values():
            for entries in cache._sets:
                discarded += len(entries)
                entries.clear()
        return discarded

    @property
    def occupancy(self) -> int:
        return sum(
            len(entries) for cache in self._levels.values() for entries in cache._sets
        )

    def stats(self) -> Dict[str, Dict[str, int]]:
        return {
            f"level{level}": {
                "hits": cache.hits,
                "misses": cache.misses,
                "guarded_evictions_avoided": cache.guarded_evictions_avoided,
            }
            for level, cache in self._levels.items()
        }
