"""Unit tests for the page walk caches and their 2-bit counters."""

from repro.config import PWCConfig
from repro.mmu.pwc import PageWalkCache


def make_pwc(entries=8, ways=4, guard=True):
    return PageWalkCache(
        PWCConfig(entries_per_level=entries, associativity=ways, counter_guard=guard)
    )


class TestWalkEstimates:
    def test_cold_pwc_needs_full_walk(self):
        pwc = make_pwc()
        assert pwc.peek_accesses(0x12345) == 4

    def test_fill_reduces_to_one_access(self):
        pwc = make_pwc()
        pwc.fill(0x12345)
        assert pwc.peek_accesses(0x12345) == 1

    def test_same_2mb_region_shares_level2_entry(self):
        pwc = make_pwc()
        pwc.fill(0x200)  # fills prefixes for the region
        assert pwc.peek_accesses(0x201) == 1  # same level-2 region

    def test_same_1gb_region_hits_level3(self):
        pwc = make_pwc()
        pwc.fill(0)
        # Same level-3 prefix (bits ≥18 equal), different level-2 region.
        other = 1 << 9
        assert pwc.peek_accesses(other) == 2

    def test_same_512gb_region_hits_level4(self):
        pwc = make_pwc()
        pwc.fill(0)
        other = 1 << 18  # same level-4 index only
        assert pwc.peek_accesses(other) == 3

    def test_unrelated_vpn_still_misses(self):
        pwc = make_pwc()
        pwc.fill(0)
        assert pwc.peek_accesses(1 << 27) == 4

    def test_accesses_for_hit_level_mapping(self):
        pwc = make_pwc()
        assert pwc.accesses_for_hit_level(0) == 4
        assert pwc.accesses_for_hit_level(4) == 3
        assert pwc.accesses_for_hit_level(3) == 2
        assert pwc.accesses_for_hit_level(2) == 1


class TestEstimateVsWalkLookups:
    def test_estimate_matches_peek(self):
        pwc = make_pwc()
        pwc.fill(0x400)
        assert pwc.score(0x400)[0] == pwc.peek_accesses(0x400)

    def test_walk_lookup_matches_estimate_when_unchanged(self):
        pwc = make_pwc()
        pwc.fill(0x400)
        estimate = pwc.score(0x400)[0]
        assert pwc.walk_lookup(0x400) == estimate


class TestCounterGuard:
    def test_scored_entry_survives_replacement_pressure(self):
        # One set (ways == entries): fill with A, score it (pins), then
        # insert enough new entries to evict everything unpinned.
        # Regions differ at every page-table level (bit 27 stride).
        pwc = make_pwc(entries=2, ways=2, guard=True)
        a, b, c = 1 << 27, 2 << 27, 3 << 27
        pwc.fill(a)
        pwc.score(a)  # pin A's entries
        # These fills target other tags and must victimise the unpinned.
        pwc.fill(b)
        pwc.fill(c)
        assert pwc.peek_accesses(a) == 1  # A still cached

    def test_unpinning_after_walk_lookup_allows_eviction(self):
        pwc = make_pwc(entries=2, ways=2, guard=True)
        vpn_a = 1 << 27
        pwc.fill(vpn_a)
        _, pinned = pwc.score(vpn_a)  # pin
        pwc.walk_lookup(vpn_a, pinned)  # unpin (2-b)
        pwc.fill(2 << 27)
        pwc.fill(3 << 27)
        assert pwc.peek_accesses(vpn_a) == 4  # evicted normally

    def test_unscored_walk_leaves_pins_alone(self):
        # A prefetch or non-scoring scheduler walks without a score
        # record: walk_lookup must not decrement anyone's counters.
        pwc = make_pwc(entries=2, ways=2, guard=True)
        vpn_a = 1 << 27
        pwc.fill(vpn_a)
        pwc.score(vpn_a)  # pin
        pwc.walk_lookup(vpn_a)  # unscored walk: no pinned_levels
        pwc.fill(2 << 27)
        pwc.fill(3 << 27)
        assert pwc.peek_accesses(vpn_a) == 1  # pin intact, A survives

    def test_pin_drift_between_score_and_walk(self):
        # Regression: walk_lookup must unpin the levels recorded when
        # the walk was *scored*, not the levels it hits at walk time.
        # The hit depth can change in between (here a fill deepens it);
        # unpinning by walk-time depth would strip pins that belong to
        # a still-pending request.
        pwc = make_pwc(entries=2, ways=2, guard=True)
        base, sibling = 0, 1 << 18  # same level-4 prefix, new level-3/2
        pwc.fill(base)
        accesses, pinned = pwc.score(sibling)
        assert accesses == 3
        assert pinned == (4,)  # only the level-4 entry was hit
        pwc.fill(sibling)  # depth changes: levels 2..4 now cached
        _, pinned_b = pwc.score(sibling)  # a second request pins 2,3,4
        assert pinned_b == (2, 3, 4)
        pwc.walk_lookup(sibling, pinned)  # first walk unpins level 4 only
        counters = {}
        for level in (2, 3, 4):
            tag = pwc.geometry.vpn_prefix(sibling, level)
            cache = pwc._levels[level]
            counters[level] = cache._sets[tag % cache._num_sets][tag].counter
        assert counters == {2: 1, 3: 1, 4: 1}  # request B's pins intact

    def test_no_guard_evicts_pinned(self):
        pwc = make_pwc(entries=2, ways=2, guard=False)
        vpn_a = 1 << 27
        pwc.fill(vpn_a)
        pwc.score(vpn_a)
        pwc.fill(2 << 27)
        pwc.fill(3 << 27)
        assert pwc.peek_accesses(vpn_a) == 4

    def test_fully_pinned_set_falls_back_to_lru(self):
        pwc = make_pwc(entries=2, ways=2, guard=True)
        a, b, c = 1 << 27, 2 << 27, 3 << 27
        pwc.fill(a)
        pwc.fill(b)
        pwc.score(a)
        pwc.score(b)
        pwc.fill(c)  # every entry pinned: plain LRU must still evict
        stats = pwc.stats()
        assert any(
            level["guarded_evictions_avoided"] > 0 for level in stats.values()
        )

    def test_counters_saturate(self):
        pwc = make_pwc(entries=2, ways=2, guard=True)
        vpn = 1 << 27
        pwc.fill(vpn)
        pins = [pwc.score(vpn)[1] for _ in range(10)]  # saturates at 3
        for pinned in pins:  # decrements floor at 0
            pwc.walk_lookup(vpn, pinned)
        # After the flurry the entry must be evictable again.
        pwc.fill(2 << 27)
        pwc.fill(3 << 27)
        assert pwc.peek_accesses(vpn) == 4


class TestStats:
    def test_stats_shape(self):
        pwc = make_pwc()
        pwc.score(123)
        stats = pwc.stats()
        assert set(stats) == {"level4", "level3", "level2"}
        for level in stats.values():
            assert {"hits", "misses", "guarded_evictions_avoided"} <= set(level)
