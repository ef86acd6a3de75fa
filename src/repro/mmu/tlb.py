"""A generic set-associative TLB with true-LRU replacement.

Used for all four TLB levels in the system: the per-CU GPU L1 TLBs
(fully associative), the GPU shared L2 TLB (16-way), and the IOMMU's two
TLB levels.  Fully-associative TLBs are the single-set special case.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.config import TLBConfig


class TLB:
    """Caches ``vpn -> pfn`` translations.

    Each set is a plain dict in insertion order, least- to most-recently
    used: a hit pops its key and re-inserts it, an eviction deletes the
    first key.  That is O(1) lookup, insertion and LRU eviction, and a
    dict of ints is never tracked by the cyclic garbage collector.
    """

    def __init__(
        self, config: TLBConfig, name: str = "tlb", tracer=None, clock=None
    ) -> None:
        self.config = config
        self.name = name
        self._num_sets = config.num_sets
        self._ways = config.entries // self._num_sets
        self._sets: List[Dict[int, int]] = [{} for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        #: Optional :class:`~repro.obs.trace.Tracer` recording lookups,
        #: stamped with the simulator ``clock``'s current cycle.
        self.tracer = tracer
        self._trace_clock = clock

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the cached PFN for ``vpn`` (updating LRU) or None."""
        entries = self._sets[vpn % self._num_sets]
        pfn = entries.pop(vpn, None)
        tracer = self.tracer
        if pfn is None:
            self.misses += 1
            if tracer is not None and tracer.cat_tlb:
                tracer.tlb_lookup(
                    self._trace_clock._now, self.name, vpn, False
                )
            return None
        entries[vpn] = pfn
        self.hits += 1
        if tracer is not None and tracer.cat_tlb:
            tracer.tlb_lookup(self._trace_clock._now, self.name, vpn, True)
        return pfn

    def probe(self, vpn: int) -> bool:
        """True if ``vpn`` is resident, without touching LRU state or stats."""
        return vpn in self._sets[vpn % self._num_sets]

    def insert(self, vpn: int, pfn: int) -> None:
        """Install a translation, evicting the set's LRU entry if full."""
        entries = self._sets[vpn % self._num_sets]
        if vpn in entries:
            del entries[vpn]
        elif len(entries) >= self._ways:
            for victim in entries:  # the first key is the LRU entry
                break
            del entries[victim]
            self.evictions += 1
        entries[vpn] = pfn

    def invalidate(self, vpn: int) -> bool:
        """Drop ``vpn`` if present.  Returns whether an entry was removed."""
        entries = self._sets[vpn % self._num_sets]
        if vpn in entries:
            del entries[vpn]
            return True
        return False

    def flush(self) -> None:
        """Invalidate every entry."""
        for entries in self._sets:
            entries.clear()

    def corrupt(self, rng, count: int) -> int:
        """Invalidate up to ``count`` seeded-random entries (fault injection).

        Models ECC-*detected* corruption: a bad entry is discarded, never
        served, so the translation is simply re-walked.  Victims are
        sampled with ``rng`` over a deterministically-ordered view of the
        resident VPNs, keeping campaigns reproducible.  Returns the
        number of entries actually invalidated.
        """
        resident = sorted(vpn for entries in self._sets for vpn in entries)
        if not resident:
            return 0
        victims = rng.sample(resident, min(count, len(resident)))
        for vpn in victims:
            self.invalidate(vpn)
        return len(victims)

    @property
    def occupancy(self) -> int:
        return sum(len(entries) for entries in self._sets)

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        total = self.accesses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }
