"""A set-associative cache model with true-LRU replacement.

Models only what the translation study needs — hit/miss behaviour and
occupancy — not coherence or dirty write-back traffic.  Used for the
per-CU L1 data caches and the GPU-shared L2 data cache.
"""

from __future__ import annotations

from typing import Dict, List

from repro.config import CacheConfig


class SetAssociativeCache:
    """Caches 64-byte lines addressed by physical line number.

    Each set is a plain dict of lines in insertion order, least- to
    most-recently used, kept the way :class:`~repro.mmu.tlb.TLB` keeps
    its sets.
    """

    def __init__(self, config: CacheConfig, name: str = "cache") -> None:
        self.config = config
        self.name = name
        self._num_sets = config.num_sets
        self._ways = config.associativity
        self._sets: List[Dict[int, None]] = [{} for _ in range(self._num_sets)]
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def access(self, line: int) -> bool:
        """Look up a line; returns True on hit.  Misses do NOT auto-fill."""
        entries = self._sets[line % self._num_sets]
        if line in entries:
            del entries[line]
            entries[line] = None
            self.hits += 1
            return True
        self.misses += 1
        return False

    def fill(self, line: int) -> None:
        """Install a line fetched from the next level."""
        entries = self._sets[line % self._num_sets]
        if line in entries:
            del entries[line]
        elif len(entries) >= self._ways:
            for victim in entries:  # the first key is the LRU line
                break
            del entries[victim]
            self.evictions += 1
        entries[line] = None

    def contains(self, line: int) -> bool:
        """Presence check without LRU/stat side effects."""
        return line in self._sets[line % self._num_sets]

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
