"""Starvation avoidance for score-based walk scheduling (paper §IV).

Any priority scheduler can starve: a stream of low-score instructions
could keep a high-score instruction's walks buffered forever.  The paper
adds an aging scheme — a pending walk that has been bypassed by more than
a threshold number of younger requests is serviced unconditionally.

Implementation note — incremental accounting
--------------------------------------------

The original model walked the whole buffer after every dispatch to bump
per-entry bypass counters (O(n) per select).  Two facts make that loop
unnecessary:

1. *Monotonicity*: among simultaneously buffered entries, bypass counts
   never increase with arrival order — an older entry was present for
   every dispatch that bypassed a younger one.  The set of starving
   entries is therefore always a prefix of arrival order, so "the oldest
   entry past the threshold" is simply *the* oldest entry, when it
   qualifies.
2. *Closed form at the frontier*: every buffered entry leaves the buffer
   through exactly one scheduler dispatch, and arrival sequences are
   allocated densely from zero.  For the oldest buffered entry ``e``,
   all ``e.arrival_seq`` older entries have already been dispatched, so
   the number of dispatches that bypassed ``e`` (younger than ``e``) is
   ``total_recorded_dispatches - e.arrival_seq``.

Together these reduce the whole policy to one counter incremented per
dispatch and one subtraction per starving check — O(1) each, with
decisions bit-identical to the per-entry loop (see the differential
tests in ``tests/test_scheduler_equivalence.py``).

The pre-existing per-entry API (mutating ``entry.bypass_count`` over a
plain iterable) is retained for diagnostics and unit tests; a manually
seeded ``entry.bypass_count`` acts as an offset on top of the derived
count, which keeps hand-built scheduler tests meaningful.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.core.request import WalkBufferEntry


class AgingPolicy:
    """Counts bypasses and promotes starving entries."""

    def __init__(self, threshold: int) -> None:
        if threshold <= 0:
            raise ValueError("aging threshold must be positive")
        self.threshold = threshold
        self.promotions = 0
        #: Scheduler dispatches of buffered entries observed so far.
        self._records = 0

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def record_dispatch(self, dispatched: WalkBufferEntry) -> None:
        """Observe one scheduler dispatch (O(1) incremental path).

        Direct dispatches that bypassed the buffer (``arrival_seq`` -1)
        never bypass anyone and are ignored, matching the original
        accounting.
        """
        if dispatched.arrival_seq >= 0:
            self._records += 1

    def record_bypasses(
        self, entries: Iterable[WalkBufferEntry], dispatched: WalkBufferEntry
    ) -> None:
        """Credit a bypass to every entry older than the dispatched one.

        Legacy API.  For an indexed buffer this degenerates to
        :meth:`record_dispatch`; for a plain iterable (unit tests,
        diagnostics) it performs the original per-entry loop.
        """
        if hasattr(entries, "oldest"):
            self.record_dispatch(dispatched)
            return
        seq = dispatched.arrival_seq
        for entry in entries:
            if entry.arrival_seq < seq:
                entry.bypass_count += 1

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def bypass_count_of(
        self, entry: WalkBufferEntry, buffer: Optional[Iterable[WalkBufferEntry]] = None
    ) -> int:
        """The entry's effective bypass count (diagnostic; O(n)).

        Derived as recorded dispatches of younger entries plus any
        manually seeded ``entry.bypass_count``.  ``buffer`` must be the
        buffer holding the entry; when omitted the entry is assumed to
        be the oldest buffered one.
        """
        older_buffered = 0
        if buffer is not None:
            older_buffered = sum(
                1 for other in buffer if other.arrival_seq < entry.arrival_seq
            )
        older_dispatched = entry.arrival_seq - older_buffered
        derived = self._records - older_dispatched
        return entry.bypass_count + max(0, derived)

    def starving(
        self, entries: Iterable[WalkBufferEntry]
    ) -> Optional[WalkBufferEntry]:
        """The oldest entry past the threshold, or None.

        With an indexed buffer this inspects only the arrival frontier
        (O(1)); bypass-count monotonicity guarantees no younger entry
        can qualify when the oldest does not.
        """
        oldest = getattr(entries, "oldest", None)
        if oldest is not None:
            victim = oldest()
            if victim is None:
                return None
            derived = self._records - victim.arrival_seq
            count = victim.bypass_count + (derived if derived > 0 else 0)
            if count < self.threshold:
                return None
            self.promotions += 1
            return victim
        victim: Optional[WalkBufferEntry] = None
        for entry in entries:
            if entry.bypass_count >= self.threshold:
                if victim is None or entry.arrival_seq < victim.arrival_seq:
                    victim = entry
        if victim is not None:
            self.promotions += 1
        return victim
