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
tests in ``tests/test_scheduler_equivalence.py``).  The per-entry loop
itself survives only as the executable specification,
:class:`~repro.core.reference.NaiveAgingPolicy`.
"""

from __future__ import annotations

from typing import Optional

from repro.core.buffer import PendingWalkBuffer
from repro.core.request import WalkBufferEntry


class AgingPolicy:
    """Counts dispatches and promotes the oldest entry once it starves."""

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

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def starving(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        """The oldest entry past the threshold, or None.

        Inspects only the arrival frontier (O(1)): bypass-count
        monotonicity guarantees no younger entry can qualify when the
        oldest does not.
        """
        victim = buffer.oldest()
        if victim is None or self._records - victim.arrival_seq < self.threshold:
            return None
        self.promotions += 1
        return victim
