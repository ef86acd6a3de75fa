"""Per-instruction work scores (paper §IV, actions 1-a / 1-b).

The score of a SIMD instruction estimates the total number of page-table
memory accesses needed to service *all* of its walk requests: each
request arriving at the IOMMU contributes its PWC-probe estimate (1–4
accesses) to the issuing instruction's running total.  Every buffered
request of an instruction shares the instruction's score; with a 64-wide
wavefront the score ranges 1–256.

Lifetime: a score accumulates from the instruction's first walk request
and is retained until its *last* walk completes.  Retention matters
because an instruction's requests trickle into the IOMMU over many
cycles (one per coalescer-port cycle): if the score were dropped as soon
as the instruction's buffered requests drained, every instruction would
briefly re-appear as a "short job" each time a new request of its
arrived, and shortest-job-first would degenerate into
newest-instruction-first — starving older heavy instructions instead of
ordering by true job length.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Iterable, Optional, Tuple

#: A score-index key: ``(score, oldest_arrival_seq, instruction_id)``.
#: Ordering these tuples reproduces the scheduler's shortest-job-first
#: comparison ``(score_of(entry), entry.arrival_seq)`` exactly, because
#: for a fixed instruction the oldest pending entry has the minimal
#: arrival sequence and arrival sequences are globally unique.
ScoreKey = Tuple[int, int, int]


class ScoreIndex:
    """A lazy min-heap over :data:`ScoreKey` tuples.

    The index trades strict consistency for O(log n) updates: writers
    push a fresh key whenever an instruction's ``(score, oldest_seq)``
    truth changes and never delete the stale ones.  Readers pass a
    validator that checks a key against the current truth; stale keys
    are discarded as they surface at the heap top.  Each pushed key is
    popped at most once, so maintenance stays amortised O(log n) per
    buffer mutation.

    The owner is responsible for bounding staleness via :meth:`rebuild`
    (see ``PendingWalkBuffer``), which keeps heap size proportional to
    the number of live instructions rather than total history.
    """

    __slots__ = ("_heap",)

    def __init__(self) -> None:
        self._heap: list = []

    def __len__(self) -> int:
        return len(self._heap)

    def push(self, score: int, oldest_seq: int, instruction_id: int) -> int:
        """Record a new ``(score, oldest_seq)`` truth for an instruction;
        returns the heap size, stale keys included (see :meth:`rebuild`)."""
        heap = self._heap
        heapq.heappush(heap, (score, oldest_seq, instruction_id))
        return len(heap)

    def peek_valid(
        self, is_current: Callable[[ScoreKey], bool]
    ) -> Optional[ScoreKey]:
        """The smallest key accepted by ``is_current``, or None.

        Discards stale keys from the top; the returned key stays in the
        heap (it is still the current truth for its instruction).
        """
        heap = self._heap
        while heap:
            key = heap[0]
            if is_current(key):
                return key
            heapq.heappop(heap)
        return None

    def rebuild(self, keys: Iterable[ScoreKey]) -> None:
        """Replace the heap with exactly the given current truths."""
        self._heap = list(keys)
        heapq.heapify(self._heap)


class ScoreTable:
    """Tracks the aggregate walk-work score of each SIMD instruction."""

    def __init__(self) -> None:
        self._scores: Dict[int, int] = {}
        self._active: Dict[int, int] = {}

    def add(self, instruction_id: int, estimated_accesses: int) -> int:
        """Account a walk request entering the IOMMU; returns the score.

        ``estimated_accesses`` is the request's PWC-probe estimate
        (action 1-a); it is summed into the instruction's total (1-b).
        """
        if estimated_accesses < 0:
            raise ValueError("estimated accesses must be non-negative")
        self._scores[instruction_id] = (
            self._scores.get(instruction_id, 0) + estimated_accesses
        )
        self._active[instruction_id] = self._active.get(instruction_id, 0) + 1
        return self._scores[instruction_id]

    def complete(self, instruction_id: int) -> None:
        """Account a walk finishing.  Frees the score after the last one."""
        remaining = self._active.get(instruction_id)
        if remaining is None:
            raise KeyError(f"instruction {instruction_id} has no active walks")
        if remaining == 1:
            del self._active[instruction_id]
            del self._scores[instruction_id]
        else:
            self._active[instruction_id] = remaining - 1

    def score_of(self, instruction_id: int) -> int:
        """Current score of an instruction (0 when it has nothing active)."""
        return self._scores.get(instruction_id, 0)

    def active_walks(self, instruction_id: int) -> int:
        """Walks of this instruction currently buffered or in flight."""
        return self._active.get(instruction_id, 0)

    def __len__(self) -> int:
        return len(self._scores)
