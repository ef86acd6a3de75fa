"""A deterministic binary heap of tagged simulation events.

Events are plain data: ``(time, sequence, kind, payload)``.  ``kind`` is
a string naming a handler registered on the simulator and ``payload`` is
a tuple of arguments for it.  Keeping events as data (instead of bound
closures) is what makes the queue serialisable: a pickled queue keeps
its pending events and insertion sequence, so a resumed run pops the
identical event order.

Ties at the same timestamp break by insertion order (the monotonically
increasing sequence number).  ``(time, sequence)`` is unique, so the
heap never compares kinds or payloads, and event ordering — and
therefore every simulation statistic — is reproducible.

The queue also tracks the *floor* — the timestamp of the event most
recently popped.  Pushing below the floor would schedule into the past,
so :meth:`push` rejects it; this also subsumes a non-negative-time
check.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import List, Tuple

#: One scheduled event: ``(time, sequence, kind, payload)``.
Event = Tuple[int, int, str, tuple]


class EventQueue:
    """Binary min-heap of :data:`Event`s ordered by (time, sequence)."""

    __slots__ = ("_heap", "_sequence", "_floor")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = 0
        #: Timestamp of the most recently popped event; pushes below
        #: this would schedule into the past.
        self._floor = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def push(self, time: int, kind: str, payload: tuple = ()) -> None:
        """Schedule ``kind`` with ``payload`` at absolute cycle ``time``.

        ``time`` must be an integer cycle count no earlier than the last
        popped timestamp; fractional or past timestamps would break the
        determinism guarantees of the engine.
        """
        if time < self._floor:
            raise ValueError(
                f"cannot schedule event at {time}: events up to "
                f"{self._floor} have already fired"
            )
        heappush(self._heap, (time, self._sequence, kind, payload))
        self._sequence += 1

    def pop(self) -> Event:
        """Remove and return the earliest event."""
        event = heappop(self._heap)
        self._floor = event[0]
        return event

    def pop_bucket(self) -> Tuple[int, List[Tuple[int, str, tuple]]]:
        """Remove and return ``(time, [(sequence, kind, payload), ...])``
        for every event pending at the earliest cycle, in pop order."""
        heap = self._heap
        time = heap[0][0]
        events = []
        while heap and heap[0][0] == time:
            _, sequence, kind, payload = heappop(heap)
            events.append((sequence, kind, payload))
        self._floor = time
        return time, events

    def peek_time(self) -> int:
        """Timestamp of the earliest pending event.

        Raises :class:`IndexError` when the queue is empty.
        """
        return self._heap[0][0]
