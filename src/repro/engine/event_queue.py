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

:class:`~repro.engine.simulator.Simulator` pushes onto and pops from
``_heap`` itself, one event at a time, and guards the clock: nothing is
scheduled before the current cycle.
"""

from __future__ import annotations

from heapq import heappop
from typing import List, Tuple

#: One scheduled event: ``(time, sequence, kind, payload)``.
Event = Tuple[int, int, str, tuple]


class EventQueue:
    """Binary min-heap of :data:`Event`s ordered by (time, sequence)."""

    __slots__ = ("_heap", "_sequence")

    def __init__(self) -> None:
        self._heap: List[Event] = []
        self._sequence = 0

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    def pop_bucket(self) -> Tuple[int, List[Tuple[int, str, tuple]]]:
        """Remove and return ``(time, [(sequence, kind, payload), ...])``
        for every event pending at the earliest cycle, in pop order.

        No simulation calls this; it stays for callers written against
        it (perfbench wraps it)."""
        heap = self._heap
        time = heap[0][0]
        events = []
        while heap and heap[0][0] == time:
            _, sequence, kind, payload = heappop(heap)
            events.append((sequence, kind, payload))
        return time, events
