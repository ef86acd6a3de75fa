"""The simulation kernel: a clock plus a data-driven event loop.

Every hardware model in this package (TLBs, walkers, DRAM banks, compute
units) advances by posting *tagged events* — ``(kind, payload)`` pairs —
on a shared :class:`Simulator`.  Components :meth:`register` a handler
per kind once at construction; the event loop then pops the earliest
``(time, sequence, kind, payload)`` and calls ``handlers[kind](*payload)``,
one event at a time.  Because events are plain data and handlers are
bound methods, a mid-run simulator pickles together with the system it
drives, and the unpickled copy replays bit-identically.

An event is scheduled by :meth:`post` (relative) or :meth:`post_at`
(absolute); a component that hands a completion target to another
stores it as a ``(kind, *payload)`` tuple, which :meth:`at` schedules
and :meth:`dispatch` fires at once.  A component that fixes an event's
place in the order before it knows whether to schedule it takes a
sequence number with :meth:`reserve` and schedules the target at that
``(time, sequence)`` later with :meth:`at_reserved`.  There is no other
event shape.

Monitors (watchdog, metrics sampler, periodic checkpoints) count fired
events and run at event boundaries, after the handler that brought them
due.  Each monitor stores the event count at which it next fires, so
the loop makes one comparison per event, against the smallest of those
counts.
"""

from __future__ import annotations

import gc
import sys
from functools import partial
from heapq import heappop, heappush
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.engine.event_queue import EventQueue

#: The next-due event count while no monitor is attached: an integer no
#: run reaches, so the loop's comparison stays integer-to-integer.
_NEVER = sys.maxsize


def _call_batch(handler: Callable[[list], Any], *payload: Any) -> Any:
    """Hand one event's payload to a batch handler as a one-element list
    (a module-level function, so the binding pickles)."""
    return handler([payload])


class Simulator:
    """A discrete-event simulator with an integer cycle clock."""

    def __init__(self) -> None:
        self._queue = EventQueue()
        self._now = 0
        self._events_processed = 0
        #: Installed monitors: mutable ``[callback, interval, due]``
        #: slots, ``due`` being the event count at which the slot next
        #: fires.
        self._monitors: List[list] = []
        #: The smallest ``due`` of any slot (:data:`_NEVER` with none):
        #: the one value the run loop compares each event against.
        self._next_due = _NEVER
        #: ``(interval, countdown)`` of each monitor slot a checkpoint
        #: carried, taken in order by the next :meth:`add_monitor` calls.
        self._cadences: List[Tuple[int, int]] = []
        #: Event dispatch table: kind -> handler(*payload).
        self._handlers: Dict[str, Callable[..., Any]] = {}

    @property
    def now(self) -> int:
        """The current simulation time in cycles."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Total events fired so far, queued and synchronously
        dispatched alike (for progress reporting)."""
        return self._events_processed

    @property
    def pending_events(self) -> int:
        return len(self._queue)

    # ------------------------------------------------------------------
    # Handler registry
    # ------------------------------------------------------------------

    def register(self, kind: str, handler: Callable[..., Any]) -> None:
        """Bind ``handler`` to event ``kind`` (silently replacing any old
        binding — components re-register when a system is rebuilt)."""
        if not kind:
            raise ValueError("event kind must be a non-empty string")
        self._handlers[kind] = handler

    def register_batch(
        self, kind: str, handler: Callable[[list], Any]
    ) -> None:
        """Bind a handler that takes a *list* of payloads to ``kind``.

        The loop fires one event at a time, so ``handler`` receives each
        payload as a one-element list, in (time, sequence) order.  The
        binding replaces the scalar one, which must exist first, and
        pickles whenever ``handler`` does, so a checkpoint can carry it.
        No model component uses this form; it stays for callers written
        against it (perfbench wraps it).
        """
        if not kind:
            raise ValueError("event kind must be a non-empty string")
        if kind not in self._handlers:
            raise ValueError(
                f"register a scalar handler for {kind!r} before its "
                f"batch handler"
            )
        self._handlers[kind] = partial(_call_batch, handler)

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    # The scheduling entry points push onto the queue's heap directly:
    # they run once per event, and a call frame per push is measurable
    # on the hot path.  Nothing may be scheduled before ``now``.

    def post_at(self, time: int, kind: str, *payload: Any) -> None:
        """Schedule event ``kind`` at absolute cycle ``time``.

        Scheduling in the past is an error — it indicates a model bug
        (e.g. a resource reporting completion before it started).
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time}, current time is {self._now}"
            )
        queue = self._queue
        heappush(queue._heap, (time, queue._sequence, kind, payload))
        queue._sequence += 1

    def post(self, delay: int, kind: str, *payload: Any) -> None:
        """Schedule event ``kind`` ``delay`` cycles from now."""
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        queue = self._queue
        heappush(
            queue._heap, (self._now + delay, queue._sequence, kind, payload)
        )
        queue._sequence += 1

    def at(self, time: int, target: tuple) -> None:
        """Schedule a stored completion target, a ``(kind, *payload)``
        event tuple, at absolute cycle ``time``."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time}, current time is {self._now}"
            )
        queue = self._queue
        heappush(queue._heap, (time, queue._sequence, target[0], target[1:]))
        queue._sequence += 1

    def reserve(self) -> int:
        """Take the next sequence number now, for an event that
        :meth:`at_reserved` schedules later.

        The counter advances exactly as a post would advance it, so
        every other event keeps its place in ``(time, sequence)`` order
        whether or not the reserved one is ever scheduled.
        """
        queue = self._queue
        sequence = queue._sequence
        queue._sequence = sequence + 1
        return sequence

    def at_reserved(self, time: int, sequence: int, target: tuple) -> None:
        """Schedule a stored completion target at absolute cycle
        ``time`` with a ``sequence`` number taken by :meth:`reserve`.

        Each reserved number may be scheduled at most once.  The event
        fires where one posted with that number would have fired, so
        its ``(time, sequence)`` must sort after every event already
        fired.  The engine checks the time: one before ``now`` is an
        error, as for :meth:`at`.
        """
        if time < self._now:
            raise ValueError(
                f"cannot schedule event at {time}, current time is {self._now}"
            )
        heappush(self._queue._heap, (time, sequence, target[0], target[1:]))

    def dispatch(self, target: tuple) -> None:
        """Fire a stored completion target immediately (same cycle).

        Takes the same ``(kind, *payload)`` tuple as :meth:`at`; used by
        models that complete a request synchronously instead of through
        the queue.  A dispatched completion is real work, so it counts
        toward :attr:`events_processed`, which brings every monitor's
        due count closer — otherwise watchdog/metrics cadence would
        drift relative to the queued-event stream.  Monitors themselves
        fire only at event *boundaries* in :meth:`run` (firing
        mid-handler could observe — or checkpoint — half-updated
        component state).
        """
        self._handlers[target[0]](*target[1:])
        self._events_processed += 1

    # ------------------------------------------------------------------
    # Monitors
    # ------------------------------------------------------------------

    def add_monitor(
        self, callback: Callable[[], Any], interval_events: int = 10_000
    ) -> None:
        """Attach a periodic monitor, each with its own cadence.

        ``callback`` runs every ``interval_events`` fired events during
        :meth:`run` — the attachment point for watchdogs, invariant
        checkers and samplers.  A monitor may raise to abort the run;
        the clock and event counts stay consistent.  Monitors fire in
        installation order when they fall due on the same event.  On a
        simulator loaded from a checkpoint, the first monitors attached
        take the saved slots' intervals and countdowns, in order, so a
        resumed run keeps the original cadence.
        """
        if interval_events <= 0:
            raise ValueError(
                f"interval_events must be positive, got {interval_events}"
            )
        countdown = interval_events
        if self._cadences:
            interval_events, countdown = self._cadences.pop(0)
        due = self._events_processed + countdown
        self._monitors.append([callback, interval_events, due])
        if due < self._next_due:
            self._next_due = due

    def _fire_monitors(self) -> None:
        """Run every monitor whose due count the event count has
        reached, in installation order.  Each slot is rescheduled
        ``interval`` events on before its callback runs, so a callback
        that raises leaves the cadence consistent."""
        monitors = self._monitors
        for slot in monitors:
            if slot[2] <= self._events_processed:
                slot[2] = self._events_processed + slot[1]
                slot[0]()
        self._next_due = min((slot[2] for slot in monitors), default=_NEVER)

    # ------------------------------------------------------------------
    # Event loop
    # ------------------------------------------------------------------

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> int:
        """Drain the event queue.

        Stops when the queue is empty, when the next event would fire
        after ``until``, or after ``max_events`` events.  Returns the
        final simulation time.  When the queue empties before ``until``
        the clock stays at the last fired event (callers discover
        premature drains by inspecting their own completion state).
        ``until`` before the current time is an error: the clock never
        moves backwards.
        """
        if until is not None and until < self._now:
            raise ValueError(
                f"cannot run until {until}, current time is {self._now}"
            )
        heap = self._queue._heap
        handlers = self._handlers
        limit = float("inf") if max_events is None else max_events
        fired = 0
        # The loop allocates heavily (event tuples, payloads) but creates
        # no reference cycles of its own; pausing the cyclic collector
        # for the drain avoids generation-0 sweeps every ~700 tuples.
        # Reference counting still frees everything promptly; anything
        # cyclic is collected when GC resumes.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    self._now = until
                    break
                if fired >= limit:
                    break
                # An event whose handler raises is consumed but not
                # counted; the events after it stay queued.
                time, _, kind, payload = heappop(heap)
                self._now = time
                handlers[kind](*payload)
                fired += 1
                # Read after the handler: its dispatches count too.
                count = self._events_processed + 1
                self._events_processed = count
                if count >= self._next_due:
                    self._fire_monitors()
        finally:
            if gc_was_enabled:
                gc.enable()
        return self._now

    def step(self) -> bool:
        """Fire a single event through :meth:`run`, monitors included.
        Returns False when the queue is empty."""
        if not self._queue:
            return False
        self.run(max_events=1)
        return True

    def __getstate__(self) -> Dict[str, Any]:
        """Pickle everything but the monitor callbacks, which are code:
        each slot's ``(interval, countdown)`` — events left until it
        fires — is kept for the monitors a resumed run re-attaches (see
        :meth:`add_monitor`)."""
        state = self.__dict__.copy()
        count = self._events_processed
        state["_monitors"] = []
        state["_next_due"] = _NEVER
        state["_cadences"] = [
            (slot[1], slot[2] - count) for slot in self._monitors
        ]
        return state
