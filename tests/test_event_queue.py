"""Unit tests for event ordering, stability and pickling.

Events go in through the simulator's scheduling entry points (``post``,
``post_at``, ``at``) and come out through ``run`` and ``step``: the
heap code under test is the heap code every simulation runs.  Alongside
the unit tests there is a differential fuzz section firing events
against a bare ``heapq`` reference twin — same-cycle ties, interleaved
scheduling and firing, and pickle round trips mid-stream included.
"""

import functools
import pickle
import random
from heapq import heappop, heappush

import pytest

from repro.engine.event_queue import EventQueue
from repro.engine.simulator import Simulator


class _Recorder:
    """Registers ``kinds`` on ``sim`` and logs each fired event as
    ``(time, kind, payload)``.  Its handlers are bound methods, so the
    recorder pickles together with the simulator."""

    def __init__(self, sim, kinds=("a", "b", "c")):
        self.sim = sim
        self.log = []
        for kind in kinds:
            sim.register(kind, functools.partial(self.fire, kind))

    def fire(self, kind, *payload):
        self.log.append((self.sim.now, kind, payload))


def test_empty_queue_is_falsy():
    queue = EventQueue()
    assert not queue
    assert len(queue) == 0


def test_push_pop_single_event():
    sim = Simulator()
    recorder = _Recorder(sim, ("walker.step",))
    sim.post(5, "walker.step", 3)
    sim.run()
    assert recorder.log == [(5, "walker.step", (3,))]


def test_payload_defaults_to_empty_tuple():
    sim = Simulator()
    recorder = _Recorder(sim, ("iommu.kick",))
    sim.post(0, "iommu.kick")
    assert sim._queue._heap == [(0, 0, "iommu.kick", ())]
    sim.run()
    assert recorder.log == [(0, "iommu.kick", ())]


def test_events_pop_in_time_order():
    sim = Simulator()
    recorder = _Recorder(sim, ("late", "early", "middle"))
    sim.post_at(30, "late")
    sim.post(10, "early")
    sim.at(20, ("middle",))
    sim.run()
    assert [time for time, _, _ in recorder.log] == [10, 20, 30]


def test_same_time_events_are_fifo():
    sim = Simulator()
    recorder = _Recorder(sim, ("first", "second", "third"))
    sim.post(7, "first")
    sim.post_at(7, "second")
    sim.at(7, ("third",))
    while sim.step():
        pass
    assert [kind for _, kind, _ in recorder.log] == ["first", "second", "third"]


def test_payloads_never_compared_for_ordering():
    # Payload objects need not be orderable; the (time, seq) prefix is
    # always unique, so the heap must not look past it.
    sim = Simulator()
    recorder = _Recorder(sim, ("a",))
    payloads = [object() for _ in range(3)]
    for payload in payloads:
        sim.post_at(7, "a", payload)
    sim.run()
    assert [payload for _, _, (payload,) in recorder.log] == payloads


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        Simulator().post_at(-1, "x")


def test_len_tracks_pushes_and_pops():
    sim = Simulator()
    _Recorder(sim, ("tick",))
    for i in range(10):
        sim.post_at(i, "tick")
    assert len(sim._queue) == sim.pending_events == 10
    sim.step()
    assert len(sim._queue) == sim.pending_events == 9


def test_snapshot_restore_roundtrip():
    sim = Simulator()
    recorder = _Recorder(sim)
    sim.post_at(10, "a", 1)
    sim.post_at(5, "b", 2)
    sim.step()

    other, log = pickle.loads(pickle.dumps((sim, recorder)))
    assert (other.pending_events, other.now) == (1, 5)
    # Sequence numbering continues from the pickled queue (two posts so
    # far), preserving FIFO order across the round trip: the new event
    # fires after the pending one of the same cycle.
    other.post_at(10, "c")
    assert other._queue._sequence == 3
    other.run()
    assert log.log == [(5, "b", (2,)), (10, "a", (1,)), (10, "c", ())]


def test_push_below_drained_time_raises():
    # Once an event has fired, the clock is the floor: scheduling before
    # it would break pop order, so every entry point rejects it.
    sim = Simulator()
    recorder = _Recorder(sim, ("a", "b", "late", "same-cycle-ok"))
    sim.post_at(10, "a")
    sim.post_at(20, "b")
    sim.step()  # fires the cycle-10 event; the clock is now 10
    with pytest.raises(ValueError):
        sim.post_at(9, "late")
    with pytest.raises(ValueError):
        sim.at(9, ("late",))
    sim.post_at(10, "same-cycle-ok")  # the clock itself stays legal
    sim.step()
    assert recorder.log[-1] == (10, "same-cycle-ok", ())


# ----------------------------------------------------------------------
# Differential fuzz: Simulator vs heapq reference twin
# ----------------------------------------------------------------------


class _HeapTwin:
    """The reference implementation: one bare binary heap."""

    def __init__(self):
        self._heap = []
        self._sequence = 0

    def push(self, time, kind, payload=()):
        heappush(self._heap, (time, self._sequence, kind, payload))
        self._sequence += 1

    def pop(self):
        time, _, kind, payload = heappop(self._heap)
        return time, kind, payload

    def __len__(self):
        return len(self._heap)


def _schedule(rng, sim, twin, delay, kind, payload):
    """Schedule one event through a randomly chosen entry point."""
    time = sim.now + delay
    how = rng.randrange(3)
    if how == 0:
        sim.post(delay, kind, *payload)
    elif how == 1:
        sim.post_at(time, kind, *payload)
    else:
        sim.at(time, (kind, *payload))
    twin.push(time, kind, payload)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_matches_heap_reference(seed):
    """Interleaved scheduling and firing, dense same-cycle ties."""
    rng = random.Random(seed)
    sim, twin = Simulator(), _HeapTwin()
    recorder = _Recorder(sim)
    expected = []
    for step in range(2_000):
        roll = rng.random()
        if twin and roll < 0.35:
            sim.step()
            expected.append(twin.pop())
        elif twin and roll < 0.45:
            count = rng.randrange(1, 6)
            sim.run(max_events=count)
            for _ in range(min(count, len(twin))):
                expected.append(twin.pop())
        elif twin and roll < 0.5:
            until = sim.now + rng.randrange(4)
            sim.run(until=until)
            while twin and twin._heap[0][0] <= until:
                expected.append(twin.pop())
        else:
            # Mostly near-future times with heavy collisions, plus the
            # occasional far-future outlier.
            delay = rng.choice((0, 0, 0, 1, 1, 2, 3, rng.randrange(500)))
            _schedule(rng, sim, twin, delay, rng.choice("abc"), (step,))
        assert recorder.log[-3:] == expected[-3:]
        assert sim.pending_events == len(twin)
    sim.run()
    while twin:
        expected.append(twin.pop())
    assert recorder.log == expected
    assert sim.events_processed == len(expected)


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_snapshot_restore_mid_stream(seed):
    """Pickle round trips at random points must not perturb pop order."""
    rng = random.Random(1_000 + seed)
    sim, twin = Simulator(), _HeapTwin()
    recorder = _Recorder(sim, ("k",))
    expected = []
    for step in range(1_500):
        roll = rng.random()
        if roll < 0.05:
            # Round-trip through pickle into a fresh simulator object.
            sim, recorder = pickle.loads(pickle.dumps((sim, recorder)))
        elif twin and roll < 0.5:
            sim.step()
            expected.append(twin.pop())
        else:
            delay = rng.choice((0, 0, 1, 2, rng.randrange(100)))
            _schedule(rng, sim, twin, delay, "k", (step,))
    sim.run()
    while twin:
        expected.append(twin.pop())
    assert recorder.log == expected


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_pop_bucket_matches_scalar_pops(seed):
    """Draining whole buckets yields the same stream as scalar pops."""
    rng = random.Random(2_000 + seed)
    sim, twin = Simulator(), _HeapTwin()
    for step in range(300):
        time = rng.choice((0, 0, 1, 2, 5)) + rng.randrange(4)
        kind = rng.choice(("x", "y"))
        sim.post_at(time, kind, step)
        twin.push(time, kind, (step,))
    queue = sim._queue
    sequences = []
    while queue:
        time, events = queue.pop_bucket()
        for seq, kind, payload in events:
            assert (time, kind, payload) == twin.pop()
            sequences.append(seq)
    assert sorted(sequences) == list(range(300))
    assert not len(twin)
