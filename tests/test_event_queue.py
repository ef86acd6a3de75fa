"""Unit tests for the event queue: ordering, stability, snapshots.

Alongside the unit tests there is a differential fuzz section popping
the queue against a bare ``heapq`` reference twin — same-cycle ties,
interleaved push/pop, and snapshot/restore mid-stream included.
"""

import random
from heapq import heappop, heappush

import pytest

from repro.engine.event_queue import EventQueue


def test_empty_queue_is_falsy():
    queue = EventQueue()
    assert not queue
    assert len(queue) == 0


def test_push_pop_single_event():
    queue = EventQueue()
    queue.push(5, "walker.step", (3,))
    time, seq, kind, payload = queue.pop()
    assert time == 5
    assert kind == "walker.step"
    assert payload == (3,)


def test_payload_defaults_to_empty_tuple():
    queue = EventQueue()
    queue.push(0, "iommu.kick")
    _time, _seq, kind, payload = queue.pop()
    assert kind == "iommu.kick"
    assert payload == ()


def test_events_pop_in_time_order():
    queue = EventQueue()
    queue.push(30, "late")
    queue.push(10, "early")
    queue.push(20, "middle")
    times = [queue.pop()[0] for _ in range(3)]
    assert times == [10, 20, 30]


def test_same_time_events_are_fifo():
    queue = EventQueue()
    for tag in ("first", "second", "third"):
        queue.push(7, tag)
    kinds = [queue.pop()[2] for _ in range(3)]
    assert kinds == ["first", "second", "third"]


def test_payloads_never_compared_for_ordering():
    # Payload objects need not be orderable; the (time, seq) prefix is
    # always unique, so the heap must not look past it.
    queue = EventQueue()
    queue.push(7, "a", (object(),))
    queue.push(7, "a", (object(),))
    queue.push(7, "a", (object(),))
    assert [queue.pop()[1] for _ in range(3)] == [0, 1, 2]


def test_peek_time_returns_earliest():
    queue = EventQueue()
    queue.push(42, "x")
    queue.push(17, "y")
    assert queue.peek_time() == 17
    assert len(queue) == 2  # peek does not consume


def test_peek_time_on_empty_raises():
    with pytest.raises(IndexError):
        EventQueue().peek_time()


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        EventQueue().push(-1, "x")


def test_len_tracks_pushes_and_pops():
    queue = EventQueue()
    for i in range(10):
        queue.push(i, "tick")
    assert len(queue) == 10
    queue.pop()
    assert len(queue) == 9


def test_snapshot_restore_roundtrip():
    queue = EventQueue()
    queue.push(10, "a", (1,))
    queue.push(5, "b", (2,))
    queue.pop()
    state = queue.snapshot()

    other = EventQueue()
    other.push(99, "noise")
    other.restore(state)
    assert len(other) == 1
    time, _seq, kind, payload = other.pop()
    assert (time, kind, payload) == (10, "a", (1,))

    # Sequence numbering continues from the snapshot, preserving FIFO
    # order across the restore boundary.
    other.push(10, "c")
    assert other.pop()[1] > state["sequence"] - 1


def test_snapshot_is_independent_copy():
    queue = EventQueue()
    queue.push(1, "a")
    state = queue.snapshot()
    queue.pop()
    assert len(state["heap"]) == 1


def test_push_below_drained_time_raises():
    # The floor guard lives in the queue itself (not just the
    # simulator's post_at): once an event has fired, a direct push into
    # the past would break pop order, so it is rejected.
    queue = EventQueue()
    queue.push(10, "a")
    queue.push(20, "b")
    queue.pop()  # fires the cycle-10 event; floor is now 10
    with pytest.raises(ValueError):
        queue.push(9, "late")
    queue.push(10, "same-cycle-ok")  # the floor itself stays legal
    assert queue.pop()[0] == 10


def test_pop_bucket_sets_floor():
    queue = EventQueue()
    queue.push(5, "a")
    queue.push(5, "b")
    queue.pop_bucket()
    with pytest.raises(ValueError):
        queue.push(4, "late")


def test_restore_accepts_legacy_heap_ordered_snapshot():
    # PR-5-era snapshots stored the raw binary heap (heap order, not
    # sorted) and no "floor" key; restore must still reproduce exact
    # (time, seq) pop order from them.
    events = [(3, 0, "a", ()), (1, 1, "b", ()), (2, 2, "c", (9,))]
    heap = []
    for event in events:
        heappush(heap, event)
    state = {"heap": heap, "sequence": 3}

    queue = EventQueue()
    queue.restore(state)
    assert [queue.pop() for _ in range(3)] == sorted(events)


# ----------------------------------------------------------------------
# Differential fuzz: EventQueue vs heapq reference twin
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
        return heappop(self._heap)

    def __len__(self):
        return len(self._heap)


@pytest.mark.parametrize("seed", range(8))
def test_fuzz_matches_heap_reference(seed):
    """Interleaved pushes and pops, dense same-cycle ties."""
    rng = random.Random(seed)
    queue, twin = EventQueue(), _HeapTwin()
    now = 0
    for step in range(2_000):
        if twin and rng.random() < 0.45:
            expected = twin.pop()
            got = queue.pop()
            assert got == expected
            now = expected[0]
        else:
            # Mostly near-future times with heavy collisions, plus the
            # occasional far-future outlier.
            delay = rng.choice((0, 0, 0, 1, 1, 2, 3, rng.randrange(500)))
            kind = rng.choice(("a", "b", "c"))
            payload = (step,)
            queue.push(now + delay, kind, payload)
            twin.push(now + delay, kind, payload)
        assert len(queue) == len(twin)
    while twin:
        assert queue.pop() == twin.pop()
    assert not queue


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_snapshot_restore_mid_stream(seed):
    """Snapshot/restore at random points must not perturb pop order."""
    rng = random.Random(1_000 + seed)
    queue, twin = EventQueue(), _HeapTwin()
    now = 0
    for step in range(1_500):
        roll = rng.random()
        if roll < 0.05:
            # Round-trip through a snapshot into a fresh queue object.
            fresh = EventQueue()
            fresh.restore(queue.snapshot())
            queue = fresh
        elif twin and roll < 0.5:
            expected = twin.pop()
            assert queue.pop() == expected
            now = expected[0]
        else:
            delay = rng.choice((0, 0, 1, 2, rng.randrange(100)))
            queue.push(now + delay, "k", (step,))
            twin.push(now + delay, "k", (step,))
    while twin:
        assert queue.pop() == twin.pop()


@pytest.mark.parametrize("seed", range(4))
def test_fuzz_pop_bucket_matches_scalar_pops(seed):
    """Draining whole buckets yields the same stream as scalar pops."""
    rng = random.Random(2_000 + seed)
    queue, twin = EventQueue(), _HeapTwin()
    for step in range(300):
        time = rng.choice((0, 0, 1, 2, 5)) + rng.randrange(4)
        kind = rng.choice(("x", "y"))
        queue.push(time, kind, (step,))
        twin.push(time, kind, (step,))
    while queue:
        time, events = queue.pop_bucket()
        for seq, kind, payload in events:
            assert (time, seq, kind, payload) == twin.pop()
    assert not len(twin)
