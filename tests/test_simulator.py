"""Unit tests for the simulation kernel."""

import pytest

from repro.engine.simulator import Simulator


def logging_sim():
    """A simulator whose ``"log"`` kind appends ``(tag, now)`` to the
    returned list, and whose ``"noop"`` kind does nothing."""
    sim = Simulator()
    fired = []
    sim.register("log", lambda tag: fired.append((tag, sim.now)))
    sim.register("noop", lambda: None)
    return sim, fired


def test_clock_starts_at_zero():
    assert Simulator().now == 0


def test_after_schedules_relative():
    sim, fired = logging_sim()
    sim.post(10, "log", "a")
    sim.run()
    assert fired == [("a", 10)]
    assert sim.now == 10


def test_at_schedules_absolute():
    sim, fired = logging_sim()
    sim.post_at(25, "log", "a")
    sim.at(30, ("log", "b"))
    sim.run()
    assert fired == [("a", 25), ("b", 30)]


def test_scheduling_in_the_past_raises():
    sim, _ = logging_sim()
    sim.post(10, "noop")
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, ("noop",))
    with pytest.raises(ValueError):
        sim.post_at(5, "noop")


def test_negative_delay_raises():
    with pytest.raises(ValueError):
        Simulator().post(-1, "noop")


def test_events_cascade():
    sim, fired = logging_sim()

    def first():
        fired.append(("first", sim.now))
        sim.post(5, "log", "second")

    sim.register("first", first)
    sim.post(3, "first")
    sim.run()
    assert fired == [("first", 3), ("second", 8)]


def test_run_until_stops_before_later_events():
    sim, fired = logging_sim()
    sim.post(10, "log", "a")
    sim.post(100, "log", "b")
    sim.run(until=50)
    assert fired == [("a", 10)]
    assert sim.now == 50
    assert sim.pending_events == 1
    sim.run()
    assert [tag for tag, _ in fired] == ["a", "b"]


def test_run_max_events_limits_work():
    sim, fired = logging_sim()
    for i in range(5):
        sim.post(i + 1, "log", i)
    sim.run(max_events=2)
    assert [tag for tag, _ in fired] == [0, 1]


def test_step_fires_one_event():
    sim, fired = logging_sim()
    sim.post(1, "log", "x")
    assert sim.step() is True
    assert fired == [("x", 1)]
    assert sim.step() is False


def test_events_processed_counter():
    sim, _ = logging_sim()
    for i in range(4):
        sim.post(i, "noop")
    sim.run()
    assert sim.events_processed == 4


def test_same_cycle_events_fifo_order():
    sim, fired = logging_sim()
    for tag in (1, 2, 3):
        sim.post(5, "log", tag)
    sim.run()
    assert [tag for tag, _ in fired] == [1, 2, 3]


def test_until_and_max_events_whichever_first():
    # max_events binds first: only 2 of the 4 events inside the window fire.
    sim, fired = logging_sim()
    for i in range(4):
        sim.post(i + 1, "log", i)
    sim.run(until=10, max_events=2)
    assert [tag for tag, _ in fired] == [0, 1]
    assert sim.now == 2
    assert sim.pending_events == 2
    # until binds first on the remainder: the clock lands on the cutoff.
    sim.run(until=3, max_events=100)
    assert [tag for tag, _ in fired] == [0, 1, 2]
    assert sim.now == 3
    assert sim.pending_events == 1


def test_run_until_never_moves_the_clock_backwards():
    sim, fired = logging_sim()
    sim.post(10, "log", 10)
    sim.post(20, "log", 20)
    sim.run(until=15)
    assert (fired, sim.now) == ([(10, 10)], 15)
    with pytest.raises(ValueError):
        sim.run(until=5)
    assert sim.now == 15
    with pytest.raises(ValueError):
        sim.at(7, ("noop",))
    assert sim.run(until=15) == 15  # the current time itself is legal
    sim.run()
    assert [tag for tag, _ in fired] == [10, 20]


def test_clock_stays_at_last_event_when_drained_before_until():
    # Deliberate semantics: a queue that empties before `until` leaves
    # the clock at the last fired event, not at the horizon — a deadlock
    # diagnosis needs the cycle work stopped, not the max_cycles bound.
    sim, _ = logging_sim()
    sim.post(7, "noop")
    assert sim.run(until=1_000_000) == 7
    assert sim.now == 7
    assert sim.pending_events == 0


def test_step_on_empty_queue_is_inert():
    sim, _ = logging_sim()
    assert sim.step() is False
    assert sim.now == 0
    assert sim.events_processed == 0
    sim.post(3, "noop")
    sim.run()
    assert sim.step() is False
    assert sim.now == 3
    assert sim.events_processed == 1


def test_reentrant_callback_scheduling_at_now_fires_same_run():
    sim, fired = logging_sim()

    def outer():
        fired.append(("outer", sim.now))
        sim.post(0, "log", "inner")

    sim.register("outer", outer)
    sim.post(5, "outer")
    sim.run()
    assert fired == [("outer", 5), ("inner", 5)]
    assert sim.now == 5
    assert sim.events_processed == 2


def test_monitor_fires_every_interval():
    sim, _ = logging_sim()
    ticks = []
    for i in range(10):
        sim.post(i, "noop")
    sim.add_monitor(lambda: ticks.append(sim.events_processed), interval_events=3)
    sim.run()
    # Fires after the 3rd, 6th and 9th events (counter snapshots taken
    # mid-run read the pre-run total).
    assert len(ticks) == 3


def test_monitor_exception_aborts_run_with_consistent_counts():
    sim, _ = logging_sim()
    for i in range(10):
        sim.post(i, "noop")

    def tripwire():
        raise RuntimeError("tripped")

    sim.add_monitor(tripwire, interval_events=4)
    with pytest.raises(RuntimeError, match="tripped"):
        sim.run()
    assert sim.events_processed == 4
    assert sim.pending_events == 6


def test_monitor_invalid_interval_rejected():
    with pytest.raises(ValueError):
        Simulator().add_monitor(lambda: None, interval_events=0)


# ----------------------------------------------------------------------
# Batch dispatch
# ----------------------------------------------------------------------


class _ToySystem:
    """Records every handler invocation: (kind, payload, now, batched)."""

    def __init__(self, sim, batched_kinds=()):
        self.sim = sim
        self.log = []
        for kind in ("tick", "tock"):
            sim.register(kind, self._make_scalar(kind))
        for kind in batched_kinds:
            sim.register_batch(kind, self._make_batch(kind))

    def _make_scalar(self, kind):
        def handler(*payload):
            self.log.append((kind, payload, self.sim.now))
        return handler

    def _make_batch(self, kind):
        def handler(payloads):
            for payload in payloads:
                self.log.append((kind, payload, self.sim.now))
        return handler

    def post_script(self, rng_seed=0, events=200):
        import random
        rng = random.Random(rng_seed)
        for i in range(events):
            self.sim.post(
                rng.choice((0, 0, 0, 1, 2)), rng.choice(("tick", "tock")), i
            )


def test_batch_dispatch_equivalent_to_scalar():
    scalar_sim, batch_sim = Simulator(), Simulator()
    scalar = _ToySystem(scalar_sim)
    batched = _ToySystem(batch_sim, batched_kinds=("tick", "tock"))
    scalar.post_script()
    batched.post_script()
    scalar_sim.run()
    batch_sim.run()
    assert batched.log == scalar.log
    assert batch_sim.events_processed == scalar_sim.events_processed


def test_monitor_cadence_identical_under_batching():
    def fire_points(mode):
        sim = Simulator()
        system = _ToySystem(
            sim, batched_kinds=("tick", "tock") if mode == "batched" else ()
        )
        ticks = []
        sim.add_monitor(lambda: ticks.append(sim.events_processed), 7)
        system.post_script(rng_seed=3, events=100)
        if mode == "stepped":
            while sim.step():
                pass
        else:
            sim.run()
        return ticks

    scalar_points = fire_points("scalar")
    assert scalar_points  # the monitor did fire
    assert fire_points("batched") == scalar_points
    assert fire_points("stepped") == scalar_points


def test_register_batch_requires_scalar_handler_first():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.register_batch("unregistered", lambda payloads: None)


def test_max_events_respected_mid_batch():
    sim = Simulator()
    seen = []
    sim.register("k", lambda *p: seen.append(p))
    sim.register_batch("k", lambda ps: seen.extend(ps))
    for i in range(10):
        sim.post(1, "k", i)
    sim.run(max_events=4)
    assert seen == [(0,), (1,), (2,), (3,)]
    assert sim.pending_events == 6
    sim.run()
    assert len(seen) == 10


def test_dispatch_counts_toward_events_processed():
    sim = Simulator()
    hits = []
    sim.register("done", lambda *p: hits.append(p))
    sim.dispatch(("done", 42))
    assert hits == [(42,)]
    assert sim.events_processed == 1
    sim.dispatch(("done",))
    assert hits == [(42,), ()]
    assert sim.events_processed == 2


def test_dispatch_ticks_monitor_countdowns():
    sim = Simulator()
    sim.register("done", lambda: None)
    ticks = []
    sim.add_monitor(lambda: ticks.append(sim.events_processed), 3)
    # Two synchronous dispatches + one queued event reach the interval:
    # the monitor fires at the queued event's boundary, not mid-handler.
    sim.dispatch(("done",))
    sim.dispatch(("done",))
    assert ticks == []
    sim.post(1, "done")
    sim.run()
    assert ticks == [3]


# ----------------------------------------------------------------------
# Monitor cadence against a per-event countdown twin
# ----------------------------------------------------------------------


class _Dispatcher:
    """Handlers for the cadence test (a class, so the simulator pickles
    with them): each ``step`` event dispatches ``n`` completions
    synchronously and records ``n``."""

    def __init__(self, sim):
        self.sim = sim
        self.steps = []
        sim.register("step", self.step)
        sim.register("noop", self.noop)

    def step(self, n):
        self.steps.append(n)
        for _ in range(n):
            self.sim.dispatch(("noop",))

    def noop(self):
        pass


def _countdown_twin(steps, intervals):
    """Monitor firing points, ``(monitor, events_processed)``, computed
    the naive way: every fired event, queued or dispatched, ticks every
    countdown, and at each queued event's boundary the expired ones
    fire in order and restart."""
    countdowns = list(intervals)
    count = 0
    fired = []
    for dispatched in steps:
        for _ in range(dispatched + 1):  # the dispatches, then the event
            count += 1
            countdowns = [c - 1 for c in countdowns]
        for i, interval in enumerate(intervals):
            if countdowns[i] <= 0:
                countdowns[i] = interval
                fired.append((i, count))
    return fired


@pytest.mark.parametrize("seed", range(5))
def test_monitor_firing_points_match_the_countdown_twin(seed):
    import pickle
    import random

    rng = random.Random(seed)
    intervals = (1, 4, 9)
    sim = Simulator()
    _Dispatcher(sim)
    for _ in range(300):
        sim.post(rng.choice((0, 0, 1, 2, 5)), "step",
                 rng.choice((0, 0, 0, 1, 2, 3)))
    fired = []

    def attach(sim):
        for i, interval in enumerate(intervals):
            sim.add_monitor(
                lambda i=i: fired.append((i, sim.events_processed)),
                interval,
            )

    attach(sim)
    sim.run(max_events=rng.randrange(1, 300))
    # The monitors' closures stay behind; the resumed copy takes their
    # saved countdowns in attachment order.
    sim = pickle.loads(pickle.dumps(sim))
    attach(sim)
    sim.run()
    steps = sim._handlers["step"].__self__.steps
    assert len(steps) == 300
    assert fired == _countdown_twin(steps, intervals)
    assert sim.events_processed == 300 + sum(steps)
