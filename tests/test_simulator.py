"""Unit tests for the simulation kernel."""

import pytest

from repro.engine.simulator import Simulator


def test_clock_starts_at_zero():
    assert Simulator().now == 0


def test_after_schedules_relative():
    sim = Simulator()
    fired = []
    sim.after(10, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [10]
    assert sim.now == 10


def test_at_schedules_absolute():
    sim = Simulator()
    fired = []
    sim.at(25, lambda: fired.append(sim.now))
    sim.run()
    assert fired == [25]


def test_scheduling_in_the_past_raises():
    sim = Simulator()
    sim.after(10, lambda: None)
    sim.run()
    with pytest.raises(ValueError):
        sim.at(5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(ValueError):
        Simulator().after(-1, lambda: None)


def test_events_cascade():
    sim = Simulator()
    trace = []

    def first():
        trace.append(("first", sim.now))
        sim.after(5, second)

    def second():
        trace.append(("second", sim.now))

    sim.after(3, first)
    sim.run()
    assert trace == [("first", 3), ("second", 8)]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.after(10, lambda: fired.append("a"))
    sim.after(100, lambda: fired.append("b"))
    sim.run(until=50)
    assert fired == ["a"]
    assert sim.now == 50
    assert sim.pending_events == 1
    sim.run()
    assert fired == ["a", "b"]


def test_run_max_events_limits_work():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.after(i + 1, lambda i=i: fired.append(i))
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_step_fires_one_event():
    sim = Simulator()
    fired = []
    sim.after(1, lambda: fired.append("x"))
    assert sim.step() is True
    assert fired == ["x"]
    assert sim.step() is False


def test_events_processed_counter():
    sim = Simulator()
    for i in range(4):
        sim.after(i, lambda: None)
    sim.run()
    assert sim.events_processed == 4


def test_same_cycle_events_fifo_order():
    sim = Simulator()
    order = []
    sim.after(5, lambda: order.append(1))
    sim.after(5, lambda: order.append(2))
    sim.after(5, lambda: order.append(3))
    sim.run()
    assert order == [1, 2, 3]


def test_until_and_max_events_whichever_first():
    # max_events binds first: only 2 of the 4 events inside the window fire.
    sim = Simulator()
    fired = []
    for i in range(4):
        sim.after(i + 1, lambda i=i: fired.append(i))
    sim.run(until=10, max_events=2)
    assert fired == [0, 1]
    assert sim.now == 2
    assert sim.pending_events == 2
    # until binds first on the remainder: the clock lands on the cutoff.
    sim.run(until=3, max_events=100)
    assert fired == [0, 1, 2]
    assert sim.now == 3
    assert sim.pending_events == 1


def test_run_until_never_moves_the_clock_backwards():
    sim = Simulator()
    fired = []
    sim.after(10, lambda: fired.append(10))
    sim.after(20, lambda: fired.append(20))
    sim.run(until=15)
    assert (fired, sim.now) == ([10], 15)
    with pytest.raises(ValueError):
        sim.run(until=5)
    assert sim.now == 15
    with pytest.raises(ValueError):
        sim.at(7, lambda: None)
    assert sim.run(until=15) == 15  # the current time itself is legal
    sim.run()
    assert fired == [10, 20]


def test_clock_stays_at_last_event_when_drained_before_until():
    # Deliberate semantics: a queue that empties before `until` leaves
    # the clock at the last fired event, not at the horizon — a deadlock
    # diagnosis needs the cycle work stopped, not the max_cycles bound.
    sim = Simulator()
    sim.after(7, lambda: None)
    assert sim.run(until=1_000_000) == 7
    assert sim.now == 7
    assert sim.pending_events == 0


def test_step_on_empty_queue_is_inert():
    sim = Simulator()
    assert sim.step() is False
    assert sim.now == 0
    assert sim.events_processed == 0
    sim.after(3, lambda: None)
    sim.run()
    assert sim.step() is False
    assert sim.now == 3
    assert sim.events_processed == 1


def test_reentrant_callback_scheduling_at_now_fires_same_run():
    sim = Simulator()
    trace = []

    def outer():
        trace.append(("outer", sim.now))
        sim.after(0, lambda: trace.append(("inner", sim.now)))

    sim.after(5, outer)
    sim.run()
    assert trace == [("outer", 5), ("inner", 5)]
    assert sim.now == 5
    assert sim.events_processed == 2


def test_monitor_fires_every_interval():
    sim = Simulator()
    ticks = []
    for i in range(10):
        sim.after(i, lambda: None)
    sim.add_monitor(lambda: ticks.append(sim.events_processed), interval_events=3)
    sim.run()
    # Fires after the 3rd, 6th and 9th events (counter snapshots taken
    # mid-run read the pre-run total).
    assert len(ticks) == 3


def test_monitor_exception_aborts_run_with_consistent_counts():
    sim = Simulator()
    for i in range(10):
        sim.after(i, lambda: None)

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
    sim.dispatch(lambda: hits.append("callable"))
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
