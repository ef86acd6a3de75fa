"""Tests for the queued DRAM controller (FCFS / FR-FCFS / SMS)."""

import pickle
from collections import Counter

import pytest

from repro.config import DRAM_CONTROLLERS, DRAMConfig, baseline_config
from repro.engine.simulator import Simulator
from repro.memory.controller import (
    SOURCE_DATA,
    SOURCE_WALK,
    QueuedMemoryController,
)

from tests.conftest import dispatched_system

#: The queued controller's policies: every DRAM front end but the
#: reservation model.
POLICIES = DRAM_CONTROLLERS[1:]


def make_controller(policy="frfcfs", banks=2, sms_batch_cap=4):
    sim = Simulator()
    config = DRAMConfig(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=banks,
        row_size_bytes=2048,
        t_cas=30,
        t_rcd=30,
        t_rp=30,
        t_burst=8,
        controller=policy,
        sms_batch_cap=sms_batch_cap,
    )
    return sim, QueuedMemoryController(sim, config)


def completion_recorder(sim, order):
    """Register ``"test.done"`` on ``sim``; ``make(tag)`` is the
    completion target that appends ``(tag, now)`` to ``order``."""
    sim.register("test.done", lambda tag: order.append((tag, sim.now)))
    return lambda tag: ("test.done", tag)


def ignored_completion(sim):
    """Register ``"test.ignore"`` on ``sim`` and return its completion
    target, which does nothing."""
    sim.register("test.ignore", lambda: None)
    return ("test.ignore",)


@pytest.mark.parametrize("policy", ["lifo", "reservation"])
def test_unknown_policy_rejected(policy):
    # "lifo" is outside DRAMConfig's domain; "reservation" is a valid
    # front end but not a queued controller's policy.
    with pytest.raises(ValueError, match="controller"):
        make_controller(policy=policy)


def test_single_read_completes_with_activate_latency():
    sim, ctrl = make_controller()
    order = []
    ctrl.read(0, completion_recorder(sim, order)("a"))
    sim.run()
    assert order == [("a", 90)]
    assert ctrl.row_conflicts == 1


def test_same_bank_reads_serialise():
    sim, ctrl = make_controller()
    order = []
    rec = completion_recorder(sim, order)
    ctrl.read(0, rec("a"))
    ctrl.read(128, rec("b"))  # same bank (2 banks stripe by line), same row
    sim.run()
    assert [tag for tag, _ in order] == ["a", "b"]
    # b waits for a's burst, then row-hits.
    assert order[1][1] == 90 + 8 + 30


def test_different_banks_overlap():
    sim, ctrl = make_controller()
    order = []
    rec = completion_recorder(sim, order)
    ctrl.read(0, rec("a"))
    ctrl.read(64, rec("b"))  # other bank
    sim.run()
    assert order[0][1] == order[1][1] == 90


def test_frfcfs_promotes_row_hits():
    sim, ctrl = make_controller(policy="frfcfs")
    order = []
    rec = completion_recorder(sim, order)
    far_row = 2048 * 2 * 4  # same bank, different row
    ctrl.read(0, rec("open_row_first"))
    ctrl.read(far_row, rec("conflict"))
    ctrl.read(128, rec("row_hit"))  # arrives later but hits the open row
    sim.run()
    assert [tag for tag, _ in order] == ["open_row_first", "row_hit", "conflict"]
    assert ctrl.row_hits == 1


def test_fcfs_preserves_arrival_order():
    sim, ctrl = make_controller(policy="fcfs")
    order = []
    rec = completion_recorder(sim, order)
    far_row = 2048 * 2 * 4
    ctrl.read(0, rec("first"))
    ctrl.read(far_row, rec("second"))
    ctrl.read(128, rec("third"))
    sim.run()
    assert [tag for tag, _ in order] == ["first", "second", "third"]


def test_frfcfs_achieves_higher_row_hit_rate_than_fcfs():
    def run(policy):
        sim, ctrl = make_controller(policy=policy)
        far_row = 2048 * 2 * 4
        # Alternate rows in arrival order: FCFS ping-pongs the row
        # buffer; FR-FCFS batches same-row requests.
        for i in range(8):
            address = (far_row if i % 2 else 0) + 128 * (i // 2)
            ctrl.read(address, ignored_completion(sim))
        sim.run()
        return ctrl.row_hit_rate

    assert run("frfcfs") > run("fcfs")


def test_queue_depth_tracked():
    sim, ctrl = make_controller()
    for i in range(5):
        ctrl.read(0, ignored_completion(sim))
    assert ctrl.peak_queue_depth >= 4
    sim.run()
    assert ctrl.queued_requests == 0


def test_stats_shape():
    sim, ctrl = make_controller()
    ctrl.read(0, ignored_completion(sim))
    sim.run()
    stats = ctrl.stats()
    assert stats["reads"] == 1
    assert stats["policy"] == "frfcfs"


# ----------------------------------------------------------------------
# SMS: staged batch former with page-walk QoS
# ----------------------------------------------------------------------


def test_sms_prioritises_walk_batch_over_data():
    # The first data read issues and commits the bank to a data batch
    # (cap 4).  Once its credits run out, re-arbitration must form a
    # walk batch ahead of the remaining data read, even though every
    # data read arrived earlier.
    sim, ctrl = make_controller(policy="sms")
    order = []
    rec = completion_recorder(sim, order)
    ctrl.read(0, rec("data0"), source=SOURCE_DATA)  # issues immediately
    for i in range(4):
        ctrl.read(128 * (i + 1), rec(f"data{i + 1}"), source=SOURCE_DATA)
    ctrl.read(128 * 5, rec("walk"), source=SOURCE_WALK)
    sim.run()
    tags = [tag for tag, _ in order]
    assert tags == ["data0", "data1", "data2", "data3", "walk", "data4"]
    assert ctrl.stats()["walk_reads"] == 1


def test_sms_batch_cap_bounds_source_runs():
    # Identical arrival stream, two caps.  Cap 2 exhausts the data
    # batch after data1, so the walk preempts data2 at the batch
    # boundary; cap 4 keeps the bank committed to data through data2.
    def run(cap):
        sim, ctrl = make_controller(policy="sms", sms_batch_cap=cap)
        order = []
        rec = completion_recorder(sim, order)
        ctrl.read(0, rec("data0"), source=SOURCE_DATA)
        ctrl.read(128, rec("data1"), source=SOURCE_DATA)
        ctrl.read(256, rec("data2"), source=SOURCE_DATA)
        ctrl.read(384, rec("walk"), source=SOURCE_WALK)
        sim.run()
        return [tag for tag, _ in order]

    assert run(2) == ["data0", "data1", "walk", "data2"]
    assert run(4) == ["data0", "data1", "data2", "walk"]


def test_sms_sticks_with_batch_for_row_hits():
    # Within a committed batch, first-ready ordering still applies.
    sim, ctrl = make_controller(policy="sms")
    order = []
    rec = completion_recorder(sim, order)
    far_row = 2048 * 2 * 4
    ctrl.read(0, rec("open_row_first"), source=SOURCE_WALK)
    ctrl.read(far_row, rec("conflict"), source=SOURCE_WALK)
    ctrl.read(128, rec("row_hit"), source=SOURCE_WALK)
    sim.run()
    assert [tag for tag, _ in order] == [
        "open_row_first", "row_hit", "conflict",
    ]


def test_sms_source_defaults_to_data():
    sim, ctrl = make_controller(policy="sms")
    ctrl.read(0, ignored_completion(sim))
    sim.run()
    assert ctrl.walk_reads == 0
    assert ctrl.stats()["walk_reads"] == 0


def test_sms_snapshot_restores_batch_state():
    sim, ctrl = make_controller(policy="sms")
    # Event-tuple completion targets: a callable would not pickle.
    ctrl.read(0, ("test.done",), source=SOURCE_WALK)
    ctrl.read(128, ("test.done",), source=SOURCE_WALK)
    # Mid-flight: bank busy, batch committed to the walk source.
    ctrl2 = pickle.loads(pickle.dumps(ctrl))

    def batches(controller):
        return [(bank.batch_source, bank.batch_credits)
                for bank in controller._banks]

    assert batches(ctrl)[0] == (SOURCE_WALK, 3)
    assert batches(ctrl2) == batches(ctrl)
    assert ctrl2.walk_reads == ctrl.walk_reads


def _mvt_system(policy):
    """MVT/simt (scale 0.1, 8 wavefronts, seed 0) on ``policy``."""
    config = baseline_config("simt").with_dram_controller(policy)
    return dispatched_system(config, "MVT")


@pytest.mark.parametrize("policy", POLICIES)
def test_queued_requests_counts_every_queue_at_every_event(policy):
    system = _mvt_system(policy)
    ctrl = system.memory.controller
    mismatches = []

    def check():
        waiting = sum(len(bank.queue) for bank in ctrl._banks)
        if ctrl.queued_requests != waiting:
            mismatches.append(
                (system.simulator.now, ctrl.queued_requests, waiting)
            )
        for bank in ctrl._banks:
            if bank.row_waiting != Counter(r.row for r in bank.queue):
                mismatches.append((system.simulator.now, bank.row_waiting))

    system.simulator.add_monitor(check, interval_events=1)
    system.simulator.run()
    assert system.gpu.finished
    assert mismatches == []
    assert ctrl.queued_requests == 0


@pytest.mark.parametrize(
    "policy, peak", [("fcfs", 394), ("frfcfs", 394), ("sms", 501)]
)
def test_mvt_peak_queue_depth(policy, peak):
    system = _mvt_system(policy)
    system.simulator.run()
    assert system.gpu.finished
    assert system.memory.controller.peak_queue_depth == peak


# ----------------------------------------------------------------------
# Differential check against a naive twin
# ----------------------------------------------------------------------


class _TwinController:
    """The queued controller written the naive way: one arrival-ordered
    list per bank, scanned whole on every select, and every read tries
    to issue.  It applies the same fcfs / frfcfs / sms rules and timing
    on its own simulator."""

    def __init__(self, sim, config):
        self.sim = sim
        self.config = config
        self.policy = config.controller
        self.queues = {}
        self.busy = set()
        self.open_row = {}
        self.serving = {}
        self.batch = {}
        self.row_hits = 0
        sim.register("twin.complete", self._complete)
        sim.register("twin.release", self._release)

    def read(self, address, on_complete, source=SOURCE_DATA):
        cfg = self.config
        line = address // 64
        per_channel = cfg.ranks_per_channel * cfg.banks_per_rank
        bank = (line % cfg.channels) * per_channel + (
            line // cfg.channels
        ) % per_channel
        row = address // (cfg.row_size_bytes * cfg.total_banks)
        self.queues.setdefault(bank, []).append([row, source, on_complete])
        self._try_issue(bank)

    def _first_ready(self, pool, bank):
        for request in pool:
            if request[0] == self.open_row.get(bank, -1):
                return request
        return pool[0]

    def _select(self, queue, bank):
        if self.policy == "frfcfs":
            return self._first_ready(queue, bank)
        if self.policy == "sms":
            batch = self.batch.get(bank)
            if batch is not None and batch[1] > 0:
                pool = [r for r in queue if r[1] == batch[0]]
                if pool:
                    batch[1] -= 1
                    return self._first_ready(pool, bank)
            walks = [r for r in queue if r[1] == SOURCE_WALK]
            choice = self._first_ready(walks or queue, bank)
            self.batch[bank] = [choice[1], self.config.sms_batch_cap - 1]
            return choice
        return queue[0]

    def _try_issue(self, bank):
        queue = self.queues.get(bank)
        if bank in self.busy or not queue:
            return
        request = self._select(queue, bank)
        queue.remove(request)  # a fresh list object: removed by identity
        cfg = self.config
        if request[0] == self.open_row.get(bank, -1):
            latency = cfg.t_cas
            self.row_hits += 1
        else:
            latency = cfg.t_rp + cfg.t_rcd + cfg.t_cas
            self.open_row[bank] = request[0]
        self.busy.add(bank)
        self.serving[bank] = request
        self.sim.post(latency, "twin.complete", bank)

    def _complete(self, bank):
        self.sim.dispatch(self.serving.pop(bank)[2])
        self.sim.post(self.config.t_burst, "twin.release", bank)

    def _release(self, bank):
        self.busy.discard(bank)
        self._try_issue(bank)


def _read_script(seed):
    """A seeded read stream on a 2-4 bank, three-row address space:
    ``(banks, arrivals, chained)``, where ``arrivals`` holds ``(cycle,
    address, source)`` and ``chained`` maps an arrival's index to a read
    its completion issues at once (as a walker chains its levels)."""
    import random

    rng = random.Random(seed)
    banks = rng.choice((2, 3, 4))
    lines = 3 * 2048 * banks // 64

    def draw():
        return rng.randrange(lines) * 64, rng.choice((SOURCE_DATA, SOURCE_WALK))

    # From a backlog of ~100 waiting reads down to a mostly idle bank.
    span = rng.choice((600, 3000, 8000))
    arrivals = [(rng.randrange(span), *draw()) for _ in range(120)]
    chained = {i: draw() for i in range(len(arrivals)) if rng.random() < 0.3}
    return banks, arrivals, chained


def _drive(make, seed, policy):
    """Run the seeded script through the controller ``make(sim, config)``
    builds on a ``policy`` DRAM config; returns the completions as
    ``(tag, cycle)`` and the controller."""
    banks, arrivals, chained = _read_script(seed)
    sim = Simulator()
    config = DRAMConfig(
        channels=1, ranks_per_channel=1, banks_per_rank=banks,
        row_size_bytes=2048, t_cas=30, t_rcd=30, t_rp=30, t_burst=8,
        controller=policy, sms_batch_cap=2,
    )
    ctrl = make(sim, config)
    done = []

    def complete(tag):
        done.append((tag, sim.now))
        if tag in chained:
            address, source = chained[tag]
            ctrl.read(address, ("test.done", f"{tag}+"), source)

    sim.register("test.done", complete)
    sim.register(
        "test.read",
        lambda tag, address, source: ctrl.read(
            address, ("test.done", tag), source
        ),
    )
    for tag, (cycle, address, source) in enumerate(arrivals):
        sim.post_at(cycle, "test.read", tag, address, source)
    sim.run()
    return done, ctrl


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", range(6))
def test_issue_order_matches_the_naive_twin(policy, seed):
    # Few rows and banks, so row hits wait behind conflicts and the
    # first-ready search has real choices to make.
    got, ctrl = _drive(QueuedMemoryController, seed, policy)
    want, twin = _drive(_TwinController, seed, policy)
    assert len(got) == len(want) > 120
    assert got == want
    assert ctrl.row_hits == twin.row_hits
    assert ctrl.queued_requests == 0
