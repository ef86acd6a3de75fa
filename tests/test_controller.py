"""Tests for the queued DRAM controller (FCFS / FR-FCFS / SMS)."""

import pickle

import pytest

from repro.config import DRAMConfig, baseline_config
from repro.engine.simulator import Simulator
from repro.memory.controller import (
    SOURCE_DATA,
    SOURCE_WALK,
    QueuedMemoryController,
)

from tests.conftest import dispatched_system


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
        sms_batch_cap=sms_batch_cap,
    )
    return sim, QueuedMemoryController(sim, config, policy=policy)


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


def test_unknown_policy_rejected():
    with pytest.raises(ValueError):
        make_controller(policy="lifo")


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
    assert ctrl2._sms_batch == ctrl._sms_batch
    assert ctrl2.walk_reads == ctrl.walk_reads


def _mvt_system(policy):
    """MVT/simt (scale 0.1, 8 wavefronts, seed 0) on ``policy``."""
    config = baseline_config("simt").with_dram_controller(policy)
    return dispatched_system(config, "MVT")


@pytest.mark.parametrize("policy", QueuedMemoryController.POLICIES)
def test_queued_requests_counts_every_queue_at_every_event(policy):
    system = _mvt_system(policy)
    ctrl = system.memory.controller
    mismatches = []

    def check():
        waiting = sum(len(queue) for queue in ctrl._queues.values())
        if ctrl.queued_requests != waiting:
            mismatches.append(
                (system.simulator.now, ctrl.queued_requests, waiting)
            )

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
