"""Tests for the scheduler scan-latency model (paper §IV subtleties)."""

import hashlib
from dataclasses import replace

import pytest

from repro.config import baseline_config
from tests.conftest import dispatched_system
from tests.test_iommu import make_iommu, make_request


def test_zero_scan_latency_dispatches_back_to_back():
    sim, _, iommu = make_iommu(num_walkers=1, latency=10, scan_latency=0)
    for vpn in range(3):
        iommu.translate(make_request(vpn))
    sim.run()
    assert iommu.walks_dispatched == 3
    baseline_cycles = sim.now
    assert baseline_cycles > 0


def test_scan_latency_delays_scheduled_dispatches():
    def completion_time(scan):
        sim, _, iommu = make_iommu(
            scheduler="simt", num_walkers=1, latency=10, scan_latency=scan
        )
        for vpn in range(4):
            iommu.translate(make_request(vpn))
        sim.run()
        assert iommu.walks_dispatched == 4
        return sim.now

    # Three scheduled (non-direct) dispatches × scan cycles of delay.
    assert completion_time(5) == completion_time(0) + 3 * 5


def test_fifo_policies_pay_no_scan_cost():
    def completion_time(scan):
        sim, _, iommu = make_iommu(num_walkers=1, latency=10, scan_latency=scan)
        for vpn in range(4):
            iommu.translate(make_request(vpn))
        sim.run()
        return sim.now

    # FCFS pops a queue head in hardware: scan latency must not apply.
    assert completion_time(50) == completion_time(0)


def test_direct_dispatch_skips_the_scan():
    # An idle-walker arrival never pays scan latency (paper: "If a free
    # page table walker is immediately available, the scheduler plays no
    # role and no scanning is involved").
    sim, _, iommu = make_iommu(
        scheduler="simt", num_walkers=2, latency=10, scan_latency=50
    )
    iommu.translate(make_request(0x1))
    sim.run()
    assert sim.now == 40  # four chained reads, no scan delay


def test_all_requests_still_serviced_under_scan_latency():
    sim, _, iommu = make_iommu(
        scheduler="simt", num_walkers=2, latency=10, scan_latency=7
    )
    done = []
    for vpn in range(8):
        iommu.translate(make_request(vpn, done=done))
    sim.run()
    assert len(done) == 8


#: (workload, scheduler, scan cycles, walkers) -> total cycles, walks
#: dispatched and the SHA-256 of ``repr(iommu.dispatches_by_instruction)``
#: at scale 0.05 with 16 wavefronts, seed 0.  They pin where every delayed
#: selection dispatches, so a change to the scan path must keep them.
SCAN_ROWS = {
    ("MVT", "simt", 4, 2): (
        102724, 1026,
        "40cb0b915901ac307548ea7fde59aef96a1dd297b3bb32033d9b2ea3466cd091",
    ),
    ("MVT", "simt", 4, 8): (
        102971, 1025,
        "68ee0b00fe959024bb2dbd019ff89df7191d1451bfbec30b0d14071bdb2d8da2",
    ),
    ("MVT", "simt", 16, 2): (
        103238, 1030,
        "a5be9dc69bc7650628451f591791abd2b3e2cf1ac834baefbabff197977a9df3",
    ),
    ("MVT", "simt", 16, 8): (
        102971, 1025,
        "344cf95d04c11d9f18d8d922e75d31d5155c0a75d3f9f4856d580860d492a748",
    ),
    ("XSB", "sjf", 4, 2): (
        83837, 1068,
        "3624b583e9b440289377625f1e939b95d0ad5a3cdb0196acd431c268dadd4846",
    ),
    ("XSB", "sjf", 4, 8): (
        27417, 1055,
        "428a5d9e72c19bfb8c3ed94ea020d3a808ce73476dc06971e5a62315317eff4e",
    ),
    ("XSB", "sjf", 16, 2): (
        90694, 1067,
        "a1c6c5135a9bbaffdbe8f5d1a6403fa6d2b31823c6330bc8f410b3e6f2142612",
    ),
    ("XSB", "sjf", 16, 8): (
        28805, 1057,
        "76550c1685d7954f7d4ff0630bd9d958789618c877c1029ade2dcb25db29cab5",
    ),
}


@pytest.mark.parametrize(
    "row", sorted(SCAN_ROWS), ids=lambda row: "{}-{}-scan{}-walkers{}".format(*row)
)
def test_delayed_selections_dispatch_as_captured(row):
    workload, scheduler, scan, walkers = row
    config = baseline_config(scheduler)
    config = replace(config, iommu=replace(
        config.iommu, scan_latency_cycles=scan, num_walkers=walkers
    ))
    system = dispatched_system(config, workload, scale=0.05, num_wavefronts=16)
    system.simulator.run()
    assert system.gpu.finished
    iommu = system.iommu
    digest = hashlib.sha256(
        repr(iommu.dispatches_by_instruction).encode()
    ).hexdigest()
    assert (system.gpu.completion_time, iommu.walks_dispatched, digest) == (
        SCAN_ROWS[row]
    )
