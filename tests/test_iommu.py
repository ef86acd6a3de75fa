"""Unit and integration tests for the IOMMU."""

import pytest

from repro.config import IOMMUConfig, PWCConfig, TLBConfig, baseline_config
from repro.core.request import TranslationRequest
from repro.core.schedulers import available_schedulers
from repro.engine.simulator import Simulator
from repro.mmu.iommu import IOMMU
from repro.mmu.page_table import PageTable

from tests.conftest import dispatched_system


def make_iommu(
    scheduler="fcfs",
    num_walkers=2,
    buffer_entries=4,
    latency=10,
    coalesce="inflight",
):
    sim = Simulator()
    table = PageTable()
    config = IOMMUConfig(
        buffer_entries=buffer_entries,
        num_walkers=num_walkers,
        l1_tlb=TLBConfig(entries=8),
        l2_tlb=TLBConfig(entries=16, associativity=4),
        pwc=PWCConfig(entries_per_level=8, associativity=4),
        scheduler=scheduler,
        coalesce_walks=coalesce,
    )
    iommu = IOMMU(
        sim, config, table, lambda addr, cb: sim.at(sim.now + latency, cb)
    )
    iommu.reply_to = reply
    return sim, table, iommu


def reply(request, pfn):
    """The IOMMU's reply sink: a request made with a ``done`` list
    carries it as its context and records ``(vpn, pfn)`` there."""
    if request.context:
        request.context[0].append((request.vpn, pfn))


def make_request(vpn, instruction_id=0, done=None):
    request = TranslationRequest(
        vpn=vpn,
        instruction_id=instruction_id,
        wavefront_id=0,
        cu_id=0,
        issue_time=0,
    )
    if done is not None:
        request.context = (done,)
    return request


def test_cold_request_walks_and_replies():
    sim, table, iommu = make_iommu()
    done = []
    iommu.translate(make_request(0x42, done=done))
    sim.run()
    assert done == [(0x42, table.lookup(0x42))]
    assert iommu.walks_dispatched == 1


def test_tlb_hit_skips_walk():
    sim, table, iommu = make_iommu()
    done = []
    iommu.translate(make_request(0x42, done=done))
    sim.run()
    iommu.translate(make_request(0x42, done=done))
    sim.run()
    assert len(done) == 2
    assert iommu.walks_dispatched == 1
    assert iommu.tlb_hits == 1


def test_walk_fills_both_iommu_tlbs():
    sim, table, iommu = make_iommu()
    iommu.translate(make_request(0x42))
    sim.run()
    assert iommu.l1_tlb.probe(0x42)
    assert iommu.l2_tlb.probe(0x42)


def test_concurrent_requests_use_multiple_walkers():
    sim, _, iommu = make_iommu(num_walkers=2, latency=50)
    done = []
    iommu.translate(make_request(0x1, done=done))
    iommu.translate(make_request(0x2, done=done))
    busy = sum(1 for walker in iommu.walkers if walker.is_busy)
    assert busy == 2
    sim.run()
    assert len(done) == 2


def test_requests_queue_when_walkers_busy():
    sim, _, iommu = make_iommu(num_walkers=1, latency=50)
    for vpn in range(3):
        iommu.translate(make_request(vpn))
    assert len(iommu.buffer) == 2  # one walking, two pending
    sim.run()
    assert iommu.walks_dispatched == 3


def test_buffer_overflow_spills_to_fifo_queue():
    sim, _, iommu = make_iommu(num_walkers=1, buffer_entries=2, latency=50)
    for vpn in range(6):
        iommu.translate(make_request(vpn))
    assert len(iommu.buffer) == 2
    assert iommu.overflow_peak == 3  # 1 walking, 2 buffered, 3 spilled
    sim.run()
    assert iommu.walks_dispatched == 6


def test_inflight_coalescing_merges_same_page():
    sim, _, iommu = make_iommu(num_walkers=1, latency=50, coalesce="inflight")
    done = []
    iommu.translate(make_request(0x7, instruction_id=1, done=done))
    iommu.translate(make_request(0x7, instruction_id=2, done=done))
    sim.run()
    assert len(done) == 2
    assert iommu.walks_dispatched == 1
    assert iommu.coalesced_inflight == 1


def test_coalescing_off_walks_duplicates_independently():
    sim, _, iommu = make_iommu(num_walkers=2, latency=50, coalesce="off")
    iommu.translate(make_request(0x7, instruction_id=1))
    iommu.translate(make_request(0x7, instruction_id=2))
    sim.run()
    assert iommu.walks_dispatched == 2


def test_full_coalescing_merges_pending():
    sim, _, iommu = make_iommu(num_walkers=1, latency=50, coalesce="full")
    done = []
    iommu.translate(make_request(0x1, done=done))  # occupies the walker
    iommu.translate(make_request(0x9, instruction_id=1, done=done))  # pending
    iommu.translate(make_request(0x9, instruction_id=2, done=done))  # merges
    sim.run()
    assert len(done) == 3
    assert iommu.walks_dispatched == 2
    assert iommu.buffer.total_coalesced == 1


def test_walk_accesses_attached_to_requests():
    sim, _, iommu = make_iommu()
    request = make_request(0x5)
    iommu.translate(request)
    sim.run()
    assert request.walk_accesses == 4  # cold PWC: full walk


def test_interleave_metric_counts_multiwalk_instructions():
    sim, _, iommu = make_iommu(num_walkers=1, latency=20)
    # Instruction 1's two walks sandwich instruction 2's walk: interleaved.
    iommu.translate(make_request(0x10, instruction_id=1))
    iommu.translate(make_request(0x20, instruction_id=2))
    iommu.translate(make_request(0x11, instruction_id=1))
    sim.run()
    assert iommu.interleaved_instruction_fraction() == 1.0


def test_interleave_metric_ignores_single_walk_instructions():
    sim, _, iommu = make_iommu()
    iommu.translate(make_request(0x10, instruction_id=1))
    sim.run()
    assert iommu.interleaved_instruction_fraction() == 0.0


def test_batching_scheduler_dedisperses_walks():
    # With the SIMT scheduler the same three requests are not interleaved.
    sim, _, iommu = make_iommu(scheduler="simt", num_walkers=1, latency=20)
    iommu.translate(make_request(0x10, instruction_id=1))
    iommu.translate(make_request(0x20, instruction_id=2))
    iommu.translate(make_request(0x11, instruction_id=1))
    sim.run()
    assert iommu.interleaved_instruction_fraction() == 0.0


def test_simt_scheduler_prioritises_light_instruction():
    sim, _, iommu = make_iommu(scheduler="simt", num_walkers=1, latency=50)
    done = []
    # Heavy instruction: three pending walks; light: one.
    iommu.translate(make_request(0x10, instruction_id=1))  # takes the walker
    iommu.translate(make_request(0x11, instruction_id=1, done=done))
    iommu.translate(make_request(0x12, instruction_id=1, done=done))
    iommu.translate(make_request(0x30, instruction_id=2, done=done))
    sim.run()
    # After the in-flight walk, batching continues instruction 1, but the
    # light instruction must not be starved indefinitely.
    assert len(done) == 3


def test_stats_shape():
    sim, _, iommu = make_iommu()
    iommu.translate(make_request(0x1))
    sim.run()
    stats = iommu.stats()
    for key in ("requests", "walks_dispatched", "l1_tlb", "pwc", "buffer_peak"):
        assert key in stats


def test_requests_counted():
    sim, _, iommu = make_iommu()
    for vpn in range(5):
        iommu.translate(make_request(vpn))
    sim.run()
    assert iommu.requests == 5


@pytest.mark.parametrize("name", sorted(available_schedulers()))
def test_score_table_ends_empty_under_every_policy(name):
    """Every walk the score table accounts is released again: after a
    full MVT run nothing is left in it, whether or not the policy reads
    scores (a non-scoring policy keeps its walks out of the table)."""
    system = dispatched_system(baseline_config(name), "MVT")
    system.simulator.run()
    assert system.gpu.finished
    scores = system.iommu.buffer._scores
    assert (len(scores), scores._active) == (0, {})
