"""Tests for the next-page TLB-prefetch extension."""

from dataclasses import replace

from repro.config import IOMMUConfig, PWCConfig, TLBConfig
from repro.core.request import TranslationRequest
from repro.engine.simulator import Simulator
from repro.mmu.iommu import IOMMU
from repro.mmu.page_table import PageTable


def make_iommu(prefetch=True, num_walkers=2, latency=10):
    sim = Simulator()
    table = PageTable()
    config = IOMMUConfig(
        buffer_entries=8,
        num_walkers=num_walkers,
        l1_tlb=TLBConfig(entries=8, hit_latency=20),
        l2_tlb=TLBConfig(entries=16, associativity=4, hit_latency=20),
        pwc=PWCConfig(entries_per_level=8, associativity=4),
        prefetch_next_page=prefetch,
    )
    iommu = IOMMU(
        sim, config, table, lambda addr, cb: sim.at(sim.now + latency, cb)
    )
    iommu.reply_to = reply
    return sim, iommu


def reply(request, pfn):
    """The IOMMU's reply sink: a request made with a ``done`` list
    carries it as its context and records its page there."""
    if request.context:
        request.context[0].append(request.vpn)


def request(vpn, done=None, instruction_id=0):
    translation = TranslationRequest(
        vpn=vpn,
        instruction_id=instruction_id,
        wavefront_id=0,
        cu_id=0,
        issue_time=0,
    )
    if done is not None:
        translation.context = (done,)
    return translation


def test_demand_walk_triggers_next_page_prefetch():
    sim, iommu = make_iommu(prefetch=True)
    iommu.translate(request(0x100))
    sim.run()
    assert iommu.prefetch_walks == 1
    assert iommu.l2_tlb.probe(0x101)


def test_prefetch_disabled_by_default_config():
    sim, iommu = make_iommu(prefetch=False)
    iommu.translate(request(0x100))
    sim.run()
    assert iommu.prefetch_walks == 0
    assert not iommu.l2_tlb.probe(0x101)


def test_prefetched_page_serves_later_demand_from_tlb():
    sim, iommu = make_iommu(prefetch=True)
    done = []
    iommu.translate(request(0x100, done))
    sim.run()
    iommu.translate(request(0x101, done))
    sim.run()
    assert done == [0x100, 0x101]
    assert iommu.walks_dispatched == 1  # second page never walked on demand
    assert iommu.tlb_hits == 1


def test_prefetch_never_displaces_demand_traffic():
    # One walker: while demand walks queue, no prefetch may be issued.
    sim, iommu = make_iommu(prefetch=True, num_walkers=1, latency=50)
    for vpn in (0x10, 0x20, 0x30):
        iommu.translate(request(vpn))
    assert iommu.prefetch_walks == 0  # walker busy, demands pending
    sim.run()
    # Prefetches may only have used post-drain idle capacity.
    assert iommu.walks_dispatched == 3


def test_prefetch_walks_not_counted_as_demand():
    sim, iommu = make_iommu(prefetch=True)
    iommu.translate(request(0x100))
    sim.run()
    assert iommu.walks_dispatched == 1
    assert iommu.stats()["prefetch_walks"] == iommu.prefetch_walks


def test_demand_coalesces_onto_inflight_prefetch():
    sim, iommu = make_iommu(prefetch=True, latency=50)
    done = []
    iommu.translate(request(0x100, done))
    # Let the demand walk finish and the prefetch of 0x101 start.
    sim.run(max_events=6)
    walking = list(iommu._walking)
    if 0x101 in walking:  # prefetch in flight: demand must join it
        iommu.translate(request(0x101, done))
        sim.run()
        assert 0x101 in done
    else:  # timing moved: at minimum the run completes correctly
        sim.run()


def test_no_duplicate_prefetch_for_cached_page():
    sim, iommu = make_iommu(prefetch=True)
    iommu.translate(request(0x100))
    sim.run()
    first = iommu.prefetch_walks
    iommu.translate(request(0x100))  # TLB hit: completes without a walk
    sim.run()
    assert iommu.prefetch_walks == first
