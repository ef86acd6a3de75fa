"""Integration tests for feature combinations and corner paths."""

from dataclasses import replace

import pytest

from repro.config import PAGE_SIZE
from repro.experiments.runner import build_system, run_simulation
from repro.workloads.synthetic import ParametricWorkload
from tests.conftest import tiny_config


def divergent_workload(seed=0):
    return ParametricWorkload(
        pages_per_instruction=16,
        instructions_per_wavefront=8,
        reuse_window=2,
        footprint_mb=32.0,
        seed=seed,
    )


class TestAgingIntegration:
    def test_low_threshold_triggers_promotions(self):
        config = tiny_config("simt")
        config = replace(config, iommu=replace(config.iommu, aging_threshold=3))
        system = build_system(config)
        traces = divergent_workload().build_trace(8, 32)
        system.gpu.dispatch(traces)
        system.simulator.run()
        assert system.gpu.finished
        assert system.iommu.scheduler.aging.promotions > 0

    def test_huge_threshold_never_promotes(self):
        config = tiny_config("simt")
        config = replace(
            config, iommu=replace(config.iommu, aging_threshold=10**9)
        )
        system = build_system(config)
        system.gpu.dispatch(divergent_workload().build_trace(8, 32))
        system.simulator.run()
        assert system.iommu.scheduler.aging.promotions == 0


class TestFairShareEndToEnd:
    def test_single_app_run_completes(self):
        result = run_simulation(
            divergent_workload(),
            config=tiny_config(),
            scheduler="fairshare",
            num_wavefronts=8,
        )
        assert result.scheduler == "fairshare"
        assert result.total_cycles > 0

    def test_attained_service_tracked(self):
        config = tiny_config("fairshare")
        system = build_system(config)
        system.gpu.dispatch(divergent_workload().build_trace(4, 32))
        system.simulator.run()
        # Single app: all service attributed to app 0.
        assert set(system.iommu.scheduler.attained_service) <= {0}


class TestLargePageCombinations:
    def test_large_pages_with_prefetch(self):
        config = replace(tiny_config(), page_size="2M")
        config = replace(
            config, iommu=replace(config.iommu, prefetch_next_page=True)
        )
        result = run_simulation(
            divergent_workload(), config=config, num_wavefronts=4
        )
        assert result.total_cycles > 0
        # 32 MB / 2 MB = 16 regions: demand walks are bounded by region
        # count times the small tiny-config IOMMU-TLB re-walk factor.
        assert result.walks_dispatched <= 4 * result.detail["mapped_pages"]

    def test_large_pages_with_simt_scheduler(self):
        config = replace(tiny_config("simt"), page_size="2M")
        result = run_simulation(
            divergent_workload(), config=config, num_wavefronts=4
        )
        assert result.scheduler == "simt"
        assert result.total_cycles > 0

    def test_large_pages_with_queued_controller(self):
        config = replace(tiny_config(), page_size="2M")
        config = replace(config, dram=replace(config.dram, controller="frfcfs"))
        result = run_simulation(
            divergent_workload(), config=config, num_wavefronts=4
        )
        assert result.total_cycles > 0
        assert result.detail["memory"]["dram"]["policy"] == "frfcfs"


class TestL2TLBPort:
    def test_port_serialises_same_cycle_lookups(self):
        system = build_system(tiny_config())
        first = system.gpu.l2_tlb_port_delay()
        second = system.gpu.l2_tlb_port_delay()
        assert first == 0
        assert second >= 1  # queued behind the first lookup

    def test_port_idles_after_time_passes(self):
        system = build_system(tiny_config())
        system.gpu.l2_tlb_port_delay()
        system.simulator.register("test.noop", lambda: None)
        system.simulator.post(100, "test.noop")
        system.simulator.run()
        assert system.gpu.l2_tlb_port_delay() == 0


class TestOverflowIntegration:
    def test_tiny_buffer_exercises_overflow_without_loss(self):
        config = tiny_config()
        config = replace(config, iommu=replace(config.iommu, buffer_entries=2))
        result = run_simulation(
            divergent_workload(), config=config, num_wavefronts=8
        )
        iommu = result.detail["iommu"]
        assert iommu["overflow_peak"] > 0
        # Conservation still holds with back-pressure in play.
        assert (
            iommu["requests"]
            == iommu["tlb_hits"] + iommu["walks_dispatched"] + iommu["coalesced"]
        )


class TestScanLatencyEndToEnd:
    def test_full_run_with_scan_cost(self):
        config = tiny_config("simt")
        config = replace(
            config, iommu=replace(config.iommu, scan_latency_cycles=8)
        )
        result = run_simulation(
            divergent_workload(), config=config, num_wavefronts=8
        )
        assert result.total_cycles > 0
        assert result.walks_dispatched > 0
