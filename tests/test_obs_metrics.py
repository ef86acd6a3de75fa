"""Metrics registry: instruments, series decimation, standard wiring."""

from __future__ import annotations

import pytest

from repro.experiments.runner import run_simulation
from repro.obs.metrics import (
    Counter,
    Gauge,
    MetricsRegistry,
    finalize_standard_metrics,
    install_standard_metrics,
)

from tests.conftest import tiny_config


RUN_KWARGS = dict(num_wavefronts=8, scale=0.05, seed=1)


class TestInstruments:
    def test_counter_monotonic(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        assert counter.value == 6
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_watermarks(self):
        gauge = Gauge("g")
        assert gauge.min_value is None
        for value in (5, 2, 9):
            gauge.set(value)
        assert gauge.value == 9
        assert gauge.min_value == 2
        assert gauge.max_value == 9
        assert gauge.samples == 3

    def test_registry_creates_on_first_use(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("h") is registry.histogram("h")

    def test_registry_rejects_tiny_series_cap(self):
        with pytest.raises(ValueError):
            MetricsRegistry(max_series_samples=1)


class TestSeries:
    def test_sample_records_gauge_rows(self):
        registry = MetricsRegistry()
        depth = registry.gauge("depth")
        depth.set(3)
        registry.sample(100)
        depth.set(7)
        registry.sample(200)
        assert registry.series == [(100, {"depth": 3}), (200, {"depth": 7})]

    def test_decimation_bounds_memory(self):
        registry = MetricsRegistry(max_series_samples=8)
        gauge = registry.gauge("g")
        for cycle in range(100):
            gauge.set(cycle)
            registry.sample(cycle)
        assert registry.samples_taken == 100
        assert len(registry.series) < 8
        # Kept rows stay in cycle order and span the whole run — the
        # cap trades resolution, never recency.
        cycles = [cycle for cycle, _ in registry.series]
        assert cycles == sorted(cycles)
        assert cycles[-1] > 90

    def test_as_dict_shape(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(2)
        registry.gauge("g").set(4)
        registry.histogram("h").add(3)
        registry.sample(50)
        data = registry.as_dict()
        assert data["counters"] == {"c": 2}
        assert data["gauges"]["g"] == {
            "value": 4, "min": 4, "max": 4, "samples": 1,
        }
        assert data["histograms"]["h"]["total"] == 1
        assert data["histograms"]["h"]["buckets"][0] == [0, 0]
        assert data["series"] == [{"cycle": 50, "g": 4}]
        assert data["samples_taken"] == 1


class TestStandardMetrics:
    def test_metrics_run_populates_detail(self):
        result = run_simulation(
            "MVT", config=tiny_config(), metrics=True,
            metrics_interval_events=500, **RUN_KWARGS,
        )
        data = result.detail["metrics"]
        assert data["samples_taken"] > 0
        assert data["series"], "sampling produced no time-series rows"
        row = data["series"][0]
        assert "iommu.pending_walks" in row
        assert "gpu.running_wavefronts" in row
        # Finalised totals agree with the canonical IOMMU stats.
        assert (
            data["counters"]["iommu.walks_dispatched"]
            == result.walks_dispatched
        )
        assert any(name.startswith("pwc.") for name in data["counters"])
        assert data["histograms"]["iommu.pending_depth"]["total"] > 0

    def test_metrics_do_not_change_results(self):
        plain = run_simulation("MVT", config=tiny_config(), **RUN_KWARGS)
        observed = run_simulation(
            "MVT", config=tiny_config(), metrics=True,
            metrics_interval_events=500, **RUN_KWARGS,
        )
        assert observed.total_cycles == plain.total_cycles
        assert observed.stall_cycles == plain.stall_cycles
        assert observed.walks_dispatched == plain.walks_dispatched

    def test_interval_validation(self):
        with pytest.raises(ValueError, match="metrics_interval_events"):
            run_simulation(
                "MVT", config=tiny_config(), metrics=True,
                metrics_interval_events=0, **RUN_KWARGS,
            )

    def test_sampler_coexists_with_watchdog(self):
        result = run_simulation(
            "MVT", config=tiny_config(), metrics=True,
            metrics_interval_events=500, watchdog_cycles=5_000_000,
            **RUN_KWARGS,
        )
        assert result.detail["metrics"]["samples_taken"] > 0

    def test_scheduler_gauges_for_simt(self):
        result = run_simulation(
            "MVT", config=tiny_config("simt"), metrics=True,
            metrics_interval_events=500, **RUN_KWARGS,
        )
        gauges = result.detail["metrics"]["gauges"]
        assert "scheduler.batch_hits" in gauges
        assert "scheduler.sjf_picks" in gauges

    def test_install_reads_but_never_writes(self, config):
        from repro.experiments.runner import build_system
        from repro.workloads.registry import get_workload

        system = build_system(config)
        registry = MetricsRegistry()
        sampler = install_standard_metrics(system, registry)
        bench = get_workload("MVT", scale=0.05, seed=1)
        system.gpu.dispatch(
            bench.build_trace(num_wavefronts=8, wavefront_size=64)
        )
        system.simulator.add_monitor(sampler, 500)
        system.simulator.run()
        assert system.gpu.finished
        finalize_standard_metrics(system, registry)
        assert registry.counter("iommu.requests").value == system.iommu.requests
