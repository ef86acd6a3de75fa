"""Cross-run aggregation: registry merging and the fleet report.

Determinism is the contract under test: merged registries and fleet
reports must come out identical whatever order the sweep's workers
finished in, and the report's only non-reproducible fields must live
under its ``wall`` / ``telemetry`` keys.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import run_many, run_many_resilient
from repro.obs.aggregate import (
    deterministic_view,
    distribution,
    fleet_markdown,
    fleet_report,
    render_fleet_report,
    sweep_specs,
)
from repro.obs.metrics import MetricsRegistry

from tests.conftest import tiny_config
from tests.test_resilient_runner import BrokenWorkload


# ----------------------------------------------------------------------
# MetricsRegistry merge semantics
# ----------------------------------------------------------------------


def test_merge_empty_registries():
    merged = MetricsRegistry()
    merged.merge(MetricsRegistry())
    data = merged.as_dict()
    assert data["counters"] == {} and data["gauges"] == {}
    assert data["histograms"] == {}


def test_merge_counters_sum():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("walks").inc(3)
    b.counter("walks").inc(4)
    a.merge(b)
    assert a.counter("walks").value == 7


def test_merge_disjoint_metric_names():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.counter("only_a").inc(1)
    b.counter("only_b").inc(2)
    b.gauge("depth").set(5)
    b.histogram("lat", [(0, 9), (10, 99)]).add(4)
    a.merge(b)
    data = a.as_dict()
    assert data["counters"] == {"only_a": 1, "only_b": 2}
    assert data["gauges"]["depth"]["max"] == 5
    assert data["histograms"]["lat"]["counts"] == [1, 0]


def test_merge_gauge_watermarks():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("occupancy").set(10)
    a.gauge("occupancy").set(2)
    b.gauge("occupancy").set(7)
    a.merge(b)
    gauge = a.gauge("occupancy")
    assert gauge.min_value == 2 and gauge.max_value == 10
    assert gauge.value == 7  # other's last observation wins
    assert gauge.samples == 3


def test_merge_empty_gauge_keeps_watermarks():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.gauge("occupancy").set(4)
    b.gauge("occupancy")  # declared, never set
    a.merge(b)
    gauge = a.gauge("occupancy")
    assert gauge.min_value == 4 and gauge.max_value == 4
    assert gauge.samples == 1


def test_merge_histograms_bucketwise():
    buckets = [(0, 9), (10, 99)]
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("lat", buckets).add(5)
    b.histogram("lat", buckets).add(50)
    b.histogram("lat", buckets).add(500)  # out of range
    a.merge(b)
    merged = a.histogram("lat", buckets)
    assert merged.counts() == [1, 1]
    assert merged.out_of_range == 1
    assert merged.total == 3


def test_merge_histogram_bucket_mismatch_raises():
    a, b = MetricsRegistry(), MetricsRegistry()
    a.histogram("lat", [(0, 9)]).add(5)
    b.histogram("lat", [(0, 99)]).add(5)
    with pytest.raises(ValueError):
        a.merge(b)


def test_from_dict_as_dict_round_trip():
    registry = MetricsRegistry()
    registry.counter("walks").inc(5)
    registry.gauge("depth").set(3)
    registry.gauge("depth").set(9)
    registry.histogram("lat", [(0, 9), (10, 99)]).add(42)
    dump = registry.as_dict()
    rebuilt = MetricsRegistry.from_dict(dump)
    assert rebuilt.as_dict() == dump


def test_merge_is_order_independent():
    def registry(values):
        r = MetricsRegistry()
        for v in values:
            r.counter("n").inc(v)
            r.gauge("g").set(v)
            r.histogram("h", [(0, 9), (10, 99)]).add(v)
        return r

    parts = [registry([1, 12]), registry([7]), registry([3, 95])]
    forward, backward = MetricsRegistry(), MetricsRegistry()
    for part in parts:
        forward.merge(MetricsRegistry.from_dict(part.as_dict()))
    for part in reversed(parts):
        backward.merge(MetricsRegistry.from_dict(part.as_dict()))
    forward_dump, backward_dump = forward.as_dict(), backward.as_dict()
    # Everything except the last-write gauge value is order-independent.
    for dump in (forward_dump, backward_dump):
        dump["gauges"]["g"].pop("value")
    assert forward_dump == backward_dump


# ----------------------------------------------------------------------
# distribution()
# ----------------------------------------------------------------------


def test_distribution_single_sample():
    assert distribution([4]) == {
        "count": 1, "mean": 4.0, "min": 4.0, "max": 4.0, "stdev": 0.0,
    }


def test_distribution_spread():
    stats = distribution([2, 4, 6])
    assert stats["count"] == 3 and stats["mean"] == 4.0
    assert stats["min"] == 2.0 and stats["max"] == 6.0
    assert stats["stdev"] == 2.0


def test_distribution_rejects_empty():
    with pytest.raises(ValueError):
        distribution([])


# ----------------------------------------------------------------------
# Fleet report
# ----------------------------------------------------------------------


def _tiny_sweep(metrics=False):
    return sweep_specs(
        ["MVT"], ["fcfs", "simt"], range(2),
        config=tiny_config(), num_wavefronts=4, scale=0.05, metrics=metrics,
    )


def test_sweep_specs_matrix_order():
    specs = sweep_specs(["A", "B"], ["x", "y"], range(2))
    triples = [(s["workload"], s["scheduler"], s["seed"]) for s in specs]
    assert triples == [
        ("A", "x", 0), ("A", "x", 1), ("A", "y", 0), ("A", "y", 1),
        ("B", "x", 0), ("B", "x", 1), ("B", "y", 0), ("B", "y", 1),
    ]


def test_fleet_report_shape_and_speedups():
    specs = _tiny_sweep()
    outcomes = run_many_resilient(specs)
    report = fleet_report(specs, outcomes)
    assert report["specs"] == 4 and report["ok"] == 4
    assert set(report["groups"]) == {"MVT/fcfs", "MVT/simt"}
    assert report["groups"]["MVT/fcfs"]["runs"] == 2
    simt = report["speedup_vs_baseline"]["simt"]
    assert simt["pairs"] == 2
    assert simt["geomean"] > 0
    assert "MVT" in simt["per_workload"]
    # fcfs is the baseline: it never appears as a speedup row.
    assert "fcfs" not in report["speedup_vs_baseline"]
    assert "sweep_seconds" in report["wall"]


def test_fleet_report_rows_use_run_simulation_defaults():
    # A spec that leaves scale and num_wavefronts out runs at
    # run_simulation's defaults, and its row must say so.
    from repro.config import DEFAULT_SCALE, DEFAULT_WAVEFRONTS

    specs = [{"workload": "KMN", "config": tiny_config(), "scheduler": "fcfs"}]
    outcomes = run_many_resilient(specs)
    (row,) = fleet_report(specs, outcomes)["runs"]
    assert row["scale"] == DEFAULT_SCALE == 1.0
    assert row["wavefronts"] == DEFAULT_WAVEFRONTS == 64
    assert outcomes[0].result.wavefronts == DEFAULT_WAVEFRONTS


def test_fleet_report_identical_across_worker_orderings():
    specs = _tiny_sweep()
    serial = fleet_report(specs, run_many_resilient(specs, jobs=1))
    parallel = fleet_report(specs, run_many_resilient(specs, jobs=2))
    assert json.dumps(
        deterministic_view(serial), sort_keys=True
    ) == json.dumps(deterministic_view(parallel), sort_keys=True)


def test_fleet_report_merges_metrics_per_scheduler():
    specs = _tiny_sweep(metrics=True)
    outcomes = run_many_resilient(specs)
    report = fleet_report(specs, outcomes)
    merged = report["metrics_by_scheduler"]
    assert set(merged) == {"fcfs", "simt"}
    for dump in merged.values():
        assert "series" not in dump
        assert dump["counters"]
    # Two runs merged: counters are the sum of both runs' counters.
    singles = [
        MetricsRegistry.from_dict(o.result.detail["metrics"])
        for o, s in zip(outcomes, specs) if s["scheduler"] == "fcfs"
    ]
    total = sum(r.counter("iommu.walks_dispatched").value for r in singles)
    assert merged["fcfs"]["counters"]["iommu.walks_dispatched"] == total


def test_fleet_report_counts_failures():
    specs = [
        {"workload": "MVT", "config": tiny_config(),
         "num_wavefronts": 4, "scale": 0.05, "seed": 0},
        {"workload": BrokenWorkload("raise"),
         "config": tiny_config(), "num_wavefronts": 4},
    ]
    outcomes = run_many_resilient(specs)
    report = fleet_report(specs, outcomes)
    assert report["ok"] == 1 and report["failed"] == 1
    assert len(report["failures"]) == 1
    assert report["failures"][0]["error_type"] == "RuntimeError"
    # The failed run contributes to no distribution.
    assert all(g["runs"] == 1 for g in report["groups"].values())


def test_fleet_report_empty_speedup_group_is_explicit():
    # Every baseline run fails: the surviving scheduler has nothing to
    # pair against and must get an explicit "pairs": 0 row — not feed an
    # empty sample set to geometric_mean and crash the whole report.
    specs = [
        {"workload": BrokenWorkload("raise"), "config": tiny_config(),
         "num_wavefronts": 4},
        {"workload": "MVT", "config": tiny_config(), "scheduler": "simt",
         "num_wavefronts": 4, "scale": 0.05, "seed": 0},
    ]
    outcomes = run_many_resilient(specs)
    report = fleet_report(specs, outcomes)
    assert report["failed"] == 1 and report["ok"] == 1
    assert report["speedup_vs_baseline"] == {"simt": {"pairs": 0}}
    markdown = fleet_markdown(report)
    assert "| simt | — | — | — | — | 0 |" in markdown


def test_fleet_report_rejects_mismatched_lengths():
    specs = _tiny_sweep()
    with pytest.raises(ValueError, match="specs"):
        fleet_report(specs, [])


def test_deterministic_view_strips_wall_and_telemetry():
    report = {"wall": {"sweep_seconds": 1.0}, "telemetry": {}, "ok": 2}
    assert deterministic_view(report) == {"ok": 2}


def test_render_and_markdown():
    specs = _tiny_sweep()
    outcomes = run_many_resilient(specs)
    report = fleet_report(
        specs, outcomes,
        telemetry_summary={"total": 4, "ok": 4, "failed": 0,
                           "timeout": 0, "retried": 0},
    )
    rendered = render_fleet_report(report)
    assert json.loads(rendered)["telemetry"]["ok"] == 4
    markdown = fleet_markdown(report)
    assert "# Fleet report" in markdown
    assert "## Speedup vs fcfs" in markdown
    assert "| MVT/fcfs |" in markdown
