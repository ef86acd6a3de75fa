"""Tests for result export, the bench envelope and percentile helpers."""

import json

import pytest

from repro.gpu.wavefront import InstructionRecord
from repro.stats.export import (
    BENCH_FORMAT,
    bench_environment,
    load_results,
    percentiles,
    result_to_dict,
    save_results,
    walk_latency_percentiles,
    write_bench_report,
)
from repro.stats.formatting import format_number
from repro.stats.metrics import SimulationResult


class TestPercentiles:
    def test_median_of_odd_set(self):
        assert percentiles([3, 1, 2], points=(50,))[50] == 2

    def test_interpolation(self):
        result = percentiles([0, 10], points=(50,))
        assert result[50] == pytest.approx(5.0)

    def test_extremes(self):
        values = list(range(101))
        result = percentiles(values, points=(0, 100))
        assert result[0] == 0
        assert result[100] == 100

    def test_single_sample(self):
        assert percentiles([7.0], points=(50, 99))[99] == 7.0

    def test_single_sample_is_every_percentile(self):
        result = percentiles([7.0], points=(0, 50, 99, 99.9, 100))
        assert result == {0: 7.0, 50: 7.0, 99: 7.0, 99.9: 7.0, 100: 7.0}

    def test_single_sample_still_validates_points(self):
        with pytest.raises(ValueError):
            percentiles([7.0], points=(101,))

    def test_default_points_include_p999(self):
        values = list(range(10_001))
        result = percentiles(values)
        assert set(result) == {50, 90, 99, 99.9}
        assert result[99.9] == pytest.approx(9990.0)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentiles([])

    def test_out_of_range_point(self):
        with pytest.raises(ValueError):
            percentiles([1], points=(101,))


def make_record(latencies):
    record = InstructionRecord(instruction_id=0, wavefront_id=0, issue_time=0)
    record.walk_latencies = list(latencies)
    return record


class TestWalkLatencyPercentiles:
    def test_aggregates_across_records(self):
        records = [make_record([100, 200]), make_record([300])]
        result = walk_latency_percentiles(records, points=(50,))
        assert result[50] == 200

    def test_no_walks_yields_zeros(self):
        assert walk_latency_percentiles([make_record([])], points=(50,)) == {
            50: 0.0
        }

    def test_default_points_include_p999(self):
        result = walk_latency_percentiles([make_record([100, 200])])
        assert set(result) == {50, 90, 99, 99.9}
        no_walks = walk_latency_percentiles([make_record([])])
        assert no_walks == {50: 0.0, 90: 0.0, 99: 0.0, 99.9: 0.0}


def make_result():
    return SimulationResult(
        workload="MVT",
        scheduler="simt",
        total_cycles=1000,
        instructions=10,
        wavefronts=2,
        stall_cycles=500,
        walks_dispatched=50,
        walk_memory_accesses=150,
        interleaved_fraction=0.25,
        first_walk_latency=100.0,
        last_walk_latency=400.0,
        wavefronts_per_epoch=8.0,
        walk_work_fractions=[0.5, 0.5, 0, 0, 0, 0],
        detail={"iommu": {"requests": 60}},
    )


class TestResultExport:
    def test_result_to_dict_includes_derived(self):
        data = result_to_dict(make_result())
        assert data["workload"] == "MVT"
        assert data["latency_gap"] == pytest.approx(300.0)
        assert data["detail"]["iommu"]["requests"] == 60

    def test_save_and_load_round_trip(self, tmp_path):
        path = tmp_path / "results.json"
        save_results([make_result(), make_result()], path)
        loaded = load_results(path)
        assert len(loaded) == 2
        assert loaded[0]["scheduler"] == "simt"

    def test_single_result_accepted(self, tmp_path):
        path = tmp_path / "one.json"
        save_results(make_result(), path)
        assert len(load_results(path)) == 1

    def test_foreign_file_rejected(self, tmp_path):
        path = tmp_path / "foreign.json"
        path.write_text('{"format": "nope"}')
        with pytest.raises(ValueError):
            load_results(path)


class TestBenchReport:
    def test_write_and_load_round_trip(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        document = write_bench_report("x", {"metric": 1.5}, path)
        loaded = json.loads(path.read_text())
        assert loaded == document
        assert loaded["format"] == BENCH_FORMAT and loaded["bench"] == "x"
        assert loaded["data"] == {"metric": 1.5}
        assert loaded["environment"]["python"]

    def test_bench_environment_keys(self):
        env = bench_environment()
        assert {"python", "platform", "machine", "cpu_count"} <= set(env)


class TestFormatNumber:
    def test_tiny_floats_never_use_scientific_notation(self):
        for value in (3e-07, 2.5e-07, -1.6667e-05):
            for decimals in (1, 4, 6, 8):
                text = format_number(value, decimals=decimals)
                assert "e" not in text.lower(), text
        assert format_number(3e-07) == "0"
        assert format_number(3e-07, decimals=7) == "0.0000003"
