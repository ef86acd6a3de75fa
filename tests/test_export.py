"""Tests for the bench envelope and percentile helpers."""

import json

import pytest

from repro.gpu.wavefront import InstructionRecord
from repro.stats.export import (
    BENCH_FORMAT,
    bench_environment,
    percentiles,
    walk_latency_percentiles,
    write_bench_report,
)
from repro.stats.formatting import format_number


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
