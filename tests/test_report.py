"""Unit tests for the aligned text table every figure and table prints."""

from repro.config import table1_rows
from repro.stats.formatting import text_table
from repro.workloads.registry import table2_rows


def test_render_series_aligns_rows():
    text = text_table(
        "Fig X", ["workload", "value"],
        [{"workload": "MVT", "value": 1.234}, {"workload": "ATX", "value": 0.9}],
    )
    lines = text.splitlines()
    assert lines[:2] == ["Fig X", "====="]
    assert "MVT" in text and "1.234" in text and "0.900" in text
    # Numbers align right, so every body line ends in the same column.
    assert len({len(line) for line in lines[2:]}) == 1


def test_render_series_handles_long_keys():
    text = text_table(
        "T", ["workload", "value"], [{"workload": "Mean(irregular)", "value": 1.3}]
    )
    assert "Mean(irregular)  1.300" in text


def test_render_grouped_uses_columns():
    rows = [{"workload": "MVT", "fcfs": 1.0, "simt": 1.3, "extra": "x"}]
    text = text_table("Fig", ["workload", "fcfs", "simt"], rows)
    assert "fcfs" in text and "simt" in text and "1.300" in text
    assert "extra" not in text


def test_render_grouped_empty():
    assert "(no data)" in text_table("Fig", ["workload"], [])


def test_render_grouped_infers_columns():
    # A figure renders its own columns under its chart title.
    from repro.obs.figures import Figure

    figure = Figure(
        name="f", title="F", description="", columns=["a", "b"],
        rows=[{"a": "x", "b": None}], spec={"title": "Fig F"},
    )
    assert figure.text().splitlines() == ["Fig F", "=====", "a  b", "x  —"]


def test_render_table1():
    text = text_table("Table I", ["component", "configuration"], table1_rows())
    assert "Table I" in text
    assert "IOMMU" in text


def test_render_table2():
    rows = table2_rows(scale=0.05)
    text = text_table("Table II", list(rows[0]), rows)
    assert "Table II" in text
    assert "XSB" in text and "HOT" in text
