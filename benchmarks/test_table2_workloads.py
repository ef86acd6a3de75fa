"""Table II: the twelve benchmarks and their memory footprints."""

from repro.stats.formatting import text_table
from repro.workloads.registry import IRREGULAR_WORKLOADS, REGULAR_WORKLOADS, table2_rows

from benchmarks.conftest import run_once


def test_table2_workloads(benchmark):
    rows = run_once(benchmark, table2_rows)
    print()
    print(text_table("Table II: GPU benchmarks for our study.", list(rows[0]), rows))
    assert len(rows) == 12
    by_abbrev = {row["abbrev"]: row for row in rows}
    # Irregular group flagged as in the paper.
    for abbrev in IRREGULAR_WORKLOADS:
        assert by_abbrev[abbrev]["irregular"] is True
    for abbrev in REGULAR_WORKLOADS:
        assert by_abbrev[abbrev]["irregular"] is False
    # Modelled footprints track the paper within 8% (row padding).
    for row in rows:
        ratio = row["modelled_footprint_mb"] / row["paper_footprint_mb"]
        assert 0.92 <= ratio <= 1.08, row["abbrev"]
