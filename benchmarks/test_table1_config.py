"""Table I: the baseline system configuration."""

from repro.config import table1_rows
from repro.stats.formatting import text_table

from benchmarks.conftest import run_once


def test_table1_configuration(benchmark):
    table = run_once(benchmark, table1_rows)
    print()
    print(text_table(
        "Table I: The baseline system configuration.",
        ["component", "configuration"], table,
    ))
    rows = {row["component"]: row["configuration"] for row in table}
    # The paper's Table I rows, verbatim-checkable fragments.
    assert "2GHz, 8 CUs" in rows["GPU"]
    assert "64 threads per wavefront" in rows["GPU"]
    assert rows["L1 Data Cache"].startswith("32KB, 16-way")
    assert rows["L2 Data Cache"].startswith("4MB, 16-way")
    assert rows["L1 TLB"] == "32 entries, Fully-associative"
    assert rows["L2 TLB"] == "512 entries, 16-way set associative"
    assert "256 buffer entries" in rows["IOMMU"]
    assert "8 page table walkers" in rows["IOMMU"]
    assert "32/256 entries" in rows["IOMMU"]
    assert "FCFS scheduling" in rows["IOMMU"]
    assert "DDR3-1600" in rows["DRAM"]
