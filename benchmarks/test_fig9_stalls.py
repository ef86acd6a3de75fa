"""Fig 9: GPU execution-stage stall cycles, SIMT-aware over FCFS.

Paper: the SIMT-aware scheduler reduces CU stall cycles by 23% on
average (up to 29%) for irregular applications; regular applications'
stalls are essentially unchanged.
"""

from repro.stats.metrics import geometric_mean
from repro.workloads.registry import IRREGULAR_WORKLOADS, REGULAR_WORKLOADS

from benchmarks.conftest import by_workload, paper_figure


def test_fig9_stall_cycles(benchmark, figure_store):
    figure = paper_figure(benchmark, "fig9_stalls", figure_store)
    data = by_workload(figure, "normalised", scheduler="simt")
    assert geometric_mean(data[w] for w in IRREGULAR_WORKLOADS) < 0.95
    assert 0.90 <= geometric_mean(data[w] for w in REGULAR_WORKLOADS) <= 1.10
    for workload in IRREGULAR_WORKLOADS:
        assert data[workload] < 1.0, workload
