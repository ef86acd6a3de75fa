"""Fig 8: speedup of the SIMT-aware scheduler over FCFS (all 12 apps).

Paper: +30% geometric-mean speedup on the six irregular applications
(up to +41%), with the six regular applications essentially unchanged.
"""

from repro.stats.metrics import geometric_mean
from repro.workloads.registry import IRREGULAR_WORKLOADS, REGULAR_WORKLOADS

from benchmarks.conftest import by_workload, paper_figure


def test_fig8_speedup(benchmark, figure_store):
    figure = paper_figure(benchmark, "fig8_speedup", figure_store)
    data = by_workload(figure, "speedup", scheduler="simt")
    # Headline: large irregular win, regular untouched.
    assert geometric_mean(data[w] for w in IRREGULAR_WORKLOADS) > 1.15
    assert 0.95 <= geometric_mean(data[w] for w in REGULAR_WORKLOADS) <= 1.05
    # Every irregular workload individually benefits.
    for workload in IRREGULAR_WORKLOADS:
        assert data[workload] > 1.0, workload
    # No regular workload is materially hurt.
    for workload in REGULAR_WORKLOADS:
        assert data[workload] > 0.95, workload
