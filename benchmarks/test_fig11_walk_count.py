"""Fig 11: number of page-table walks, SIMT-aware normalised to FCFS.

Paper: the scheduler reduces the number of walks (TLB misses) by 21% on
average (up to 30%) — deferring translation-heavy instructions keeps
them from thrashing the TLBs, so low-overhead instructions hit more.
"""

from repro.stats.metrics import geometric_mean

from benchmarks.conftest import by_workload, paper_figure


def test_fig11_walk_count(benchmark, figure_store):
    figure = paper_figure(benchmark, "fig11_walk_count", figure_store)
    data = by_workload(figure, "normalised", scheduler="simt")
    # Walk count must shrink in aggregate and never grow materially.
    assert geometric_mean(data.values()) < 1.0
    for workload, ratio in data.items():
        assert ratio < 1.08, workload
    # At least one workload shows a pronounced thrash reduction.
    assert min(data.values()) < 0.85
