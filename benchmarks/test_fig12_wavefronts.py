"""Fig 12: distinct wavefronts touching the GPU L2 TLB per epoch.

Paper: the SIMT-aware scheduler reduces the number of distinct
wavefronts accessing the shared L2 TLB within a 1024-access epoch by
42% on average — the mechanism behind Fig 11's walk reduction (less
inter-wavefront contention in the TLB).
"""

from repro.stats.metrics import geometric_mean

from benchmarks.conftest import by_workload, paper_figure


def test_fig12_active_wavefronts(benchmark, figure_store):
    figure = paper_figure(benchmark, "fig12_active_wavefronts", figure_store)
    data = by_workload(figure, "normalised", scheduler="simt")
    assert geometric_mean(data.values()) < 1.0
    # The strongest concentration effect should be pronounced.
    assert min(data.values()) < 0.9
