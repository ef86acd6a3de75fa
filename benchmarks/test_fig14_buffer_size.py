"""Fig 14: sensitivity to the IOMMU buffer size (scheduler lookahead).

Paper: with a 128-entry buffer the speedup drops to 13%; with a
512-entry buffer it jumps to 50%.  The buffer bounds how far the
scheduler can look ahead, so the win must grow monotonically with it.
"""

import pytest

from repro.obs.figures import GEOMEAN_LABEL
from repro.stats.metrics import geometric_mean
from repro.workloads.registry import IRREGULAR_WORKLOADS

from benchmarks.conftest import by_workload, paper_figure

_means = {}


@pytest.mark.parametrize("buffer_entries", [128, 512])
def test_fig14_buffer_size(benchmark, figure_store, buffer_entries):
    figure = paper_figure(benchmark, "fig14_sensitivity", figure_store)
    speedups = by_workload(figure, "speedup", campaign=f"buffer_{buffer_entries}")
    _means[buffer_entries] = speedups[GEOMEAN_LABEL]
    assert speedups[GEOMEAN_LABEL] > 1.0


def test_fig14_lookahead_scales_the_win(benchmark, figure_store):
    if len(_means) < 2:
        pytest.skip("buffer benchmarks did not all run")
    speedups = by_workload(
        paper_figure(benchmark, "fig8_speedup", figure_store), "speedup",
        scheduler="simt",
    )
    baseline = geometric_mean(speedups[w] for w in IRREGULAR_WORKLOADS)
    # Paper ordering: 128-entry < 256-entry (baseline) < 512-entry.
    assert _means[128] < baseline < _means[512]
