"""Fig 13: sensitivity to GPU L2 TLB size and walker count.

Paper: the win over FCFS shrinks as translation resources grow —
30% baseline → 25% with a 1024-entry L2 TLB (13a) → 8.4% with 16
walkers (13b) → 5.3% with both (13c) — but stays positive everywhere.
"""

import pytest

from repro.obs.figures import GEOMEAN_LABEL
from repro.stats.metrics import geometric_mean
from repro.workloads.registry import IRREGULAR_WORKLOADS

from benchmarks.conftest import by_workload, paper_figure

#: Collected per-variant means, so the cross-variant ordering assertion
#: can run after all three variants have been benchmarked.
_means = {}


@pytest.mark.parametrize(
    "variant",
    ["a_1024tlb_8walkers", "b_512tlb_16walkers", "c_1024tlb_16walkers"],
)
def test_fig13_sensitivity(benchmark, figure_store, variant):
    figure = paper_figure(benchmark, "fig13_sensitivity", figure_store)
    mean = by_workload(figure, "speedup", campaign=variant)[GEOMEAN_LABEL]
    _means[variant] = mean
    # The win survives every resource increase.
    assert mean > 1.0


def test_fig13_win_shrinks_with_resources(benchmark, figure_store):
    """More translation resources leave less headroom (needs the three
    parametrised benchmarks above to have run first)."""
    if len(_means) < 3:
        pytest.skip("variant benchmarks did not all run")
    speedups = by_workload(
        paper_figure(benchmark, "fig8_speedup", figure_store), "speedup",
        scheduler="simt",
    )
    baseline = geometric_mean(speedups[w] for w in IRREGULAR_WORKLOADS)
    assert _means["b_512tlb_16walkers"] < baseline
    assert _means["c_1024tlb_16walkers"] < baseline
