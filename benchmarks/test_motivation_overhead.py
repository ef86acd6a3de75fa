"""§I motivation: irregular GPU applications bottleneck on translation.

The paper opens from the observation (Vesely et al., ISPASS 2016) that
divergent memory accesses can slow an irregular GPU application down by
up to 3.7-4× from address-translation overheads alone.  This bench
measures each workload's FCFS runtime against an oracle MMU (free,
never-missing translation): the irregular group must show multi-×
overheads, the regular group near-none — the asymmetry every other
result in the paper rests on.
"""

from repro.stats.metrics import geometric_mean
from repro.workloads.registry import IRREGULAR_WORKLOADS, REGULAR_WORKLOADS

from benchmarks.conftest import by_workload, paper_figure


def test_motivation_translation_overhead(benchmark, figure_store):
    figure = paper_figure(benchmark, "translation_overhead", figure_store)
    data = by_workload(figure, "slowdown", campaign="mmu")
    irregular = [data[w] for w in IRREGULAR_WORKLOADS]
    regular = [data[w] for w in REGULAR_WORKLOADS]
    # Irregular applications suffer materially from translation...
    assert geometric_mean(irregular) > 1.5
    assert max(irregular) > 2.0
    # ...while regular applications barely notice it.
    assert geometric_mean(regular) < 1.35
    # The asymmetry itself (the paper's premise).
    assert geometric_mean(irregular) > geometric_mean(regular) + 0.4
