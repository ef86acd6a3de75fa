"""Fig 2: performance impact of page-walk scheduling policy.

Paper: Random / FCFS / SIMT-aware on MVT, ATX, BIC, GEV, normalised to
Random.  Performance differs by more than 2.1× across schedules; FCFS
sits between Random and SIMT-aware.
"""

from repro.stats.metrics import geometric_mean

from benchmarks.conftest import by_workload, paper_figure


def test_fig2_scheduler_impact(benchmark, figure_store):
    figure = paper_figure(benchmark, "fig2_scheduler_impact", figure_store)
    simt = list(by_workload(figure, "speedup", scheduler="simt").values())
    fcfs = list(by_workload(figure, "speedup", scheduler="fcfs").values())
    # SIMT-aware must dominate both baselines on these four workloads.
    assert geometric_mean(simt) > geometric_mean(fcfs) > 1.0
    # The paper reports >2.1× spread between best and worst schedule;
    # our lower-fidelity substrate must still show a wide spread.
    assert max(simt) > 1.5
