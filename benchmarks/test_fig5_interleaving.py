"""Fig 5: fraction of instructions whose walks interleave (FCFS).

Paper: 45-77% of multi-walk instructions have their page-walk requests
interleaved with other instructions' requests under FCFS.  Our model's
request streams multiplex only through the shared L2 TLB port, so the
measured fractions are lower, but interleaving must be present on every
motivation workload.
"""

from benchmarks.conftest import by_workload, paper_figure


def test_fig5_interleaving(benchmark, figure_store):
    figure = paper_figure(benchmark, "fig5_interleaving", figure_store)
    data = by_workload(figure, "interleaved_fraction")
    for workload, fraction in data.items():
        assert 0.0 < fraction < 1.0, workload
    assert max(data.values()) > 0.15
