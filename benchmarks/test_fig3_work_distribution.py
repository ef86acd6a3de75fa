"""Fig 3: distribution of per-instruction page-walk memory accesses.

Paper: 27-61% of walk-generating instructions need 1-16 accesses while
33-70% need 49+, i.e. the distribution is strongly bimodal — the
variance that makes shortest-job-first scheduling worthwhile.
"""

from benchmarks.conftest import paper_figure

LIGHT = "1-16"
HEAVY = ("49-64", "65-80", "81-256")


def test_fig3_work_distribution(benchmark, figure_store):
    figure = paper_figure(benchmark, "fig3_walk_work_distribution", figure_store)
    data = {}
    for row in figure.rows:
        data.setdefault(row["workload"], {})[row["bucket"]] = row["fraction"]
    for workload, row in data.items():
        light = row[LIGHT]
        heavy = sum(row[bucket] for bucket in HEAVY)
        # Bimodal: both a light population and a heavy population exist.
        assert light > 0.05, f"{workload} lacks light instructions"
        assert heavy > 0.20, f"{workload} lacks heavy instructions"
