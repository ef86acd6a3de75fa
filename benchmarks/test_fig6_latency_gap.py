"""Fig 6: latency of the first- vs last-completed walk per instruction.

Paper: under FCFS the last-completed walk of an instruction often takes
2-3× the latency of its first-completed walk — the stall the batching
idea attacks.  Our model's gap is smaller (≈1.3-1.4×) because its
interleaving is milder (see Fig 5 notes in EXPERIMENTS.md), but it must
be material on every motivation workload.
"""

from benchmarks.conftest import paper_figure


def test_fig6_first_last_latency(benchmark, figure_store):
    figure = paper_figure(benchmark, "fig6_first_last_latency", figure_store)
    # Last-completed latency normalised to the first-completed one.
    last = {
        row["workload"]: row["last_walk_latency"] / row["first_walk_latency"]
        for row in figure.rows
    }
    for workload, ratio in last.items():
        # A material gap must exist on every motivation workload.
        assert ratio > 1.2, workload
    assert max(last.values()) > 1.3
