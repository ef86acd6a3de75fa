"""Smoke tests for the §I-motivation translation-overhead figure."""

from repro.obs.figures import run_figure
from tests.conftest import TINY_RUN, figure_from_sweep


def _slowdowns(figure):
    return {
        row["workload"]: row["slowdown"]
        for row in figure.rows if row["campaign"] == "mmu"
    }


def test_overhead_is_at_least_one():
    figure = run_figure("translation_overhead", **TINY_RUN)
    for workload, overhead in _slowdowns(figure).items():
        assert overhead >= 1.0, workload
    # The oracle campaign is the reference every slowdown divides by.
    assert {
        row["slowdown"] for row in figure.rows if row["campaign"] == "oracle"
    } == {1.0}


def test_divergent_workload_suffers_more_than_regular():
    # Needs enough concurrent wavefronts for walker contention to form;
    # at very small scales MVT's overhead has not materialised yet.
    figure = figure_from_sweep(
        "translation_overhead", ("MVT", "HOT"), scale=0.25, num_wavefronts=16
    )
    data = _slowdowns(figure)
    assert data["MVT"] > data["HOT"]


def test_requested_workloads_only():
    figure = figure_from_sweep("translation_overhead", ("KMN",))
    assert set(_slowdowns(figure)) == {"KMN"}
