"""Paper figures through ``run_figure``, at tiny scale.

These verify each paper figure's *shape* — campaigns, keys,
normalisation, bounds — and the sweep machinery (shared checkpoint
store, worker-count independence), not the paper's magnitudes (the
benchmark harness under ``benchmarks/`` is responsible for those).
"""

import pytest

from repro.config import table1_rows
from repro.experiments import runner
from repro.obs.figures import (
    FIG13_VARIANTS,
    FIG14_VARIANTS,
    FIGURES,
    GEOMEAN_LABEL,
    MOTIVATION_WORKLOADS,
    paper_figure,
    run_figure,
    validate_figure,
)
from repro.resilience.outcomes import SpecExecutionError
from repro.stats.metrics import geometric_mean
from repro.workloads.registry import (
    IRREGULAR_WORKLOADS,
    REGULAR_WORKLOADS,
    table2_rows,
)
from tests.conftest import TINY_RUN, figure_from_sweep

PAPER_FIGURES = [name for name, definition in FIGURES.items() if definition.sweep]


@pytest.fixture(scope="module")
def store(tmp_path_factory):
    """One checkpoint store for the module: figures share their runs."""
    return str(tmp_path_factory.mktemp("figure-runs"))


def tiny(name, store, **kwargs):
    return run_figure(name, checkpoint=store, **TINY_RUN, **kwargs)


def column(figure, name, **match):
    """``{workload: row[name]}`` over the rows matching ``match``."""
    return {
        row["workload"]: row[name]
        for row in figure.rows
        if all(row[key] == value for key, value in match.items())
    }


@pytest.mark.parametrize("name", PAPER_FIGURES)
def test_paper_figure_builds_and_validates(name, store):
    figure = tiny(name, store)
    assert validate_figure(figure) == []
    assert figure.text().startswith(figure.spec["title"])


def test_fig2_shape(store):
    figure = tiny("fig2_scheduler_impact", store)
    assert {row["workload"] for row in figure.rows} == set(MOTIVATION_WORKLOADS)
    for workload in MOTIVATION_WORKLOADS:
        speedups = {
            row["scheduler"]: row["speedup"]
            for row in figure.rows if row["workload"] == workload
        }
        assert set(speedups) == {"random", "fcfs", "simt"}
        assert speedups["random"] == pytest.approx(1.0)


def test_fig3_fractions_are_distributions(store):
    figure = tiny("fig3_walk_work_distribution", store)
    by_workload = {}
    for row in figure.rows:
        by_workload.setdefault(row["workload"], {})[row["bucket"]] = row["fraction"]
    assert set(by_workload) == set(MOTIVATION_WORKLOADS)
    for workload, buckets in by_workload.items():
        assert set(buckets) == {"1-16", "17-32", "33-48", "49-64", "65-80", "81-256"}
        assert 0.0 <= sum(buckets.values()) <= 1.0 + 1e-5, workload


def test_fig5_fractions_bounded(store):
    figure = tiny("fig5_interleaving", store)
    for value in column(figure, "interleaved_fraction").values():
        assert 0.0 <= value <= 1.0


def test_fig6_normalised_to_first(store):
    figure = tiny("fig6_first_last_latency", store)
    for row in figure.rows:
        assert row["last_walk_latency"] / row["first_walk_latency"] >= 1.0


def test_fig8_includes_every_workload_and_means(store):
    figure = tiny("fig8_speedup", store)
    speedups = column(figure, "speedup", scheduler="simt")
    assert set(speedups) == set(IRREGULAR_WORKLOADS + REGULAR_WORKLOADS) | {
        GEOMEAN_LABEL
    }
    irregular = geometric_mean(speedups[w] for w in IRREGULAR_WORKLOADS)
    regular = geometric_mean(speedups[w] for w in REGULAR_WORKLOADS)
    assert irregular > 0 and regular > 0


def test_fig8_subset_of_workloads():
    figure = figure_from_sweep("fig8_speedup", ("MVT",))
    assert {row["workload"] for row in figure.rows} == {"MVT", GEOMEAN_LABEL}


def test_fig9_normalised_stalls_positive(store):
    figure = tiny("fig9_stalls", store)
    normalised = column(figure, "normalised")
    assert set(normalised) == set(IRREGULAR_WORKLOADS + REGULAR_WORKLOADS)
    assert all(value > 0 for value in normalised.values() if value is not None)


def test_fig10_and_fig11_have_means(store):
    for name in ("fig10_latency_gap", "fig11_walk_count"):
        normalised = column(tiny(name, store), "normalised")
        assert set(normalised) == set(IRREGULAR_WORKLOADS), name
        present = [value for value in normalised.values() if value is not None]
        assert present and geometric_mean(present) > 0, name


def test_fig12_epoch_ratios_positive(store):
    normalised = column(tiny("fig12_active_wavefronts", store), "normalised")
    assert normalised["MVT"] > 0


def test_fig13_variants(store):
    figure = tiny("fig13_sensitivity", store)
    assert {row["campaign"] for row in figure.rows} == set(FIG13_VARIANTS)
    for variant in FIG13_VARIANTS:
        speedups = column(figure, "speedup", campaign=variant)
        assert set(speedups) == set(IRREGULAR_WORKLOADS) | {GEOMEAN_LABEL}
    with pytest.raises(ValueError, match="unknown figure"):
        paper_figure("fig13_bogus")
    with pytest.raises(ValueError, match="no paper sweep"):
        run_figure("latency_cdf", **TINY_RUN)


def test_fig14_buffer_sweep(store):
    figure = tiny("fig14_sensitivity", store)
    assert {row["campaign"] for row in figure.rows} == set(FIG14_VARIANTS)
    for variant in FIG14_VARIANTS:
        assert column(figure, "speedup", campaign=variant)["MVT"] > 0
    # A sweep whose specs fail raises instead of drawing a partial figure.
    with pytest.raises(SpecExecutionError):
        run_figure("fig14_sensitivity", scale=-1.0, num_wavefronts=4)


def test_run_cache_reuses_results(store, monkeypatch):
    first = tiny("fig5_interleaving", store)

    def no_simulation(**_spec):
        raise AssertionError("a checkpointed spec was simulated again")

    monkeypatch.setattr(runner, "run_simulation", no_simulation)
    assert tiny("fig5_interleaving", store).rows == first.rows
    # Fig 6 runs the same FCFS specs as Fig 5: nothing new to simulate.
    tiny("fig6_first_last_latency", store)


def test_jobs_do_not_change_rows_or_csv():
    serial = run_figure("fig14_sensitivity", jobs=1, **TINY_RUN)
    parallel = run_figure("fig14_sensitivity", jobs=2, **TINY_RUN)
    assert serial.rows == parallel.rows
    assert serial.csv() == parallel.csv()
    assert serial.spec_json() == parallel.spec_json()


def test_table1_matches_paper_rows():
    table = {row["component"]: row["configuration"] for row in table1_rows()}
    assert table["L1 TLB"] == "32 entries, Fully-associative"
    assert "512 entries" in table["L2 TLB"]
    assert "8 page table walkers" in table["IOMMU"]
    assert "DDR3-1600" in table["DRAM"]
    assert "2GHz, 8 CUs" in table["GPU"]


def test_table2_lists_twelve_benchmarks():
    rows = table2_rows(scale=0.05)
    assert len(rows) == 12
    assert {row["abbrev"] for row in rows} == set(
        IRREGULAR_WORKLOADS + REGULAR_WORKLOADS
    )
    for row in rows:
        assert row["modelled_footprint_mb"] > 0
