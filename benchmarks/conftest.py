"""Benchmark harness configuration.

Every benchmark regenerates one of the paper's tables or figures at the
*benchmark scale* below, prints the resulting rows in the paper's
shape, and asserts the qualitative claims (who wins, directionality).

Paper figures run through :func:`repro.obs.figures.run_figure` on
``JOBS`` worker processes, with one checkpoint store for the whole
session: figures that share runs — Figs 8-12 all reuse the same
FCFS/SIMT pairs — only pay for them once, so each distinct spec is
simulated once per session.  Each benchmark is timed with
``benchmark.pedantic(rounds=1)``: the quantity of interest is the
figure's regeneration cost, not statistical timing noise, and a second
round would be served from the store anyway.
"""

from __future__ import annotations

import pytest

from repro.obs.figures import run_figure

#: Run size used by every figure benchmark: half-length traces over two
#: waves of the baseline GPU's 32 wavefront slots.  This is the scale at
#: which EXPERIMENTS.md's paper-vs-measured numbers were recorded.
BENCH = dict(scale=0.5, num_wavefronts=64)

#: Worker processes per paper-figure sweep.
JOBS = 2


@pytest.fixture
def bench_params():
    return dict(BENCH)


@pytest.fixture(scope="session")
def figure_store(tmp_path_factory):
    """The session's checkpoint store, shared by every paper figure."""
    return str(tmp_path_factory.mktemp("paper-runs"))


def run_once(benchmark, func, *args, **kwargs):
    """Execute ``func`` exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def paper_figure(benchmark, name, store):
    """Run registry figure ``name`` at benchmark scale once, print its
    rows, and return it."""
    figure = run_once(
        benchmark, run_figure, name, jobs=JOBS, checkpoint=store, **BENCH
    )
    print()
    print(figure.text())
    return figure


def by_workload(figure, column, **match):
    """``{workload: row[column]}`` over the figure rows matching ``match``."""
    return {
        row["workload"]: row[column]
        for row in figure.rows
        if all(row[key] == value for key, value in match.items())
    }
