"""Shared fixtures: small, fast system configurations for tests."""

from __future__ import annotations

import pytest

from repro.config import SystemConfig
from repro.resilience.campaign import campaign_config

#: Run size for paper-figure sweeps in tests: tiny traces, few wavefronts.
TINY_RUN = dict(scale=0.05, num_wavefronts=4)


def tiny_config(scheduler: str = "fcfs") -> SystemConfig:
    """A scaled-down machine that keeps integration tests fast: the
    fault campaign's (4 CUs, 2 wavefront slots each, small TLBs/caches,
    4 walkers)."""
    return campaign_config(scheduler)


def dispatched_system(config, workload, scale=0.1, seed=0, num_wavefronts=8,
                      trace=None):
    """``build_system(config)`` with ``workload``'s trace dispatched on
    it, ready for ``system.simulator.run()``."""
    from repro.experiments.runner import build_system
    from repro.workloads.registry import get_workload

    system = build_system(config, trace=trace)
    bench = get_workload(workload, scale=scale, seed=seed)
    system.gpu.dispatch(bench.build_trace(
        num_wavefronts=num_wavefronts,
        wavefront_size=config.gpu.wavefront_size,
    ))
    return system


@pytest.fixture
def config():
    return tiny_config()


@pytest.fixture
def simt_config():
    return tiny_config("simt")


def figure_from_sweep(name, workloads, **run):
    """Build paper figure ``name`` from its own sweep, cut down to
    ``workloads`` (run size ``run``, default :data:`TINY_RUN`)."""
    from repro.experiments.runner import run_many_resilient
    from repro.obs.aggregate import fleet_report
    from repro.obs.figures import FIGURES, CampaignData

    run = dict(TINY_RUN, **run)
    definition = FIGURES[name]
    reports = []
    for campaign in definition.sweep:
        specs = [
            spec
            for spec in campaign.specs(run["scale"], run["num_wavefronts"], 0, None)
            if spec["workload"] in workloads
        ]
        outcomes = run_many_resilient(specs)
        reports.append(
            (campaign.label, fleet_report(specs, outcomes, definition.baseline))
        )
    return definition.build(
        CampaignData.from_reports(reports, baseline=definition.baseline)
    )
