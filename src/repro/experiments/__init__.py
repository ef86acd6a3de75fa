"""Experiment harness: single runs, sweeps and multi-app co-runs.

The paper's figures are defined in :mod:`repro.obs.figures` and run
through :func:`repro.obs.figures.run_figure`.
"""

from repro.experiments.runner import (
    build_system,
    compare_schedulers,
    run_simulation,
)
from repro.experiments.multitenancy import (
    MultiAppResult,
    qos_comparison,
    run_multi_simulation,
)

__all__ = [
    "MultiAppResult",
    "build_system",
    "compare_schedulers",
    "qos_comparison",
    "run_multi_simulation",
    "run_simulation",
]
