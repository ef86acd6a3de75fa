"""Multi-application (shared-GPU) experiments: throughput and QoS.

The paper's conclusion invites follow-on work on page-walk scheduling
"for both performance and QoS", citing the memory-controller fairness
literature (ATLAS, STFM, PAR-BS).  This module provides the harness:
run several applications concurrently on one simulated GPU — their
wavefronts share the CUs round-robin and their translation streams
contend in the IOMMU — and report the standard multi-programme metrics:

* per-app **slowdown**: shared-run completion time / solo completion;
* **fairness**: min slowdown / max slowdown (1.0 = perfectly fair);
* **system throughput (STP)**: Σ 1/slowdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Union

from repro.config import SystemConfig, baseline_config
from repro.experiments.runner import (
    MAX_CYCLES,
    _resolve_workload,
    _run_to_end,
    build_system,
    run_simulation,
)
from repro.workloads.base import Workload


@dataclass
class MultiAppResult:
    """Metrics of one shared-GPU run."""

    scheduler: str
    total_cycles: int
    #: Per-app completion time in the shared run (cycles).
    app_cycles: Dict[int, int]
    #: Per-app solo completion time (cycles), same config and trace.
    solo_cycles: Dict[int, int]
    workloads: List[str] = field(default_factory=list)

    @property
    def slowdowns(self) -> Dict[int, float]:
        return {
            app: self.app_cycles[app] / self.solo_cycles[app]
            for app in self.app_cycles
        }

    @property
    def fairness(self) -> float:
        """Min/max slowdown ratio; 1.0 means all apps suffer equally."""
        values = list(self.slowdowns.values())
        return min(values) / max(values)

    @property
    def system_throughput(self) -> float:
        """STP = Σ 1/slowdown (upper bound: the number of apps)."""
        return sum(1.0 / s for s in self.slowdowns.values())

    def summary(self) -> str:
        slowdowns = ", ".join(
            f"app{app}({name})={self.slowdowns[app]:.2f}x"
            for app, name in zip(sorted(self.app_cycles), self.workloads)
        )
        return (
            f"{self.scheduler:<9} cycles={self.total_cycles:>10,} "
            f"fairness={self.fairness:.3f} STP={self.system_throughput:.3f} "
            f"[{slowdowns}]"
        )


def run_multi_simulation(
    workloads: Sequence[Union[str, Workload]],
    config: Optional[SystemConfig] = None,
    scheduler: Optional[str] = None,
    wavefronts_per_app: int = 32,
    scale: float = 0.5,
    seed: int = 0,
    max_cycles: int = MAX_CYCLES,
) -> MultiAppResult:
    """Run several applications concurrently and compute QoS metrics.

    Each app contributes ``wavefronts_per_app`` wavefronts; dispatch
    interleaves apps round-robin so they contend from the start.  Solo
    baselines (for slowdowns) run each app alone under the same
    configuration and scheduler.  A shared run that cannot finish raises
    the single run's :class:`RuntimeError`, which states why.
    """
    if len(workloads) < 2:
        raise ValueError("a multi-app run needs at least two workloads")
    config = config or baseline_config()
    if scheduler is not None:
        config = config.with_scheduler(scheduler, seed=seed)

    benches = [_resolve_workload(w, scale, seed) for w in workloads]
    names = [bench.abbrev for bench in benches]
    traces_per_app = [
        bench.build_trace(
            num_wavefronts=wavefronts_per_app,
            wavefront_size=config.gpu.wavefront_size,
        )
        for bench in benches
    ]

    # Interleave apps round-robin in dispatch order.
    interleaved, app_ids = [], []
    for slot in range(wavefronts_per_app):
        for app, traces in enumerate(traces_per_app):
            interleaved.append(traces[slot])
            app_ids.append(app)

    system = build_system(config)
    system.gpu.dispatch(interleaved, app_ids=app_ids)
    shared = _run_to_end(
        system, None, None, {"workload": "+".join(names)}, max_cycles
    )

    solo = {
        app: run_simulation(
            bench,
            config=config,
            num_wavefronts=wavefronts_per_app,
            scale=scale,
            seed=seed,
        ).total_cycles
        for app, bench in enumerate(benches)
    }
    return MultiAppResult(
        scheduler=shared.scheduler,
        total_cycles=shared.total_cycles,
        app_cycles=dict(system.gpu.app_completion_time),
        solo_cycles=solo,
        workloads=names,
    )


def qos_comparison(
    workloads: Sequence[Union[str, Workload]],
    schedulers: Sequence[str] = ("fcfs", "simt", "fairshare"),
    config: Optional[SystemConfig] = None,
    wavefronts_per_app: int = 32,
    scale: float = 0.5,
    seed: int = 0,
) -> Dict[str, MultiAppResult]:
    """Run the same co-schedule under several walk schedulers."""
    return {
        name: run_multi_simulation(
            workloads,
            config=config,
            scheduler=name,
            wavefronts_per_app=wavefronts_per_app,
            scale=scale,
            seed=seed,
        )
        for name in schedulers
    }
