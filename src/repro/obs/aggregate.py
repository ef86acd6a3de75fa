"""Cross-run aggregation: one deterministic report for a whole sweep.

A single :class:`~repro.stats.metrics.SimulationResult` is a point
estimate; the paper's headline claim (+30% geomean SJF-vs-FCFS on
irregular workloads) only exists as an *aggregate* across a fleet of
runs.  This module folds a sweep's outcomes into that aggregate:

* per-(workload, scheduler) distributions of the headline quantities
  across seeds — count / mean / min / max / stdev, never just a mean;
* speedups versus a baseline scheduler (FCFS by default), paired per
  (workload, seed), reduced to geomean / min / max / stdev per
  scheduler and per workload;
* per-scheduler merged :class:`~repro.obs.metrics.MetricsRegistry`
  dumps (counters summed, gauge watermarks combined, histograms merged
  bucket-by-bucket) when the runs carried live metrics.

The report is **deterministic**: outcomes arrive in spec order whatever
the worker scheduling was, every reduction iterates in sorted key
order, and all wall-clock quantities live under the single ``"wall"``
key — strip it and identical specs+seeds produce identical JSON.

``python -m repro fleet-report`` runs a sweep and renders the report as
JSON and markdown; :func:`fleet_markdown` does the rendering.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.config import DEFAULT_SCALE, DEFAULT_WAVEFRONTS
from repro.obs.metrics import MetricsRegistry
from repro.stats.formatting import format_count, format_number, format_ratio
from repro.stats.metrics import geometric_mean

#: Report identity, checked by the figure pipeline's loader.
FLEET_REPORT_FORMAT = "repro-fleet-report"
FLEET_REPORT_VERSION = 1

#: Per-run quantities reduced into per-group distributions.
GROUP_FIELDS: Tuple[str, ...] = (
    "total_cycles",
    "stall_cycles",
    "walks_dispatched",
    "walk_memory_accesses",
)


def distribution(values: Sequence[float]) -> Dict[str, float]:
    """count/mean/min/max/stdev of a non-empty sample set.

    ``stdev`` is the sample standard deviation (0.0 for a single
    sample): sweeps usually hold a handful of seeds, and a single-seed
    sweep should read as "no spread measured", not crash.
    """
    if not values:
        raise ValueError("distribution of an empty sample set")
    values = [float(value) for value in values]
    return {
        "count": len(values),
        "mean": round(statistics.fmean(values), 6),
        "min": min(values),
        "max": max(values),
        "stdev": round(
            statistics.stdev(values) if len(values) > 1 else 0.0, 6
        ),
    }


def _spec_seed(spec: Mapping[str, Any]) -> int:
    return int(spec.get("seed", 0))


def fleet_report(
    specs: Sequence[Mapping[str, Any]],
    outcomes: Sequence,
    baseline_scheduler: str = "fcfs",
    telemetry_summary: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Aggregate a sweep's outcomes into the deterministic fleet report.

    ``specs`` and ``outcomes`` are the parallel lists that went into and
    came out of :func:`~repro.experiments.runner.run_many_resilient`.
    Failed or timed-out outcomes are counted and listed but excluded
    from the distributions; speedups pair runs by (workload, seed)
    against ``baseline_scheduler`` and skip pairs whose baseline is
    missing or failed.
    """
    if len(specs) != len(outcomes):
        raise ValueError(
            f"{len(specs)} specs but {len(outcomes)} outcomes"
        )
    rows: List[Dict[str, Any]] = []
    #: (workload, scheduler) -> list of ok results, in spec order.
    groups: Dict[Tuple[str, str], List[Any]] = {}
    #: (workload, seed) -> {scheduler: total_cycles} for speedup pairing.
    cycles_by_case: Dict[Tuple[str, int], Dict[str, int]] = {}
    failures: List[Dict[str, Any]] = []
    retried = 0
    wall_seconds = 0.0

    for spec, outcome in zip(specs, outcomes):
        retried += max(0, outcome.attempts - 1)
        wall_seconds += outcome.elapsed_seconds
        if not outcome.ok:
            failures.append(
                {
                    "index": outcome.index,
                    "spec": outcome.spec_summary,
                    "status": outcome.status,
                    "attempts": outcome.attempts,
                    "error_type": outcome.error_type,
                    "error": outcome.error,
                }
            )
            continue
        result = outcome.result
        seed = _spec_seed(spec)
        groups.setdefault((result.workload, result.scheduler), []).append(result)
        cycles_by_case.setdefault((result.workload, seed), {})[
            result.scheduler
        ] = result.total_cycles
        # One tidy row per run.  Beyond the original identity/cycle
        # columns, every quantity a registered figure draws on rides
        # along (stalls, walk work, latency shape, TLB epochs, and the
        # sweep-axis columns scale/wavefronts — at run_simulation's
        # defaults when the spec leaves them out), so the figure
        # pipeline can rebuild the paper's charts from the report alone.
        rows.append(
            {
                "workload": result.workload,
                "scheduler": result.scheduler,
                "seed": seed,
                "attempts": outcome.attempts,
                "scale": float(spec.get("scale", DEFAULT_SCALE)),
                "wavefronts": int(spec.get("num_wavefronts", DEFAULT_WAVEFRONTS)),
                "total_cycles": result.total_cycles,
                "stall_cycles": result.stall_cycles,
                "walks_dispatched": result.walks_dispatched,
                "walk_memory_accesses": result.walk_memory_accesses,
                "interleaved_fraction": round(result.interleaved_fraction, 6),
                "first_walk_latency": round(result.first_walk_latency, 6),
                "last_walk_latency": round(result.last_walk_latency, 6),
                "latency_gap": round(result.latency_gap, 6),
                "wavefronts_per_epoch": round(result.wavefronts_per_epoch, 6),
                "walk_work_fractions": [
                    round(fraction, 6) for fraction in result.walk_work_fractions
                ],
            }
        )

    group_stats: Dict[str, Dict[str, Any]] = {}
    for (workload, scheduler), results in sorted(groups.items()):
        entry: Dict[str, Any] = {"runs": len(results)}
        for field in GROUP_FIELDS:
            entry[field] = distribution(
                [getattr(result, field) for result in results]
            )
        entry["interleaved_fraction"] = distribution(
            [result.interleaved_fraction for result in results]
        )
        group_stats[f"{workload}/{scheduler}"] = entry

    speedups = _speedups_vs_baseline(cycles_by_case, baseline_scheduler)

    metrics_by_scheduler = _merge_metrics(groups)

    statuses = [outcome.status for outcome in outcomes]
    report: Dict[str, Any] = {
        "format": FLEET_REPORT_FORMAT,
        "version": FLEET_REPORT_VERSION,
        "baseline_scheduler": baseline_scheduler,
        "specs": len(specs),
        "ok": statuses.count("ok"),
        "failed": statuses.count("failed"),
        "timeout": statuses.count("timeout"),
        "retried": retried,
        "runs": rows,
        "groups": group_stats,
        "speedup_vs_baseline": speedups,
        "failures": failures,
        # Everything wall-clock lives under this one key: strip it and
        # the report is bit-deterministic for identical specs + seeds.
        "wall": {"sweep_seconds": round(wall_seconds, 3)},
    }
    if telemetry_summary is not None:
        report["telemetry"] = telemetry_summary
    if metrics_by_scheduler:
        report["metrics_by_scheduler"] = metrics_by_scheduler
        # Walk-stage blame summary from the always-on walk.stage.*
        # counters — present whenever the runs carried metrics, no
        # tracing required (see repro.obs.attrib).
        from repro.obs.attrib import stage_summary

        stages = stage_summary(metrics_by_scheduler)
        if stages:
            report["walk_stages_by_scheduler"] = stages
    return report


def _speedups_vs_baseline(
    cycles_by_case: Dict[Tuple[str, int], Dict[str, int]],
    baseline_scheduler: str,
) -> Dict[str, Any]:
    """Per-scheduler speedup distributions, paired per (workload, seed)."""
    #: scheduler -> list of (workload, speedup), in sorted case order.
    #: Pre-seeded with every non-baseline scheduler seen anywhere, so a
    #: scheduler whose runs all failed (or never paired with a healthy
    #: baseline) still gets an explicit "pairs": 0 row instead of
    #: feeding an empty sample list to geometric_mean.
    paired: Dict[str, List[Tuple[str, float]]] = {
        scheduler: []
        for by_scheduler in cycles_by_case.values()
        for scheduler in by_scheduler
        if scheduler != baseline_scheduler
    }
    for (workload, _seed), by_scheduler in sorted(cycles_by_case.items()):
        base = by_scheduler.get(baseline_scheduler)
        if base is None or base <= 0:
            continue
        for scheduler, cycles in sorted(by_scheduler.items()):
            if scheduler == baseline_scheduler or cycles <= 0:
                continue
            paired.setdefault(scheduler, []).append((workload, base / cycles))
    out: Dict[str, Any] = {}
    for scheduler, samples in sorted(paired.items()):
        if not samples:
            out[scheduler] = {"pairs": 0}
            continue
        values = [speedup for _workload, speedup in samples]
        per_workload: Dict[str, float] = {}
        by_workload: Dict[str, List[float]] = {}
        for workload, speedup in samples:
            by_workload.setdefault(workload, []).append(speedup)
        for workload, workload_values in sorted(by_workload.items()):
            per_workload[workload] = round(geometric_mean(workload_values), 6)
        out[scheduler] = {
            "geomean": round(geometric_mean(values), 6),
            "min": round(min(values), 6),
            "max": round(max(values), 6),
            "stdev": round(
                statistics.stdev(values) if len(values) > 1 else 0.0, 6
            ),
            "pairs": len(values),
            "per_workload": per_workload,
        }
    return out


def _merge_metrics(
    groups: Dict[Tuple[str, str], List[Any]]
) -> Dict[str, Dict[str, Any]]:
    """One merged registry dump per scheduler, from runs that kept one.

    Merging happens in sorted (workload, scheduler) then spec order, so
    the merged dump is identical however the sweep's workers were
    scheduled.  The per-run time series is dropped (cycle axes from
    different runs don't compose); counters, watermarks and histograms
    survive.
    """
    merged: Dict[str, MetricsRegistry] = {}
    found = False
    for (workload, scheduler), results in sorted(groups.items()):
        for result in results:
            dump = result.detail.get("metrics")
            if not isinstance(dump, dict):
                continue
            found = True
            registry = merged.setdefault(scheduler, MetricsRegistry())
            registry.merge(MetricsRegistry.from_dict(dump))
    if not found:
        return {}
    out: Dict[str, Dict[str, Any]] = {}
    for scheduler, registry in sorted(merged.items()):
        dump = registry.as_dict()
        dump.pop("series", None)
        out[scheduler] = dump
    return out


def render_fleet_report(report: Dict[str, Any]) -> str:
    """The fleet report as stable, diff-friendly JSON."""
    return json.dumps(report, indent=2, sort_keys=True)


def deterministic_view(report: Dict[str, Any]) -> Dict[str, Any]:
    """The report minus wall-clock and delivery-layer fields.

    Two sweeps of identical specs + seeds must agree on this view
    exactly — the fleet determinism tests and the sweep-service chaos
    gate both compare it.  ``telemetry`` is dropped
    alongside ``wall`` because it reflects whether a collector was
    attached, not what was simulated.  ``retried`` and the per-row
    ``attempts`` counts are dropped for the same reason: how many times
    the delivery layer had to re-run a spec (worker killed, lease
    expired, transient failure) is an execution artefact — the computed
    results must not depend on it.
    """
    view = dict(report)
    view.pop("wall", None)
    view.pop("telemetry", None)
    view.pop("retried", None)
    for key in ("runs", "failures"):
        entries = view.get(key)
        if isinstance(entries, list):
            view[key] = [
                {k: v for k, v in entry.items() if k != "attempts"}
                if isinstance(entry, Mapping) else entry
                for entry in entries
            ]
    return view


def fleet_markdown(report: Dict[str, Any]) -> str:
    """Render the fleet report as a self-contained markdown summary.

    Every number goes through :mod:`repro.stats.formatting` — one
    fixed-point formatter for all rendered surfaces — so a tiny geomean
    stdev renders as ``0.000001``, never ``1e-06``, and the markdown is
    byte-identical across platforms for identical reports.
    """
    lines: List[str] = []
    lines.append("# Fleet report")
    lines.append("")
    lines.append(
        f"{report['specs']} spec(s): {report['ok']} ok, "
        f"{report['failed']} failed, {report['timeout']} timed out, "
        f"{report['retried']} retried attempt(s)."
    )
    speedups = report.get("speedup_vs_baseline", {})
    if speedups:
        base = report.get("baseline_scheduler", "fcfs")
        lines.append("")
        lines.append(f"## Speedup vs {base}")
        lines.append("")
        lines.append("| scheduler | geomean | min | max | stdev | pairs |")
        lines.append("|---|---|---|---|---|---|")
        for scheduler, stats in sorted(speedups.items()):
            if not stats.get("pairs"):
                lines.append(f"| {scheduler} | — | — | — | — | 0 |")
                continue
            lines.append(
                f"| {scheduler} | {format_ratio(stats['geomean'])} "
                f"| {format_ratio(stats['min'])} "
                f"| {format_ratio(stats['max'])} "
                f"| {format_number(stats['stdev'])} | {stats['pairs']} |"
            )
        for scheduler, stats in sorted(speedups.items()):
            per_workload = stats.get("per_workload", {})
            if per_workload:
                rendered = ", ".join(
                    f"{workload} {format_ratio(value)}"
                    for workload, value in sorted(per_workload.items())
                )
                lines.append("")
                lines.append(f"Per-workload geomean ({scheduler}): {rendered}")
    groups = report.get("groups", {})
    if groups:
        lines.append("")
        lines.append("## Per-group total cycles")
        lines.append("")
        lines.append("| group | runs | mean | min | max | stdev |")
        lines.append("|---|---|---|---|---|---|")
        for name, entry in sorted(groups.items()):
            cycles = entry["total_cycles"]
            lines.append(
                f"| {name} | {entry['runs']} | {format_count(cycles['mean'])} "
                f"| {format_count(cycles['min'])} "
                f"| {format_count(cycles['max'])} "
                f"| {format_number(cycles['stdev'], thousands=True)} |"
            )
    failures = report.get("failures", [])
    if failures:
        lines.append("")
        lines.append("## Failures")
        lines.append("")
        for failure in failures:
            lines.append(
                f"- `[{failure['index']}]` {failure['status']} after "
                f"{failure['attempts']} attempt(s): {failure['spec']} — "
                f"{failure['error_type']}: {failure['error']}"
            )
    lines.append("")
    return "\n".join(lines)


def sweep_specs(
    workloads: Sequence[str],
    schedulers: Sequence[str],
    seeds: Sequence[int],
    config=None,
    num_wavefronts: int = 8,
    scale: float = 0.1,
    metrics: bool = False,
) -> List[Dict[str, Any]]:
    """The full workload × scheduler × seed spec matrix for a fleet.

    Spec order is the deterministic backbone of the report: workloads
    outermost, then schedulers, then seeds — the same nesting the
    paper's sweep tables use.
    """
    specs: List[Dict[str, Any]] = []
    for workload in workloads:
        for scheduler in schedulers:
            for seed in seeds:
                spec: Dict[str, Any] = {
                    "workload": workload,
                    "config": config,
                    "scheduler": scheduler,
                    "num_wavefronts": num_wavefronts,
                    "scale": scale,
                    "seed": seed,
                }
                if metrics:
                    spec["metrics"] = True
                specs.append(spec)
    return specs
