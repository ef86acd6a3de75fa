"""Benchmark regression gating: committed baselines vs current numbers.

The perf story of this repo lives in the ``BENCH_*.json`` files —
the scheduler hot path (``hotpath``), the tracing overhead guard
(``tracing_overhead``), the fleet sweep bench (``fleet``), the figure
pipeline (``figures``), the walk-latency attribution bench (``attrib``)
and the scheduler zoo (``zoo``) — all written in the unified envelope
from :mod:`repro.stats.export`.  This
module turns them into a *gate*: load the committed baseline, load the
current numbers, compare each watched metric under a configurable
relative threshold, and fail loudly (nonzero exit via ``python -m
repro bench-check``) when a number moved the wrong way.

Metric semantics:

* ``higher`` — bigger is better (throughput, speedup).  Regression
  when ``current < baseline * (1 - threshold)``.
* ``lower`` — smaller is better (overhead ratios).  Regression when
  ``current > baseline * (1 + threshold)``.
* ``exact`` — must compare equal (correctness booleans like
  ``identical_results``); any difference is a regression.

Wall-clock benches are noisy, so thresholds for them are deliberately
loose and CI runs the gate warn-only until tuned; the deterministic
fleet-sweep metrics (cycle counts, geomean speedups) get tight
thresholds because any drift there is a real behaviour change.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

from repro.stats.export import load_bench_report
from repro.stats.formatting import format_number

#: bench name -> expected file name (repo root and baseline dir).
BENCH_FILES: Dict[str, str] = {
    "hotpath": "BENCH_hotpath.json",
    "tracing_overhead": "BENCH_tracing_overhead.json",
    "fleet": "BENCH_fleet.json",
    "figures": "BENCH_figures.json",
    "attrib": "BENCH_attrib.json",
    "zoo": "BENCH_zoo.json",
}

#: The ``python -m repro bench-check`` exit-code contract, stable for
#: CI and the HTML report to consume:
#:
#: * ``EXIT_OK`` (0) — every watched metric within threshold.  Benches
#:   *missing* on either side still exit 0 (reported as ``missing``),
#:   so the gate can be adopted incrementally.
#: * ``EXIT_REGRESSION`` (1) — at least one metric regressed.
#:   ``--warn-only`` converts this to 0 at the process level while the
#:   JSON report keeps the honest ``ok: false`` + ``exit_code: 1``.
#:
#: Usage errors surface as argparse's own exit 2.
EXIT_OK = 0
EXIT_REGRESSION = 1

#: Default directory of committed baselines, relative to the repo root.
DEFAULT_BASELINE_DIR = "benchmarks/baselines"


@dataclass(frozen=True)
class MetricSpec:
    """One watched metric: where it lives and how it may move."""

    bench: str
    #: Dotted path into the bench payload (``data``), e.g.
    #: ``"end_to_end.speedup"``.
    path: str
    #: ``higher`` / ``lower`` / ``exact`` (see module docstring).
    direction: str
    #: Maximum tolerated relative drift in the bad direction
    #: (ignored for ``exact``).
    threshold: float = 0.0

    @property
    def name(self) -> str:
        return f"{self.bench}:{self.path}"


#: The default gate.  Wall-clock metrics (selects/sec, event rates,
#: paired slowdowns) get loose thresholds; deterministic simulation
#: quantities get tight ones.
DEFAULT_METRICS: Tuple[MetricSpec, ...] = (
    # Hot path: the indexed scheduler must stay decisively faster than
    # its naive twin, and results must stay bit-identical.
    MetricSpec("hotpath", "select_throughput.occupancy_256.speedup",
               "higher", 0.30),
    MetricSpec("hotpath", "end_to_end.speedup", "higher", 0.30),
    MetricSpec("hotpath", "end_to_end.identical_results", "exact"),
    # Tracing: the wired-but-disabled path must stay (nearly) free.
    MetricSpec("tracing_overhead", "measurement.slowdown_vs_untraced.inert",
               "lower", 0.08),
    MetricSpec("tracing_overhead", "measurement.identical_results", "exact"),
    # Fleet: telemetry must stay (nearly) free on the sweep path, and
    # the deterministic sweep numbers must not drift at all.
    MetricSpec("fleet", "overhead.slowdown_with_telemetry", "lower", 0.08),
    MetricSpec("fleet", "overhead.identical_results", "exact"),
    MetricSpec("fleet", "sweep.speedup_vs_fcfs.simt.geomean", "higher", 0.02),
    MetricSpec("fleet", "sweep.total_cycles_by_group", "exact"),
    # Figure pipeline: specs/CSVs/HTML must stay byte-identical across
    # worker counts, and the registry must not silently shrink.
    MetricSpec("figures", "determinism.identical_figures_across_jobs", "exact"),
    MetricSpec("figures", "determinism.identical_html_across_jobs", "exact"),
    MetricSpec("figures", "registry.figure_count", "exact"),
    # Attribution: blame reports must stay byte-identical across worker
    # counts and every walk must reconcile; the sweep spec is fixed, so
    # the attributed walk count is an exact committed number.  The
    # matcher's throughput gets a loose wall-clock gate.
    MetricSpec("attrib", "measurement.determinism.identical_blame_across_jobs",
               "exact"),
    MetricSpec("attrib", "measurement.attribution.reconciliation_failures",
               "exact"),
    MetricSpec("attrib", "measurement.attribution.walks_attributed", "exact"),
    MetricSpec("attrib", "measurement.analysis.events_per_cpu_sec",
               "higher", 0.50),
    # Scheduler zoo: the whole bench is one deterministic sweep, so the
    # per-group cycle and walk-traffic numbers are exact committed
    # facts; the zoo families must also keep beating (or at worst
    # matching) the fcfs baseline within a tight band, and the
    # comparison charts must keep plotting every policy.
    MetricSpec("zoo", "sweep.total_cycles_by_group", "exact"),
    MetricSpec("zoo", "sweep.walk_accesses_by_group", "exact"),
    MetricSpec("zoo", "sweep.speedup_vs_fcfs.wasp.geomean", "higher", 0.02),
    MetricSpec("zoo", "sweep.speedup_vs_fcfs.iru.geomean", "higher", 0.02),
    MetricSpec("zoo", "sweep.speedup_vs_fcfs.mosaic.geomean", "higher", 0.02),
    MetricSpec("zoo", "sms.total_cycles_by_case", "exact"),
    MetricSpec("zoo", "sms.sms_walk_reads_by_workload", "exact"),
    MetricSpec("zoo", "figures.rows_by_figure", "exact"),
)

#: Row statuses, in decreasing severity.
STATUS_REGRESSION = "regression"
STATUS_MISSING = "missing"
STATUS_IMPROVED = "improved"
STATUS_OK = "ok"


def get_path(data: Any, dotted: str) -> Any:
    """Resolve ``"a.b.c"`` inside nested mappings; None when absent."""
    node = data
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    return node


def compare_metric(
    spec: MetricSpec, baseline: Any, current: Any
) -> Dict[str, Any]:
    """One gate row: the metric, both values, drift, and a verdict."""
    row: Dict[str, Any] = {
        "metric": spec.name,
        "direction": spec.direction,
        "threshold": spec.threshold,
        "baseline": baseline,
        "current": current,
    }
    if baseline is None or current is None:
        row["status"] = STATUS_MISSING
        return row
    if spec.direction == "exact":
        row["status"] = STATUS_OK if current == baseline else STATUS_REGRESSION
        return row
    baseline = float(baseline)
    current = float(current)
    change = (current - baseline) / baseline if baseline else 0.0
    row["relative_change"] = round(change, 4)
    if spec.direction == "higher":
        if current < baseline * (1.0 - spec.threshold):
            row["status"] = STATUS_REGRESSION
        else:
            row["status"] = STATUS_IMPROVED if change > 0 else STATUS_OK
    elif spec.direction == "lower":
        if current > baseline * (1.0 + spec.threshold):
            row["status"] = STATUS_REGRESSION
        else:
            row["status"] = STATUS_IMPROVED if change < 0 else STATUS_OK
    else:
        raise ValueError(f"unknown direction {spec.direction!r}")
    return row


def check_benches(
    baseline_dir: Union[str, Path] = DEFAULT_BASELINE_DIR,
    current_dir: Union[str, Path] = ".",
    metrics: Sequence[MetricSpec] = DEFAULT_METRICS,
    benches: Optional[Dict[str, str]] = None,
) -> Dict[str, Any]:
    """Compare every watched metric; returns the gate report.

    A bench file absent on *either* side marks its metrics ``missing``
    — reported, but not a regression, so the gate can be adopted before
    every bench has a committed baseline.  ``report["ok"]`` is False
    iff at least one metric regressed.
    """
    benches = dict(BENCH_FILES if benches is None else benches)
    baseline_dir = Path(baseline_dir)
    current_dir = Path(current_dir)
    docs: Dict[str, Tuple[Optional[Dict], Optional[Dict]]] = {}
    for bench, filename in sorted(benches.items()):
        docs[bench] = (
            _load_optional(baseline_dir / filename),
            _load_optional(current_dir / filename),
        )
    rows: List[Dict[str, Any]] = []
    for spec in metrics:
        if spec.bench not in docs:
            continue
        baseline_doc, current_doc = docs[spec.bench]
        rows.append(
            compare_metric(
                spec,
                get_path(baseline_doc["data"], spec.path)
                if baseline_doc else None,
                get_path(current_doc["data"], spec.path)
                if current_doc else None,
            )
        )
    regressions = [row for row in rows if row["status"] == STATUS_REGRESSION]
    return {
        "format": "repro-bench-check",
        "version": 1,
        "baseline_dir": str(baseline_dir),
        "current_dir": str(current_dir),
        "ok": not regressions,
        "regressions": len(regressions),
        "missing": sum(1 for row in rows if row["status"] == STATUS_MISSING),
        "rows": rows,
    }


def _load_optional(path: Path) -> Optional[Dict[str, Any]]:
    if not path.exists():
        return None
    try:
        return load_bench_report(path)
    except (ValueError, json.JSONDecodeError) as exc:
        raise ValueError(f"unreadable bench file {path}: {exc}") from exc


def render_check(report: Dict[str, Any]) -> str:
    """Human-readable gate verdict, one line per watched metric."""
    lines: List[str] = []
    for row in report["rows"]:
        change = row.get("relative_change")
        drift = (
            f" ({'+' if change >= 0 else ''}"
            f"{format_number(change * 100, decimals=1)}%)"
            if isinstance(change, float) else ""
        )
        lines.append(
            f"{row['status']:>10s}  {row['metric']}  "
            f"baseline={_fmt(row['baseline'])} "
            f"current={_fmt(row['current'])}{drift}"
        )
    verdict = "PASS" if report["ok"] else (
        f"FAIL: {report['regressions']} metric(s) regressed"
    )
    lines.append(
        f"bench-check {verdict} "
        f"({len(report['rows'])} checked, {report['missing']} missing) "
        f"[baseline={report['baseline_dir']} current={report['current_dir']}]"
    )
    return "\n".join(lines)


def _fmt(value: Any) -> str:
    if isinstance(value, dict):
        return f"<{len(value)} keys>"
    # The stable fixed-point formatter: no scientific notation, so the
    # rendered gate text is byte-identical across platforms (tiny drift
    # values used to flip to "3e-07" under the old %.4g).
    return format_number(value, decimals=4)
