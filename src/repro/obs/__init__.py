"""repro.obs — observability for the translation pipeline and its fleets.

Five cooperating layers, all zero-overhead when disabled:

* :mod:`repro.obs.trace` — ring-buffered lifecycle tracing with
  Chrome/Perfetto and JSONL export;
* :mod:`repro.obs.metrics` — a live registry of counters/gauges/
  histograms sampled on the simulator monitor hook (mergeable across
  runs for sweep aggregation);
* :mod:`repro.obs.fleet` — live progress telemetry for multi-run
  sweeps (JSONL fleet log, stderr progress, worker heartbeats);
* :mod:`repro.obs.aggregate` — deterministic cross-run aggregation
  into a fleet report (distributions, geomean speedups);
* :mod:`repro.obs.attrib` — walk-latency attribution: per-walk stage
  breakdowns reconciled to end-to-end latency, per-job critical paths,
  aggregated blame reports.

See ``docs/OBSERVABILITY.md`` for the event schema and how-tos.
"""

from repro.obs.aggregate import (
    deterministic_view,
    distribution,
    fleet_markdown,
    fleet_report,
    render_fleet_report,
    sweep_specs,
)
from repro.obs.attrib import (
    BLAME_CATEGORIES,
    STAGES,
    attribute_walks,
    blame_run_report,
    blame_sweep_report,
    blame_sweep_specs,
    critical_paths,
    iter_trace_events,
    render_blame_report,
    stage_summary,
)
from repro.obs.fleet import DEFAULT_HEARTBEAT_SECONDS, FleetTelemetry
from repro.obs.metrics import (
    DEFAULT_SAMPLE_INTERVAL_EVENTS,
    Counter,
    Gauge,
    MetricsRegistry,
    finalize_standard_metrics,
    install_standard_metrics,
)
from repro.obs.trace import (
    DEFAULT_RING_SIZE,
    TRACE_CATEGORIES,
    TraceConfig,
    Tracer,
    build_tracer,
    validate_chrome_trace,
)

__all__ = [
    "BLAME_CATEGORIES",
    "Counter",
    "DEFAULT_HEARTBEAT_SECONDS",
    "DEFAULT_RING_SIZE",
    "DEFAULT_SAMPLE_INTERVAL_EVENTS",
    "FleetTelemetry",
    "Gauge",
    "MetricsRegistry",
    "STAGES",
    "TRACE_CATEGORIES",
    "TraceConfig",
    "Tracer",
    "attribute_walks",
    "blame_run_report",
    "blame_sweep_report",
    "blame_sweep_specs",
    "build_tracer",
    "critical_paths",
    "deterministic_view",
    "distribution",
    "finalize_standard_metrics",
    "fleet_markdown",
    "fleet_report",
    "install_standard_metrics",
    "iter_trace_events",
    "render_blame_report",
    "render_fleet_report",
    "stage_summary",
    "sweep_specs",
    "validate_chrome_trace",
]
