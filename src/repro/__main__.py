"""Command-line interface: ``python -m repro <command>``.

Commands
--------

``list``
    List available workloads, schedulers and registered figures.

``run WORKLOAD``
    Simulate one workload under one scheduler and print its metrics.
    ``--trace``/``--trace-jsonl`` also record the full walk and
    instruction lifecycle as a Chrome/Perfetto ``trace_event`` JSON file
    (open it at https://ui.perfetto.dev) and/or JSON lines; timestamps
    are simulation cycles, so the trace is deterministic.  ``--metrics``
    writes the live metrics registry's JSON dump (pending-walk depth,
    walker occupancy, PWC hit rates, DRAM queue depth).

``resume CHECKPOINT``
    Continue a run from the in-run checkpoint ``run --checkpoint-every``
    left behind.

``compare WORKLOAD``
    Run several schedulers on one workload and print speedups.  With
    ``--timeout``/``--retries`` each scheduler's run is bounded and
    retried in an isolated worker process; failures are summarised and
    the exit code is nonzero if any job ultimately fails.

``faults``
    Run a seeded fault-injection campaign (deterministic: the same seed
    prints byte-identical JSON).  ``--trace-dir`` additionally writes a
    per-case Perfetto trace with fault injections annotated;
    ``--fleet-log``/``--progress`` stream per-case fleet telemetry.

``fleet-report``
    Run a workload × scheduler × seed sweep under fleet telemetry and
    write the deterministic aggregated report (per-group distributions,
    geomean speedups vs the baseline scheduler) as JSON and markdown.
    ``--blame PATH`` traces every run of the sweep and also writes the
    deterministic blame report — per-walk stage breakdowns reconciled to
    end-to-end latency, per-job critical paths, per-scheduler stage
    shares and top-K outlier walks.  See ``docs/OBSERVABILITY.md``.

``blame TRACE``
    The same walk-latency attribution for one existing trace
    (a Chrome-trace JSON or JSONL event stream written by ``run``).

``service SUBCOMMAND``
    The durable work-queue sweep service (:mod:`repro.service`):
    ``init`` shards a campaign into a filesystem queue + manifest,
    ``worker`` drains it from this process, ``run`` supervises a local
    worker pool end-to-end (also after any crash), ``status`` reports
    progress, and ``merge`` folds per-shard results into the
    deterministic fleet report.  A directory
    that holds no campaign (or, for ``init``, already holds one) prints
    one line and exits 2.

``figure NAME``
    Run one paper figure's sweep and print its rows as a text table:
    a registry name with a paper sweep (``fig8_speedup``, or just
    ``fig8``; ``python -m repro list`` names them all), or
    ``table1`` (of ``--config``) / ``table2`` (paper-size footprints).

``report INPUT...``
    Render every registered figure (Vega-Lite spec + CSV under
    ``figures/``) and the self-contained HTML campaign report from
    campaign dirs and/or fleet reports — the layout ``service merge``
    writes.

``qos WORKLOAD_A WORKLOAD_B``
    Co-run two workloads and compare QoS across schedulers.
"""

from __future__ import annotations

import argparse
import contextlib
import sys

from repro import CheckpointError, available_schedulers, run_simulation
from repro.config import DRAM_CONTROLLERS, SystemConfig
from repro.obs.metrics import DEFAULT_SAMPLE_INTERVAL_EVENTS
from repro.obs.trace import DEFAULT_RING_SIZE, TRACE_CATEGORIES, TraceConfig
from repro.workloads.registry import workload_names


def _cmd_list(_args: argparse.Namespace) -> int:
    from repro.obs.figures import FIGURES

    print("workloads: ", ", ".join(workload_names()))
    print("schedulers:", ", ".join(available_schedulers()))
    print("figures:")
    for name, definition in FIGURES.items():
        print(f"  {name:24s}  {definition.title}")
    return 0


def _print_result(result) -> None:
    print(result.summary())
    print(f"wavefronts/epoch: {result.wavefronts_per_epoch:.2f}")
    print(f"first/last walk latency: {result.first_walk_latency:.0f} / "
          f"{result.last_walk_latency:.0f} cycles")


def _cmd_run(args: argparse.Namespace) -> int:
    import json

    from repro.obs.trace import validate_chrome_trace

    trace = None
    if args.trace or args.trace_jsonl:
        trace = TraceConfig(
            categories=args.trace_categories or TRACE_CATEGORIES,
            ring_size=args.ring_size or DEFAULT_RING_SIZE,
        )
    try:
        result = run_simulation(
            args.workload,
            config=_load_config(args),
            scheduler=args.scheduler,
            num_wavefronts=args.wavefronts,
            scale=args.scale,
            seed=args.seed,
            trace=trace,
            trace_path=args.trace,
            trace_jsonl_path=args.trace_jsonl,
            metrics=args.metrics is not None,
            metrics_interval_events=(
                args.metrics_interval or DEFAULT_SAMPLE_INTERVAL_EVENTS
            ),
            checkpoint_every=args.checkpoint_every,
            checkpoint_path=args.checkpoint_path,
        )
    except (FileNotFoundError, CheckpointError) as exc:
        print(f"run: {exc}", file=sys.stderr)
        return 2
    _print_result(result)
    summary = result.detail.get("trace", {})
    if args.trace:
        with open(args.trace, "r", encoding="utf-8") as handle:
            count = validate_chrome_trace(json.load(handle))
        print(
            f"trace: {count} events written to {args.trace} "
            f"({summary['events_emitted']} emitted, "
            f"{summary['events_dropped']} dropped from the ring); "
            "open in https://ui.perfetto.dev or chrome://tracing"
        )
    if args.trace_jsonl:
        print(f"jsonl: {args.trace_jsonl}")
    if summary.get("events_dropped"):
        # Ring overflow is silent data loss for any per-walk analysis
        # downstream (blame, Fig. 3 histograms) — make it loud.
        print(
            f"warning: ring overflow dropped {summary['events_dropped']} "
            f"event(s); rerun with a larger --ring-size (currently "
            f"{trace.ring_size}) or fewer --trace-categories for complete "
            "lifecycles",
            file=sys.stderr,
        )
    if args.metrics:
        with open(args.metrics, "w", encoding="utf-8") as handle:
            handle.write(json.dumps(
                result.detail["metrics"], indent=2, sort_keys=True
            ) + "\n")
        print(f"metrics: {args.metrics}")
    return 0


def _cmd_resume(args: argparse.Namespace) -> int:
    from repro.experiments.runner import resume_simulation

    try:
        result = resume_simulation(
            args.checkpoint,
            max_cycles=args.max_cycles,
            checkpoint_every=args.checkpoint_every,
        )
    except (FileNotFoundError, CheckpointError) as exc:
        print(f"resume: {exc}", file=sys.stderr)
        return 2
    _print_result(result)
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_many_resilient
    from repro.obs.aggregate import sweep_specs

    specs = sweep_specs(
        [args.workload], args.schedulers, [args.seed],
        config=_load_config(args),
        num_wavefronts=args.wavefronts,
        scale=args.scale,
    )
    with _telemetry(args) as telemetry:
        outcomes = run_many_resilient(
            specs,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            telemetry=telemetry,
        )
    baseline = outcomes[0].result if outcomes[0].ok else None
    for name, outcome in zip(args.schedulers, outcomes):
        if outcome.ok:
            result = outcome.result
            line = result.summary()
            if baseline is not None:
                line += f"  speedup={result.speedup_over(baseline):.3f}"
            if not args.quiet:
                print(line)
        elif not args.quiet:
            print(f"{name}: FAILED after {outcome.attempts} attempt(s) — "
                  f"{outcome.error_type}: {outcome.error}")
    failed = [
        name for name, outcome in zip(args.schedulers, outcomes)
        if not outcome.ok
    ]
    if failed:
        print(
            f"{len(failed)}/{len(outcomes)} jobs failed: {', '.join(failed)}",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_blame(args: argparse.Namespace) -> int:
    from repro.obs.attrib import (
        BLAME_REPORT_FORMAT,
        BLAME_REPORT_VERSION,
        blame_run_report,
        iter_trace_events,
    )

    try:
        events = iter_trace_events(args.trace)
    except (OSError, ValueError) as exc:
        print(f"blame: {exc}", file=sys.stderr)
        return 2
    run = blame_run_report(events)
    document = {
        "format": BLAME_REPORT_FORMAT,
        "version": BLAME_REPORT_VERSION,
        "source": args.trace,
        "runs": [run],
        "reconciliation": dict(run["reconciliation"]),
    }
    return _write_blame(document, args.out, args.quiet)


def _write_blame(document, out, quiet: bool) -> int:
    """Write a blame document (stdout without ``out``), summarise it,
    and return 1 if any walk failed stage reconciliation."""
    from repro.obs.attrib import BLAME_RING_SIZE, render_blame_report

    rendered = render_blame_report(document)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        if not quiet:
            print(f"wrote {out}")
    else:
        print(rendered)
    if not quiet:
        for scheduler, entry in sorted(
            document.get("by_scheduler", {}).items()
        ):
            shares = ", ".join(
                f"{stage}={share:.1%}"
                for stage, share in sorted(
                    entry["stage_shares"].items(),
                    key=lambda kv: -kv[1],
                )
                if share > 0
            )
            print(
                f"{scheduler}: {entry['walks_attributed']} walks — {shares}"
            )
    dropped = document.get("events_dropped", 0)
    if dropped:
        print(
            f"warning: ring overflow dropped {dropped} event(s) from the "
            f"{BLAME_RING_SIZE}-event blame ring; attribution is incomplete "
            "— shrink --scale or --wavefronts",
            file=sys.stderr,
        )
    reconciliation = document.get("reconciliation", {})
    if reconciliation.get("failures"):
        print(
            f"{reconciliation['failures']}/{reconciliation['checked']} "
            "walk(s) failed stage reconciliation",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.resilience.campaign import render_campaign, run_campaign

    with _telemetry(args) as telemetry:
        report = run_campaign(
            seed=args.seed,
            runs=args.runs,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            trace_dir=args.trace_dir,
            telemetry=telemetry,
        )
    rendered = render_campaign(report)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        if not args.quiet:
            print(f"wrote {args.output}")
    else:
        print(rendered)
    # Retries and timeouts are audit events even on a "green" campaign:
    # a silently re-run case must never look like a clean first pass.
    if report["retried"] or report["timed_out"]:
        print(
            f"campaign needed {report['retried']} retry attempt(s); "
            f"{report['timed_out']} case(s) timed out",
            file=sys.stderr,
        )
    if report["completed"] != report["runs"]:
        print(
            f"{report['runs'] - report['completed']}/{report['runs']} "
            "campaign cases failed",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_fleet_report(args: argparse.Namespace) -> int:
    from repro.experiments.runner import run_many_resilient
    from repro.obs.aggregate import (
        fleet_markdown,
        fleet_report,
        render_fleet_report,
        sweep_specs,
    )
    from repro.obs.attrib import blame_sweep_report, blame_sweep_specs

    sweep = dict(
        seeds=range(args.seeds),
        config=_load_config(args),
        num_wavefronts=args.wavefronts,
        scale=args.scale,
    )
    if args.blame:
        specs = blame_sweep_specs(args.workloads, args.schedulers, **sweep)
    else:
        specs = sweep_specs(
            args.workloads, args.schedulers, metrics=args.metrics, **sweep
        )
    with _telemetry(args) as telemetry:
        outcomes = run_many_resilient(
            specs,
            jobs=args.jobs,
            timeout=args.timeout,
            retries=args.retries,
            telemetry=telemetry,
        )
        summary = telemetry.summary() if telemetry is not None else None
    report = fleet_report(
        specs, outcomes,
        baseline_scheduler=args.baseline,
        telemetry_summary=summary,
    )
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(render_fleet_report(report) + "\n")
    rendered = fleet_markdown(report)
    if args.markdown:
        with open(args.markdown, "w", encoding="utf-8") as handle:
            handle.write(rendered)
    if not args.quiet:
        print(rendered)
        print(f"wrote {args.out}")
        if args.markdown:
            print(f"wrote {args.markdown}")
    code = 0
    if args.blame:
        done = [(spec, o.result) for spec, o in zip(specs, outcomes) if o.ok]
        code = _write_blame(
            blame_sweep_report(
                [spec for spec, _ in done], [result for _, result in done]
            ),
            args.blame,
            args.quiet,
        )
    failed = report["failed"] + report["timeout"]
    if failed:
        print(
            f"{failed}/{report['specs']} fleet spec(s) failed",
            file=sys.stderr,
        )
        return 1
    return code


def _gather_campaign_inputs(paths):
    """Resolve CLI inputs into labelled reports + manifests (unique labels)."""
    from repro.obs.figures import load_campaign_input

    reports = []
    manifests = {}
    seen = {}
    for raw in paths:
        label, report, manifest = load_campaign_input(raw)
        seen[label] = seen.get(label, 0) + 1
        if seen[label] > 1:
            label = f"{label}-{seen[label]}"
        reports.append((label, report))
        manifests[label] = manifest
    return reports, manifests


def _cmd_report(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.obs.report import write_campaign_report

    # A lone campaign dir re-renders the report `service merge` wrote;
    # side-by-side inputs go to ./report so no campaign's page is replaced.
    first = Path(args.inputs[0])
    out_dir = Path(args.out) if args.out else (
        first / "report" if len(args.inputs) == 1 and first.is_dir()
        else Path("report")
    )
    try:
        reports, manifests = _gather_campaign_inputs(args.inputs)
        manifest = write_campaign_report(
            reports, out_dir, manifests=manifests,
            names=args.only.split(",") if args.only else None,
            baseline=args.baseline,
        )
    except (FileNotFoundError, ValueError) as exc:
        print(f"report: {exc}", file=sys.stderr)
        return 2
    if not args.quiet:
        print(
            f"wrote {len(manifest['figures'])} figure(s) to "
            f"{out_dir / 'figures'} ({len(manifest['skipped'])} skipped)"
        )
        for name, reason in sorted(manifest["skipped"].items()):
            print(f"  skipped {name}: {reason}")
        print(f"wrote {out_dir / 'campaign_report.html'}")
    return 0


def _service_error(args: argparse.Namespace, exc: Exception) -> int:
    print(f"service {args.service_command}: {exc}", file=sys.stderr)
    return 2


def _not_a_campaign(args: argparse.Namespace) -> bool:
    """Load DIR's manifest before anything touches DIR; if there is no
    loadable one, print one ``service <sub>:`` line and return True."""
    from repro.service.manifest import load_manifest, manifest_path

    try:
        load_manifest(manifest_path(args.campaign_dir))
    except (OSError, ValueError) as exc:
        _service_error(args, exc)
        return True
    return False


def _cmd_service_init(args: argparse.Namespace) -> int:
    from repro.service import init_campaign

    try:
        manifest = init_campaign(
            args.campaign_dir,
            workloads=args.workloads,
            schedulers=args.schedulers,
            seeds=args.seeds,
            scale=args.scale,
            num_wavefronts=args.wavefronts,
            metrics=args.metrics,
            baseline=args.baseline,
            config=_load_config(args),
            batch_size=args.batch_size,
        )
    except FileExistsError as exc:
        return _service_error(args, exc)
    if not args.quiet:
        print(
            f"campaign initialised in {args.campaign_dir}: "
            f"{len(manifest.spec_keys)} spec(s) in "
            f"{len(manifest.batches)} shard task(s)"
        )
    return 0


def _cmd_service_worker(args: argparse.Namespace) -> int:
    from repro.service import run_worker

    if _not_a_campaign(args):
        return 2
    summary = run_worker(
        args.campaign_dir,
        worker_id=args.worker_id,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        max_tasks=args.max_tasks,
        inrun_checkpoint_every=args.checkpoint_every,
        progress=args.progress,
    )
    if not args.quiet:
        print(
            f"worker {summary['worker']} executed "
            f"{len(summary['tasks_executed'])} shard(s); "
            f"queue now {summary['queue']}"
        )
    return 0


def _cmd_service_run(args: argparse.Namespace) -> int:
    from repro.service import run_service

    if _not_a_campaign(args):
        return 2
    summary = run_service(
        args.campaign_dir,
        workers=args.workers,
        lease_ttl=args.lease_ttl,
        max_attempts=args.max_attempts,
        worker_options={
            "inrun_checkpoint_every": args.checkpoint_every,
            "progress": args.progress,
        },
        allow_incomplete=args.allow_incomplete,
    )
    report = summary["merge"]["report"]
    if not args.quiet:
        print(
            f"campaign drained with {summary['spawned']} worker "
            f"spawn(s): {report['ok']} ok, {report['failed']} failed, "
            f"{report['timeout']} timed out"
        )
        print(f"report: {summary['merge']['paths']['full']}")
    return 0 if report["failed"] + report["timeout"] == 0 else 1


def _cmd_service_status(args: argparse.Namespace) -> int:
    import json

    from repro.service import campaign_status

    if _not_a_campaign(args):
        return 2
    status = campaign_status(args.campaign_dir)
    print(json.dumps(status, indent=2, sort_keys=True))
    return 0 if status["drained"] and not status["abandoned"] else 1


def _cmd_service_merge(args: argparse.Namespace) -> int:
    from repro.service import merge_campaign

    if _not_a_campaign(args):
        return 2
    merged = merge_campaign(
        args.campaign_dir, allow_incomplete=args.allow_incomplete
    )
    report = merged["report"]
    if not args.quiet:
        print(
            f"merged {report['specs']} spec(s): {report['ok']} ok, "
            f"{report['failed']} failed, {report['timeout']} timed out"
        )
        for name, path in sorted(merged["paths"].items()):
            print(f"{name}: {path}")
    return 0 if report["failed"] + report["timeout"] == 0 else 1


def _cmd_qos(args: argparse.Namespace) -> int:
    from repro.experiments.multitenancy import qos_comparison

    results = qos_comparison(
        (args.workload_a, args.workload_b),
        schedulers=tuple(args.schedulers),
        wavefronts_per_app=args.wavefronts_per_app,
        scale=args.scale,
        seed=args.seed,
    )
    for result in results.values():
        print(result.summary())
    return 0


def _cmd_figure(args: argparse.Namespace) -> int:
    from repro.config import table1_rows
    from repro.obs.figures import paper_figure, run_figure
    from repro.stats.formatting import text_table
    from repro.workloads.registry import table2_rows

    config = _load_config(args)
    if args.name == "table1":
        print(text_table(
            "Table I: The baseline system configuration.",
            ["component", "configuration"], table1_rows(config),
        ))
        return 0
    if args.name == "table2":
        rows = table2_rows()
        print(text_table(
            "Table II: GPU benchmarks for our study.", list(rows[0]), rows
        ))
        return 0
    try:
        definition = paper_figure(args.name)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    figure = run_figure(
        definition.name, scale=args.scale, num_wavefronts=args.wavefronts,
        seed=args.seed, config=config,
    )
    print(figure.text())
    return 0


def _add_verbosity_args(parser: argparse.ArgumentParser) -> None:
    """The shared ``--progress`` / ``--quiet`` / ``--fleet-log`` trio.

    ``--progress`` streams live per-spec fleet telemetry to stderr;
    ``--quiet`` suppresses informational stdout.  They compose —
    ``--progress --quiet`` is the "just show me the live ticker" mode —
    and either way failures are summarised on stderr and the exit code
    is nonzero.
    """
    parser.add_argument(
        "--progress", action="store_true",
        help="stream live per-spec fleet progress to stderr",
    )
    parser.add_argument(
        "--quiet", action="store_true",
        help="suppress informational stdout (failures still reach stderr "
        "and the exit code)",
    )
    parser.add_argument(
        "--fleet-log", default=None,
        help="append one JSON line per fleet event to this file",
    )


def _telemetry(args: argparse.Namespace):
    """A FleetTelemetry context per ``--progress``/``--fleet-log``, else
    a context that yields None."""
    if not (args.progress or args.fleet_log):
        return contextlib.nullcontext()
    from repro.obs.fleet import FleetTelemetry

    return FleetTelemetry(log_path=args.fleet_log, progress=args.progress)


def _positive_int(text: str) -> int:
    value = int(text)
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _non_negative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {text}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return value


def _known(kind: str, name: str, valid) -> str:
    if name not in valid:
        raise argparse.ArgumentTypeError(
            f"unknown {kind} {name!r} (choose from {', '.join(valid)})"
        )
    return name


def _workload(text: str) -> str:
    return _known("workload", text.upper(), workload_names())


def _scheduler(text: str) -> str:
    return _known("scheduler", text, available_schedulers())


def _comma_list(parse):
    return lambda text: [parse(name) for name in text.split(",")]


_workload_list = _comma_list(_workload)
_scheduler_list = _comma_list(_scheduler)


def _trace_categories(text: str) -> frozenset:
    valid = sorted(TRACE_CATEGORIES)
    return frozenset(_known("category", name, valid) for name in text.split(","))


def _config_file(text: str):
    """Load and validate a ``--config`` file while parsing, so an
    unreadable file or an invalid value fails before anything runs."""
    from repro.config_io import load_config

    try:
        return load_config(text)
    except (OSError, ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(f"{text}: {exc}") from None


def _add_config_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--config", type=_config_file, default=None,
        help="JSON machine description (possibly partial); see repro.config_io",
    )


def _add_run_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--scale", type=_positive_float, default=0.5)
    parser.add_argument("--wavefronts", type=_positive_int, default=64)
    parser.add_argument("--seed", type=int, default=0)
    _add_config_arg(parser)
    parser.add_argument(
        "--dram-controller", default=None, choices=DRAM_CONTROLLERS,
        help="DRAM front end (default: the config's, reservation); "
        "'sms' is the staged batch-former/QoS policy",
    )


def _load_config(args: argparse.Namespace):
    """The ``--config`` machine (already loaded while parsing), with
    ``--dram-controller`` applied; None when neither is given."""
    config = getattr(args, "config", None)
    controller = getattr(args, "dram_controller", None)
    if controller is not None:
        config = (config or SystemConfig()).with_dram_controller(controller)
    return config


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    """The workload × scheduler × seed matrix of a fleet sweep."""
    parser.add_argument(
        "--workloads", type=_workload_list, default="MVT,XSB",
        help="comma-separated Table II abbreviations",
    )
    parser.add_argument(
        "--schedulers", type=_scheduler_list, default="fcfs,simt",
        help="comma-separated policy names",
    )
    parser.add_argument(
        "--seeds", type=_positive_int, default=2,
        help="seeds per (workload, scheduler) cell: 0..N-1",
    )
    parser.add_argument("--scale", type=_positive_float, default=0.1)
    parser.add_argument("--wavefronts", type=_positive_int, default=8)
    _add_config_arg(parser)
    parser.add_argument(
        "--baseline", type=_scheduler, default="fcfs",
        help="scheduler every speedup is measured against",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="sample per-run MetricsRegistry dumps and merge them per scheduler",
    )


def build_parser() -> argparse.ArgumentParser:
    """Construct the argparse command tree."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction of 'Scheduling Page Table Walks for "
        "Irregular GPU Applications' (ISCA 2018)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser(
        "list", help="list workloads, schedulers and registered figures"
    ).set_defaults(func=_cmd_list)

    run = sub.add_parser("run", help="simulate one workload")
    run.add_argument("workload", type=_workload)
    run.add_argument(
        "--scheduler", default=None, choices=available_schedulers(),
        help="walk scheduler (default: the config's policy, fcfs)",
    )
    run.add_argument(
        "--trace", default=None,
        help="trace the run; write a Chrome/Perfetto trace_event JSON here",
    )
    run.add_argument(
        "--trace-jsonl", default=None,
        help="trace the run; write the raw events as JSON lines here",
    )
    run.add_argument(
        "--trace-categories", type=_trace_categories, default=None,
        help="comma-separated event categories to record "
        "(default: all; see repro.obs.trace.TRACE_CATEGORIES)",
    )
    run.add_argument(
        "--ring-size", type=_positive_int, default=None,
        help="trace ring-buffer capacity in events",
    )
    run.add_argument(
        "--metrics", default=None,
        help="sample the live metrics registry; write its JSON dump here",
    )
    run.add_argument(
        "--metrics-interval", type=_positive_int, default=None,
        help="sample the registry every this many fired events "
        f"(default {DEFAULT_SAMPLE_INTERVAL_EVENTS})",
    )
    run.add_argument(
        "--checkpoint-every", type=_positive_int, default=None,
        help="write an in-run checkpoint every N simulator events "
        "(requires --checkpoint-path)",
    )
    run.add_argument(
        "--checkpoint-path", default=None,
        help="where the in-run checkpoint file is (over)written",
    )
    _add_run_args(run)
    run.set_defaults(func=_cmd_run)

    resume = sub.add_parser(
        "resume",
        help="resume an interrupted simulation from an in-run checkpoint",
    )
    resume.add_argument("checkpoint", help="checkpoint file written by run")
    resume.add_argument(
        "--max-cycles", type=_positive_int, default=None,
        help="override the original run's cycle budget",
    )
    resume.add_argument(
        "--checkpoint-every", type=_positive_int, default=None,
        help="keep checkpointing every N events (rewrites the same file)",
    )
    resume.set_defaults(func=_cmd_resume)

    compare = sub.add_parser("compare", help="compare schedulers on a workload")
    compare.add_argument("workload", type=_workload)
    compare.add_argument(
        "--schedulers", type=_scheduler_list, default="fcfs,simt",
        help="comma-separated policy names",
    )
    compare.add_argument(
        "--jobs", type=_positive_int, default=1,
        help="worker processes for the scheduler sweep (1 = serial; "
        "results are identical either way)",
    )
    compare.add_argument(
        "--timeout", type=_positive_float, default=None,
        help="wall-clock seconds allowed per job (runs in an isolated "
        "worker process; overdue workers are terminated)",
    )
    compare.add_argument(
        "--retries", type=_non_negative_int, default=0,
        help="extra attempts for a crashed/failed/timed-out job",
    )
    _add_run_args(compare)
    _add_verbosity_args(compare)
    compare.set_defaults(func=_cmd_compare)

    faults = sub.add_parser(
        "faults", help="run a seeded, deterministic fault-injection campaign"
    )
    faults.add_argument("--seed", type=int, default=0)
    faults.add_argument("--runs", type=_positive_int, default=6)
    faults.add_argument("--jobs", type=_positive_int, default=1)
    faults.add_argument("--timeout", type=_positive_float, default=None)
    faults.add_argument("--retries", type=_non_negative_int, default=0)
    faults.add_argument(
        "--output", default=None, help="write the JSON report here instead of stdout"
    )
    faults.add_argument(
        "--trace-dir", default=None,
        help="also write one Perfetto trace per case into this directory",
    )
    _add_verbosity_args(faults)
    faults.set_defaults(func=_cmd_faults)

    fleet = sub.add_parser(
        "fleet-report",
        help="run a workload×scheduler×seed sweep and aggregate a fleet report",
    )
    _add_sweep_args(fleet)
    fleet.add_argument("--jobs", type=_positive_int, default=1)
    fleet.add_argument("--timeout", type=_positive_float, default=None)
    fleet.add_argument("--retries", type=_non_negative_int, default=0)
    fleet.add_argument(
        "--out", default="fleet_report.json",
        help="where to write the aggregated JSON report",
    )
    fleet.add_argument(
        "--markdown", default=None,
        help="also write the markdown rendering here",
    )
    fleet.add_argument(
        "--blame", default=None,
        help="trace every run and write the walk-latency blame report here",
    )
    _add_verbosity_args(fleet)
    fleet.set_defaults(func=_cmd_fleet_report)

    blame = sub.add_parser(
        "blame",
        help="walk-latency attribution of a trace: stage breakdowns, "
        "critical paths",
    )
    blame.add_argument(
        "trace", help="Chrome-trace JSON or JSONL event stream to analyze"
    )
    blame.add_argument(
        "--out", default=None,
        help="write the blame report JSON here instead of stdout",
    )
    blame.add_argument("--quiet", action="store_true")
    blame.set_defaults(func=_cmd_blame)

    figure = sub.add_parser("figure", help="regenerate a paper figure/table")
    figure.add_argument("name", help="e.g. fig8_speedup, fig13, table2")
    _add_run_args(figure)
    figure.set_defaults(func=_cmd_figure)

    report = sub.add_parser(
        "report", help="figure specs/CSVs and the HTML campaign report"
    )
    report.add_argument(
        "inputs", nargs="+",
        help="campaign dir(s) (merged with `service merge`) and/or "
        "fleet_report.json file(s), several plot side by side",
    )
    report.add_argument(
        "--out", default=None,
        help="output directory (default: <campaign>/report for one "
        "campaign dir, else ./report)",
    )
    report.add_argument(
        "--only", default=None,
        help="comma-separated figure names (default: every registered figure)",
    )
    report.add_argument(
        "--baseline", default=None,
        help="override the baseline scheduler (default: the report's)",
    )
    report.add_argument("--quiet", action="store_true")
    report.set_defaults(func=_cmd_report)

    qos = sub.add_parser(
        "qos", help="co-run two workloads and compare QoS across schedulers"
    )
    qos.add_argument("workload_a", type=_workload)
    qos.add_argument("workload_b", type=_workload)
    qos.add_argument(
        "--schedulers", type=_scheduler_list, default="fcfs,simt,fairshare",
        help="comma-separated policy names",
    )
    qos.add_argument("--wavefronts-per-app", type=_positive_int, default=24)
    qos.add_argument("--scale", type=_positive_float, default=0.3)
    qos.add_argument("--seed", type=int, default=0)
    qos.set_defaults(func=_cmd_qos)

    service = sub.add_parser(
        "service",
        help="durable work-queue sweep service (broker/worker campaigns)",
    )
    service_sub = service.add_subparsers(dest="service_command", required=True)

    def _campaign_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("campaign_dir", help="campaign directory (the durable state)")
        p.add_argument("--quiet", action="store_true")

    def _lease_args(p: argparse.ArgumentParser) -> None:
        p.add_argument(
            "--lease-ttl", type=_positive_float, default=30.0,
            help="seconds of missed heartbeats before a lease is reaped",
        )
        p.add_argument(
            "--max-attempts", type=_positive_int, default=5,
            help="claims per shard before it is abandoned as a poison task",
        )

    svc_init = service_sub.add_parser(
        "init", help="shard a sweep into a campaign manifest + queue"
    )
    _campaign_arg(svc_init)
    _add_sweep_args(svc_init)
    svc_init.add_argument(
        "--batch-size", type=_positive_int, default=2,
        help="specs per shard task",
    )
    svc_init.set_defaults(func=_cmd_service_init)

    svc_worker = service_sub.add_parser(
        "worker", help="drain the campaign queue from this process"
    )
    _campaign_arg(svc_worker)
    _lease_args(svc_worker)
    svc_worker.add_argument(
        "--worker-id", default=None, help="default: hostname-pid"
    )
    svc_worker.add_argument(
        "--max-tasks", type=_positive_int, default=None,
        help="exit after claiming this many shards (default: until drained)",
    )
    svc_worker.add_argument(
        "--checkpoint-every", type=_positive_int, default=2000,
        help="in-run checkpoint cadence in simulator events",
    )
    svc_worker.add_argument("--progress", action="store_true")
    svc_worker.set_defaults(func=_cmd_service_worker)

    svc_run = service_sub.add_parser(
        "run", help="supervise local workers until the queue drains, then "
        "merge (also after any crash)",
    )
    _campaign_arg(svc_run)
    _lease_args(svc_run)
    svc_run.add_argument(
        "--workers", type=_positive_int, default=2,
        help="local worker processes to supervise",
    )
    svc_run.add_argument(
        "--checkpoint-every", type=_positive_int, default=2000,
        help="in-run checkpoint cadence in simulator events",
    )
    svc_run.add_argument("--progress", action="store_true")
    svc_run.add_argument(
        "--allow-incomplete", action="store_true",
        help="merge reports un-run specs as failures instead of erroring",
    )
    svc_run.set_defaults(func=_cmd_service_run)

    svc_status = service_sub.add_parser(
        "status",
        help="print campaign progress: done counts, running shards with "
        "heartbeat ages, retries, ETA (exit 1 until drained clean)",
    )
    _campaign_arg(svc_status)
    svc_status.set_defaults(func=_cmd_service_status)

    svc_merge = service_sub.add_parser(
        "merge", help="fold shard results into the deterministic fleet report"
    )
    _campaign_arg(svc_merge)
    svc_merge.add_argument(
        "--allow-incomplete", action="store_true",
        help="report un-run specs as failures instead of erroring",
    )
    svc_merge.set_defaults(func=_cmd_service_merge)

    return parser


def main(argv=None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "run":
        if args.checkpoint_every is not None and not args.checkpoint_path:
            parser.error("run: --checkpoint-every requires --checkpoint-path")
        if (args.trace_categories or args.ring_size) and not (
            args.trace or args.trace_jsonl
        ):
            parser.error(
                "run: --trace-categories and --ring-size require --trace "
                "or --trace-jsonl"
            )
        if args.metrics_interval is not None and args.metrics is None:
            parser.error("run: --metrics-interval requires --metrics")
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
