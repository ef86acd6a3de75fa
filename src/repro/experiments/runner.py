"""Build a simulated system, run a workload on it, collect the metrics.

This is the library's main entry point::

    from repro import run_simulation

    result = run_simulation("MVT", scheduler="simt")
    print(result.summary())

Sweeps run through :func:`run_many` (results, raising on the first
failure) or :func:`run_many_resilient` (one :class:`RunOutcome` per
spec: per-job worker processes, timeouts, bounded retry with
decorrelated-jitter backoff, crash isolation and optional on-disk
checkpointing — one dying worker loses one job, never the sweep).
The durable multi-process layer above this lives in
:mod:`repro.service`.
"""

from __future__ import annotations

import os
import random
import threading
import time
import traceback as traceback_module
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Sequence, Union

from repro.config import (
    DEFAULT_SCALE,
    DEFAULT_WAVEFRONTS,
    SystemConfig,
    baseline_config,
)
from repro.core.schedulers import WalkScheduler, available_schedulers
from repro.engine.checkpoint import (
    CheckpointError,
    load_checkpoint_file,
    save_checkpoint_file,
)
from repro.engine.simulator import Simulator
from repro.gpu.gpu import GPU
from repro.memory.subsystem import MemorySubsystem
from repro.mmu.geometry import geometry_by_name
from repro.mmu.iommu import IOMMU
from repro.mmu.page_table import FrameAllocator, PageTable
from repro.obs.aggregate import sweep_specs
from repro.obs.fleet import FleetTelemetry
from repro.obs.metrics import (
    DEFAULT_SAMPLE_INTERVAL_EVENTS,
    MetricsRegistry,
    finalize_standard_metrics,
    install_standard_metrics,
)
from repro.obs.trace import TraceConfig, Tracer, build_tracer
from repro.resilience.faults import build_injector
from repro.resilience.outcomes import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_TIMEOUT,
    CheckpointStore,
    RunOutcome,
    SpecExecutionError,
    describe_spec,
)
from repro.resilience.watchdog import Watchdog, WatchdogError
from repro.stats.export import walk_latency_percentiles
from repro.stats.metrics import (
    SimulationResult,
    instruction_walk_histogram,
    latency_gap_stats,
)
from repro.workloads.base import Workload
from repro.workloads.registry import get_workload

#: Safety valve: a run that exceeds this many cycles has almost certainly
#: deadlocked (a model bug), so fail loudly instead of spinning.
MAX_CYCLES = 2_000_000_000

#: Default base delay for the resilient sweep's retry backoff (seconds).
RETRY_BACKOFF_SECONDS = 0.25

#: Ceiling on any single retry delay (seconds).
RETRY_BACKOFF_CAP_SECONDS = 30.0


@dataclass
class System:
    """The wired-together simulated machine."""

    simulator: Simulator
    config: SystemConfig
    page_table: PageTable
    memory: MemorySubsystem
    iommu: IOMMU
    gpu: GPU
    #: Lifecycle tracer when the system was built with a
    #: :class:`~repro.obs.trace.TraceConfig`; None otherwise.
    tracer: Optional[Tracer] = None


def build_system(
    config: Optional[SystemConfig] = None,
    scheduler: Optional[WalkScheduler] = None,
    trace: Optional[TraceConfig] = None,
) -> System:
    """Construct and wire every hardware model from a configuration.

    ``scheduler`` overrides the configuration's policy with a concrete
    :class:`~repro.core.schedulers.WalkScheduler` instance — used for
    policies outside the registry (e.g. the naive reference twins in
    :mod:`repro.core.reference`).

    When the configuration carries a non-empty
    :class:`~repro.resilience.faults.FaultPlan`, a fault injector is
    wired through the IOMMU, walkers and memory subsystem and its timed
    faults are armed on the simulator clock.  Without one, every hook
    stays None and the models run their original fast paths.

    ``trace`` wires a :class:`~repro.obs.trace.Tracer` through every
    model (same injector pattern: ``trace=None`` keeps every hook None
    and the hot paths untouched).
    """
    config = config or baseline_config()
    geometry = geometry_by_name(config.page_size)
    simulator = Simulator()
    injector = build_injector(config.faults)
    tracer = build_tracer(trace)
    page_table = PageTable(FrameAllocator(), geometry=geometry)
    memory = MemorySubsystem(simulator, config, injector=injector, tracer=tracer)
    iommu = IOMMU(
        simulator,
        config.iommu,
        page_table,
        page_table_read=memory.page_table_read,
        scheduler=scheduler,
        geometry=geometry,
        injector=injector,
        tracer=tracer,
    )
    gpu = GPU(simulator, config, memory, iommu, tracer=tracer)
    gpu.page_table = page_table
    system = System(
        simulator=simulator,
        config=config,
        page_table=page_table,
        memory=memory,
        iommu=iommu,
        gpu=gpu,
        tracer=tracer,
    )
    if injector is not None:
        injector.tracer = tracer
        injector.arm(system)
    return system


def _resolve_workload(
    workload: Union[str, Workload], scale: float, seed: int
) -> Workload:
    if isinstance(workload, Workload):
        return workload
    return get_workload(workload, scale=scale, seed=seed)


def _validate_run_args(
    scheduler: Optional[Union[str, WalkScheduler]],
    num_wavefronts: int,
    scale: float,
    max_cycles: int,
    watchdog_cycles: Optional[int],
    trace: Optional[TraceConfig] = None,
    trace_path: Optional[str] = None,
    trace_jsonl_path: Optional[str] = None,
    metrics_interval_events: int = DEFAULT_SAMPLE_INTERVAL_EVENTS,
) -> None:
    """API-boundary validation: bad inputs fail here with a clear
    ``ValueError``, not cycles later inside a hardware model."""
    if num_wavefronts <= 0:
        raise ValueError(f"num_wavefronts must be positive, got {num_wavefronts}")
    if scale <= 0:
        raise ValueError(f"scale must be positive, got {scale}")
    if max_cycles <= 0:
        raise ValueError(f"max_cycles must be positive, got {max_cycles}")
    if isinstance(scheduler, str) and scheduler not in available_schedulers():
        raise ValueError(
            f"unknown scheduler {scheduler!r}; "
            f"available: {', '.join(available_schedulers())}"
        )
    if watchdog_cycles is not None and watchdog_cycles <= 0:
        raise ValueError(
            f"watchdog_cycles must be positive, got {watchdog_cycles}"
        )
    if trace is not None and not isinstance(trace, TraceConfig):
        raise ValueError(
            f"trace must be a TraceConfig or None, got {type(trace).__name__}"
        )
    if trace is None and (trace_path or trace_jsonl_path):
        raise ValueError(
            "trace_path/trace_jsonl_path need trace=TraceConfig(...) to "
            "produce anything; pass a trace configuration"
        )
    if metrics_interval_events <= 0:
        raise ValueError(
            f"metrics_interval_events must be positive, "
            f"got {metrics_interval_events}"
        )


# ----------------------------------------------------------------------
# In-run checkpointing
# ----------------------------------------------------------------------


def _write_run_checkpoint(
    path: str,
    system: System,
    watchdog: Optional[Watchdog],
    registry: Optional[MetricsRegistry],
    meta: Dict[str, Any],
) -> None:
    save_checkpoint_file(
        path,
        {"system": system, "watchdog": watchdog, "metrics": registry},
        meta=dict(
            meta,
            cycle=system.simulator.now,
            events_processed=system.simulator.events_processed,
        ),
    )


def _install_monitors(
    system: System,
    watchdog: Optional[Watchdog],
    registry: Optional[MetricsRegistry],
    meta: Dict[str, Any],
    checkpoint_every: Optional[int],
    checkpoint_path: Optional[str],
) -> None:
    """Attach the watchdog, the metrics sampler and the periodic
    checkpoint, always in this order: a simulator loaded from a
    checkpoint hands the saved countdowns to its monitors by position."""
    if watchdog is not None:
        watchdog.install()
    if registry is not None:
        system.simulator.add_monitor(
            install_standard_metrics(system, registry),
            meta["metrics_interval_events"],
        )
    if checkpoint_every is not None:
        system.simulator.add_monitor(
            lambda: _write_run_checkpoint(
                checkpoint_path, system, watchdog, registry, meta
            ),
            checkpoint_every,
        )


def run_simulation(
    workload: Union[str, Workload],
    config: Optional[SystemConfig] = None,
    scheduler: Optional[Union[str, WalkScheduler]] = None,
    num_wavefronts: int = DEFAULT_WAVEFRONTS,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    max_cycles: int = MAX_CYCLES,
    watchdog_cycles: Optional[int] = None,
    trace: Optional[TraceConfig] = None,
    trace_path: Optional[str] = None,
    trace_jsonl_path: Optional[str] = None,
    metrics: bool = False,
    metrics_interval_events: int = DEFAULT_SAMPLE_INTERVAL_EVENTS,
    checkpoint_every: Optional[int] = None,
    checkpoint_path: Optional[str] = None,
) -> SimulationResult:
    """Simulate ``workload`` to completion and return its metrics.

    ``workload`` is a Table II abbreviation ("MVT") or a
    :class:`~repro.workloads.base.Workload` instance.  ``scheduler``
    overrides the configuration's walk-scheduling policy — either a
    registry name or a :class:`~repro.core.schedulers.WalkScheduler`
    instance (e.g. a naive reference twin).

    ``watchdog_cycles`` enables the forward-progress watchdog: if no
    instruction retires for that many cycles — or a conservation
    invariant breaks — the run fails with a
    :class:`~repro.resilience.watchdog.WatchdogError` carrying a full
    :class:`~repro.resilience.watchdog.DeadlockDiagnosis` instead of
    spinning until ``max_cycles``.

    Observability (all off by default, zero-overhead when off):

    * ``trace`` — a :class:`~repro.obs.trace.TraceConfig`; records walk
      and instruction lifecycle events into a ring buffer.  The trace
      summary lands in ``result.detail["trace"]``; ``trace_path`` also
      writes a Chrome/Perfetto ``trace_event`` JSON file and
      ``trace_jsonl_path`` a JSON-lines dump.  Timestamps are simulation
      cycles, so traces are deterministic.
    * ``metrics=True`` — samples a live :class:`MetricsRegistry`
      (pending-walk depth, walker occupancy, scheduler counters, DRAM
      queue depth) every ``metrics_interval_events`` fired events;
      dumped into ``result.detail["metrics"]``.

    In-run checkpointing: ``checkpoint_every=N`` dumps the complete
    simulation state to ``checkpoint_path`` every N fired events (and on
    a watchdog trip), so :func:`resume_simulation` can continue the run
    bit-identically after an interruption.
    """
    _validate_run_args(
        scheduler, num_wavefronts, scale, max_cycles, watchdog_cycles,
        trace=trace, trace_path=trace_path, trace_jsonl_path=trace_jsonl_path,
        metrics_interval_events=metrics_interval_events,
    )
    if checkpoint_every is not None:
        if checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive, got {checkpoint_every}"
            )
        if not checkpoint_path:
            raise ValueError("checkpoint_every needs a checkpoint_path")
    config = config or baseline_config()
    scheduler_instance: Optional[WalkScheduler] = None
    if isinstance(scheduler, WalkScheduler):
        scheduler_instance = scheduler
    elif scheduler is not None:
        config = config.with_scheduler(scheduler, seed=seed)
    bench = _resolve_workload(workload, scale=scale, seed=seed)
    system = build_system(config, scheduler=scheduler_instance, trace=trace)

    watchdog: Optional[Watchdog] = None
    if watchdog_cycles is not None:
        watchdog = Watchdog(system, stall_cycles=watchdog_cycles)
    registry = MetricsRegistry() if metrics else None
    meta: Dict[str, Any] = {
        "workload": bench.abbrev,
        "num_wavefronts": num_wavefronts,
        "scale": scale,
        "seed": seed,
        "max_cycles": max_cycles,
        "metrics_interval_events": metrics_interval_events,
    }
    _install_monitors(
        system, watchdog, registry, meta, checkpoint_every, checkpoint_path
    )

    traces = bench.build_trace(
        num_wavefronts=num_wavefronts,
        wavefront_size=config.gpu.wavefront_size,
    )
    system.gpu.dispatch(traces)
    return _run_to_end(
        system, watchdog, registry, meta, max_cycles,
        trace_path=trace_path, trace_jsonl_path=trace_jsonl_path,
        checkpoint_path=checkpoint_path,
    )


def _dump_crash_checkpoint(
    checkpoint_path: Optional[str],
    system: System,
    watchdog: Optional[Watchdog],
    registry: Optional[MetricsRegistry],
    meta: Dict[str, Any],
) -> None:
    """Best-effort checkpoint next to a watchdog diagnosis.

    Never masks the diagnosis: serialisation problems are swallowed —
    the caller is already raising the real error.
    """
    if checkpoint_path is None:
        return
    try:
        _write_run_checkpoint(checkpoint_path, system, watchdog, registry, meta)
    except Exception:
        pass


def _run_to_end(
    system: System,
    watchdog: Optional[Watchdog],
    registry: Optional[MetricsRegistry],
    meta: Dict[str, Any],
    max_cycles: int,
    trace_path: Optional[str] = None,
    trace_jsonl_path: Optional[str] = None,
    checkpoint_path: Optional[str] = None,
) -> SimulationResult:
    """Shared run path: the event loop, completion checks, result
    assembly and exports.  A watchdog trip leaves a crash checkpoint
    behind when the run checkpoints."""
    wall_start = time.perf_counter()
    try:
        system.simulator.run(until=max_cycles)
    except WatchdogError:
        _dump_crash_checkpoint(checkpoint_path, system, watchdog, registry, meta)
        raise
    wall_seconds = time.perf_counter() - wall_start
    if not system.gpu.finished:
        drained = system.simulator.pending_events == 0
        reason = (
            f"event queue drained at cycle {system.simulator.now:,d} "
            f"with work outstanding (deadlock)"
            if drained
            else f"still running after max_cycles={max_cycles:,d}"
        )
        if watchdog is not None:
            diagnosis = watchdog.diagnose(reason)
            _dump_crash_checkpoint(
                checkpoint_path, system, watchdog, registry, meta
            )
            raise WatchdogError(diagnosis)
        raise RuntimeError(
            f"simulation of {meta['workload']} did not finish: {reason} "
            f"({system.simulator.pending_events} events pending; pass "
            f"watchdog_cycles= for a structured diagnosis)"
        )
    if watchdog is not None:
        # Success path: one last conservation sweep so silent model bugs
        # cannot hide behind a run that happened to terminate.
        watchdog.final_check()
    result = collect_result(system, meta["workload"])
    events = system.simulator.events_processed
    result.detail["engine"] = {
        "events_processed": events,
        "wall_seconds": wall_seconds,
        "events_per_sec": events / wall_seconds if wall_seconds > 0 else 0.0,
    }
    if system.iommu.injector is not None:
        result.detail["faults"] = system.iommu.injector.stats()
    tracer = system.tracer
    if tracer is not None:
        trace_detail: Dict[str, Any] = tracer.summary()
        if trace_path:
            tracer.write_chrome(trace_path)
            trace_detail["chrome_path"] = trace_path
        if trace_jsonl_path:
            tracer.write_jsonl(trace_jsonl_path)
            trace_detail["jsonl_path"] = trace_jsonl_path
        if tracer.config.embed_events:
            trace_detail["events"] = tracer.events()
        result.detail["trace"] = trace_detail
    if registry is not None:
        finalize_standard_metrics(system, registry)
        result.detail["metrics"] = registry.as_dict()
    return result


def resume_simulation(
    checkpoint_path: str,
    max_cycles: Optional[int] = None,
    checkpoint_every: Optional[int] = None,
    trace_path: Optional[str] = None,
    trace_jsonl_path: Optional[str] = None,
) -> SimulationResult:
    """Continue an interrupted run from an in-run checkpoint.

    Loads the pickled system, watchdog and metrics registry, re-attaches
    the same monitors in the same order (each takes its saved countdown)
    and runs to completion.  The returned result is bit-identical (up to
    wall-clock fields) to the result the uninterrupted run would have
    produced.  Only the code that wrote a checkpoint can resume it
    (:func:`~repro.engine.checkpoint.load_checkpoint` checks).

    ``checkpoint_every`` re-arms periodic checkpointing on the resumed
    run, overwriting ``checkpoint_path`` — the resumed run checkpoints
    on the *same* event cadence as the original (the monitor's countdown
    is part of the checkpoint), so chains of interruptions compose.
    """
    if checkpoint_every is not None and checkpoint_every <= 0:
        raise ValueError(
            f"checkpoint_every must be positive, got {checkpoint_every}"
        )
    payload = load_checkpoint_file(checkpoint_path)
    meta: Dict[str, Any] = payload["meta"]
    state: Dict[str, Any] = payload["state"]
    system: System = state["system"]
    watchdog: Optional[Watchdog] = state["watchdog"]
    registry: Optional[MetricsRegistry] = state["metrics"]
    _install_monitors(
        system, watchdog, registry, meta, checkpoint_every, checkpoint_path
    )
    return _run_to_end(
        system, watchdog, registry, meta,
        max_cycles if max_cycles is not None else meta["max_cycles"],
        trace_path=trace_path, trace_jsonl_path=trace_jsonl_path,
        checkpoint_path=checkpoint_path,
    )


def collect_result(
    system: System, workload: Union[str, Workload]
) -> SimulationResult:
    """Assemble a :class:`SimulationResult` from a finished system.

    ``workload`` is the executed workload or just its abbreviation (all
    the result needs) — resumed runs only carry the latter.
    """
    gpu = system.gpu
    iommu = system.iommu
    records = gpu.instruction_records
    first_latency, last_latency = latency_gap_stats(records)
    histogram = instruction_walk_histogram(records)
    assert gpu.completion_time is not None
    return SimulationResult(
        workload=getattr(workload, "abbrev", workload),
        scheduler=iommu.scheduler.name,
        total_cycles=gpu.completion_time,
        instructions=len(records),
        wavefronts=gpu.wavefronts_launched,
        stall_cycles=gpu.total_stall_cycles,
        walks_dispatched=iommu.walks_dispatched,
        walk_memory_accesses=sum(w.memory_accesses for w in iommu.walkers),
        interleaved_fraction=iommu.interleaved_instruction_fraction(),
        first_walk_latency=first_latency,
        last_walk_latency=last_latency,
        wavefronts_per_epoch=gpu.mean_wavefronts_per_epoch,
        walk_work_fractions=histogram.fractions(),
        detail={
            "iommu": iommu.stats(),
            "memory": system.memory.stats(),
            "gpu_l2_tlb": gpu.l2_tlb.stats(),
            "mapped_pages": system.page_table.mapped_pages,
            "walk_latency_percentiles": walk_latency_percentiles(records),
        },
    )


def _run_one_spec(spec: Mapping[str, Any]) -> SimulationResult:
    """Top-level trampoline so run specs can cross a process boundary.

    A spec carrying in-run checkpoint arguments resumes from its
    checkpoint file when one exists (a previous attempt died mid-run);
    otherwise it starts from the beginning.  An unreadable checkpoint —
    e.g. the previous owner was SIGKILLed mid-dump on a filesystem
    where the dump wasn't yet atomic-renamed, or the file was written by
    other code — is discarded and the run restarts from scratch: losing
    progress beats wedging the spec forever.
    """
    path = spec.get("checkpoint_path")
    if path and spec.get("checkpoint_every") and os.path.exists(path):
        try:
            return resume_simulation(
                path, checkpoint_every=spec["checkpoint_every"]
            )
        except CheckpointError:
            try:
                os.unlink(path)
            except OSError:
                pass
    return run_simulation(**spec)


# ----------------------------------------------------------------------
# Resilient sweep execution
# ----------------------------------------------------------------------


def _spec_worker(
    conn, spec: Mapping[str, Any], heartbeat_seconds: Optional[float] = None
) -> None:
    """Child-process entry: run one spec, ship the verdict up the pipe.

    With ``heartbeat_seconds`` set (fleet telemetry enabled), a daemon
    thread periodically piggybacks ``("hb", {...})`` liveness pings on
    the same result pipe; the parent relays them to the
    :class:`~repro.obs.fleet.FleetTelemetry` collector.  Heartbeats are
    wall-clock bookkeeping around the simulation, never inside it, so
    results stay bit-identical with telemetry on or off.
    """
    send_lock = threading.Lock()
    stop_beating: Optional[threading.Event] = None
    if heartbeat_seconds is not None:
        stop_beating = threading.Event()
        started = time.monotonic()

        def beat() -> None:
            while not stop_beating.wait(heartbeat_seconds):
                try:
                    with send_lock:
                        conn.send(
                            (
                                "hb",
                                {
                                    "pid": os.getpid(),
                                    "elapsed_seconds": round(
                                        time.monotonic() - started, 3
                                    ),
                                },
                            )
                        )
                except Exception:
                    return  # pipe gone: the parent stopped listening

        threading.Thread(target=beat, daemon=True).start()
    try:
        result = _run_one_spec(spec)
        if stop_beating is not None:
            stop_beating.set()
        with send_lock:
            conn.send(("ok", result))
    except BaseException as exc:  # report *everything*, then die quietly
        if stop_beating is not None:
            stop_beating.set()
        try:
            with send_lock:
                conn.send(
                    (
                        "error",
                        type(exc).__name__,
                        str(exc),
                        traceback_module.format_exc(),
                    )
                )
        except Exception:
            pass
    finally:
        conn.close()


class _LiveJob:
    """One spec attempt currently running in a child process."""

    __slots__ = ("index", "spec", "attempt", "process", "conn", "deadline", "started")

    def __init__(self, index, spec, attempt, process, conn, deadline, started):
        self.index = index
        self.spec = spec
        self.attempt = attempt
        self.process = process
        self.conn = conn
        self.deadline = deadline
        self.started = started


def _backoff_delay(
    previous: float,
    base: float,
    cap: float = RETRY_BACKOFF_CAP_SECONDS,
    rng: Optional[random.Random] = None,
) -> float:
    """Decorrelated-jitter retry delay: ``min(cap, U(base, 3*prev))``.

    Flat exponential backoff retries in lockstep: every spec re-queued
    off one dead worker would wake at the same instant and stampede the
    shared checkpoint directory (and, at service scale, the queue's
    rename hot path).  Decorrelated jitter spreads the herd — each delay
    is drawn from a range that grows with the *previous* delay, so
    consecutive failures still back off exponentially on average while
    never synchronising.  Wall-clock only; simulated results are
    untouched.
    """
    draw = (rng.uniform if rng is not None else random.uniform)(
        base, max(base, previous * 3.0)
    )
    return min(cap, draw)


def run_many_resilient(
    specs: Sequence[Mapping[str, Any]],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    backoff_seconds: float = RETRY_BACKOFF_SECONDS,
    checkpoint: Optional[str] = None,
    telemetry: Optional[FleetTelemetry] = None,
    inrun_checkpoint_every: Optional[int] = None,
) -> List[RunOutcome]:
    """Run every spec, absorbing crashes; one :class:`RunOutcome` each.

    * ``jobs`` > 1 runs specs in parallel worker processes (one process
      per job, so a crash or OOM-kill takes down exactly one attempt).
    * ``timeout`` bounds each attempt in wall-clock seconds; an overdue
      worker is terminated and the job marked/retried.
    * ``retries`` re-runs a failed/crashed/timed-out job up to that many
      extra attempts, with decorrelated-jitter backoff from
      ``backoff_seconds`` (delays grow exponentially on average but are
      randomised so a batch of re-queued jobs never retries in
      lockstep).
    * ``checkpoint`` names a directory where successful results persist;
      a re-invocation with the same specs resumes from completed jobs.
    * ``inrun_checkpoint_every`` (needs ``checkpoint``) makes each run
      dump its full simulation state every N fired events into the
      checkpoint directory; a retry after a timeout or crash then
      *resumes from the middle* instead of starting the simulation over.
      Results are bit-identical to an uninterrupted run.
    * ``telemetry`` is a :class:`~repro.obs.fleet.FleetTelemetry`
      collector: every spec start/finish/retry/timeout — plus worker
      heartbeats on the process path — is reported as it happens.
      Telemetry observes the sweep from outside the simulations, so
      results are bit-identical with it on or off.

    Outcomes come back in spec order.  Serial runs without a timeout
    execute in-process (identical to :func:`run_simulation` in a loop);
    any parallelism or timeout switches to child processes — results are
    identical either way because workers run the same deterministic
    code on the same picklable specs.
    """
    if retries < 0:
        raise ValueError(f"retries must be non-negative, got {retries}")
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    specs = [dict(spec) for spec in specs]
    outcomes: List[Optional[RunOutcome]] = [None] * len(specs)
    store = CheckpointStore(checkpoint) if checkpoint else None

    inrun_paths: List[Optional[str]] = [None] * len(specs)
    if inrun_checkpoint_every is not None:
        if inrun_checkpoint_every <= 0:
            raise ValueError(
                f"inrun_checkpoint_every must be positive, "
                f"got {inrun_checkpoint_every}"
            )
        if store is None:
            raise ValueError(
                "inrun_checkpoint_every needs checkpoint= (a directory to "
                "keep the in-run state files in)"
            )
        inrun_paths = [str(store.inrun_path(spec)) for spec in specs]
    # The executed spec may carry extra in-run checkpoint arguments; the
    # *original* spec stays the identity for describe/store keying.
    exec_specs = [
        dict(spec, checkpoint_every=inrun_checkpoint_every, checkpoint_path=path)
        if path is not None
        else spec
        for spec, path in zip(specs, inrun_paths)
    ]

    todo: List[int] = []
    for index, spec in enumerate(specs):
        if store is not None:
            cached = store.load(spec)
            if cached is not None:
                outcomes[index] = RunOutcome(
                    index=index,
                    spec_summary=describe_spec(spec),
                    status=STATUS_OK,
                    result=cached,
                    attempts=0,
                    from_checkpoint=True,
                )
                continue
        todo.append(index)

    if telemetry is not None:
        telemetry.sweep_started(
            total=len(specs),
            jobs=1 if jobs is None else max(1, jobs),
            checkpointed=len(specs) - len(todo),
        )
        for index, outcome in enumerate(outcomes):
            if outcome is not None:
                telemetry.spec_finished(outcome)

    if todo:
        # Asking for jobs > 1 is asking for isolation, even on a single
        # remaining spec — never let a crashing job share our process.
        max_workers = 1 if jobs is None else max(1, jobs)
        use_processes = (jobs is not None and jobs > 1) or timeout is not None
        if use_processes:
            _run_in_processes(
                specs, exec_specs, inrun_paths, todo, outcomes, max_workers,
                timeout, retries, backoff_seconds, store, telemetry,
            )
        else:
            _run_in_process(
                specs, exec_specs, inrun_paths, todo, outcomes, retries,
                backoff_seconds, store, telemetry,
            )

    if telemetry is not None:
        telemetry.sweep_finished()
    assert all(outcome is not None for outcome in outcomes)
    return outcomes  # type: ignore[return-value]


def _finish_ok(
    outcomes, store, specs, index, result, attempt, started, telemetry=None,
    inrun_path=None,
) -> None:
    outcomes[index] = RunOutcome(
        index=index,
        spec_summary=describe_spec(specs[index]),
        status=STATUS_OK,
        result=result,
        attempts=attempt,
        elapsed_seconds=time.monotonic() - started,
    )
    if store is not None:
        store.store(specs[index], result)
    if inrun_path is not None:
        # The run finished; its mid-run state file is no longer needed.
        try:
            os.unlink(inrun_path)
        except OSError:
            pass
    if telemetry is not None:
        telemetry.spec_finished(outcomes[index])


def _run_in_process(
    specs, exec_specs, inrun_paths, todo, outcomes, retries, backoff_seconds,
    store, telemetry=None,
) -> None:
    """Serial fallback: same retry semantics, no process isolation."""
    for index in todo:
        started = time.monotonic()
        previous_delay = backoff_seconds
        for attempt in range(1, retries + 2):
            if telemetry is not None:
                telemetry.spec_started(
                    index, describe_spec(specs[index]), attempt
                )
            try:
                result = _run_one_spec(exec_specs[index])
            except Exception as exc:
                if attempt <= retries:
                    delay = _backoff_delay(previous_delay, backoff_seconds)
                    previous_delay = delay
                    if telemetry is not None:
                        telemetry.spec_retry(
                            index, describe_spec(specs[index]), attempt,
                            STATUS_FAILED, type(exc).__name__, str(exc),
                            delay,
                        )
                    time.sleep(delay)
                    continue
                outcomes[index] = RunOutcome(
                    index=index,
                    spec_summary=describe_spec(specs[index]),
                    status=STATUS_FAILED,
                    error=str(exc),
                    error_type=type(exc).__name__,
                    traceback=traceback_module.format_exc(),
                    attempts=attempt,
                    elapsed_seconds=time.monotonic() - started,
                )
                if telemetry is not None:
                    telemetry.spec_finished(outcomes[index])
                break
            else:
                _finish_ok(
                    outcomes, store, specs, index, result, attempt, started,
                    telemetry, inrun_path=inrun_paths[index],
                )
                break


def _run_in_processes(
    specs, exec_specs, inrun_paths, todo, outcomes, max_workers, timeout,
    retries, backoff_seconds, store, telemetry=None,
) -> None:
    """Process-per-job executor: crash isolation, timeouts, retries."""
    import multiprocessing as mp
    from multiprocessing.connection import wait as conn_wait

    ctx = mp.get_context()
    #: (ready_time, index, attempt) waiting to launch.
    queued: List[tuple] = [(0.0, index, 1) for index in todo]
    live: List[_LiveJob] = []
    #: First-attempt start per index, for elapsed accounting.
    first_started: Dict[int, float] = {}
    #: Last backoff delay per index, feeding the decorrelated jitter.
    last_delay: Dict[int, float] = {}
    heartbeat_seconds = (
        telemetry.heartbeat_seconds if telemetry is not None else None
    )

    def launch(index: int, attempt: int) -> None:
        parent_conn, child_conn = ctx.Pipe(duplex=False)
        process = ctx.Process(
            target=_spec_worker,
            args=(child_conn, exec_specs[index], heartbeat_seconds),
            daemon=True,
        )
        process.start()
        child_conn.close()
        now = time.monotonic()
        first_started.setdefault(index, now)
        live.append(
            _LiveJob(
                index=index,
                spec=specs[index],
                attempt=attempt,
                process=process,
                conn=parent_conn,
                deadline=(now + timeout) if timeout is not None else None,
                started=now,
            )
        )
        if telemetry is not None:
            telemetry.spec_started(index, describe_spec(specs[index]), attempt)

    def settle(job: _LiveJob, status: str, error_type, error, tb) -> None:
        """A job attempt ended badly: retry within budget or record it."""
        if job.attempt <= retries:
            delay = _backoff_delay(
                last_delay.get(job.index, backoff_seconds), backoff_seconds
            )
            last_delay[job.index] = delay
            queued.append((time.monotonic() + delay, job.index, job.attempt + 1))
            if telemetry is not None:
                telemetry.spec_retry(
                    job.index, describe_spec(job.spec), job.attempt,
                    status, error_type, error, delay,
                )
            return
        outcomes[job.index] = RunOutcome(
            index=job.index,
            spec_summary=describe_spec(job.spec),
            status=status,
            error=error,
            error_type=error_type,
            traceback=tb,
            attempts=job.attempt,
            elapsed_seconds=time.monotonic() - first_started[job.index],
        )
        if telemetry is not None:
            telemetry.spec_finished(outcomes[job.index])

    def reap(job: _LiveJob) -> None:
        live.remove(job)
        job.conn.close()
        job.process.join(timeout=5)
        if job.process.is_alive():  # terminate() ignored; escalate
            job.process.kill()
            job.process.join(timeout=5)

    try:
        while queued or live:
            now = time.monotonic()
            # Launch everything ready while worker slots are free.
            queued.sort()
            while queued and len(live) < max_workers and queued[0][0] <= now:
                _, index, attempt = queued.pop(0)
                launch(index, attempt)

            if not live:
                # Only backoff-delayed retries remain: sleep to the next.
                if queued:
                    time.sleep(max(0.0, queued[0][0] - time.monotonic()))
                continue

            # Wake on the first message, the nearest deadline, or the
            # nearest queued retry becoming ready.
            wake_at = [job.deadline for job in live if job.deadline is not None]
            if queued and len(live) < max_workers:
                wake_at.append(queued[0][0])
            wait_timeout = None
            if wake_at:
                wait_timeout = max(0.0, min(wake_at) - time.monotonic())
            ready = conn_wait([job.conn for job in live], timeout=wait_timeout)

            for conn in ready:
                job = next(j for j in live if j.conn is conn)
                try:
                    message = conn.recv()
                except EOFError:
                    # The worker died without reporting: crash isolation.
                    reap(job)
                    code = job.process.exitcode
                    settle(
                        job,
                        STATUS_FAILED,
                        "WorkerCrash",
                        f"worker process died with exit code {code}",
                        None,
                    )
                    continue
                if message[0] == "hb":
                    # Liveness ping piggybacked on the result pipe; the
                    # worker is still running, so keep it live.
                    if telemetry is not None:
                        telemetry.heartbeat(job.index, job.attempt, message[1])
                    continue
                reap(job)
                if message[0] == "ok":
                    _finish_ok(
                        outcomes, store, specs, job.index, message[1],
                        job.attempt, first_started[job.index], telemetry,
                        inrun_path=inrun_paths[job.index],
                    )
                else:
                    _, error_type, error, tb = message
                    settle(job, STATUS_FAILED, error_type, error, tb)

            # Enforce deadlines on whoever is still running.
            if timeout is not None:
                now = time.monotonic()
                for job in [j for j in live if j.deadline is not None and j.deadline <= now]:
                    job.process.terminate()
                    reap(job)
                    if telemetry is not None:
                        telemetry.spec_timeout(
                            job.index, describe_spec(job.spec), job.attempt,
                            timeout,
                        )
                    settle(
                        job,
                        STATUS_TIMEOUT,
                        "Timeout",
                        f"exceeded {timeout:g}s wall-clock budget",
                        None,
                    )
    finally:
        for job in live:
            job.process.terminate()
            job.conn.close()
            job.process.join(timeout=5)
            if job.process.is_alive():
                job.process.kill()


def run_many(
    specs: Sequence[Mapping[str, Any]],
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    checkpoint: Optional[str] = None,
    return_outcomes: bool = False,
    telemetry: Optional[FleetTelemetry] = None,
    inrun_checkpoint_every: Optional[int] = None,
) -> Union[List[SimulationResult], List[RunOutcome]]:
    """Run many simulations, optionally across worker processes.

    Each spec is a mapping of :func:`run_simulation` keyword arguments.
    With ``jobs`` > 1 the runs fan out over per-job worker processes;
    each worker builds its own system from the (picklable) spec, so
    results are identical to the serial path — simulations share no
    mutable state.  Results come back in spec order either way.

    By default this returns plain :class:`SimulationResult`\\ s and
    raises :class:`~repro.resilience.outcomes.SpecExecutionError` —
    naming the failing spec and attaching the worker traceback — if any
    job ultimately fails.  Pass ``return_outcomes=True`` (or use
    :func:`run_many_resilient` directly) to receive one
    :class:`~repro.resilience.outcomes.RunOutcome` per spec instead,
    with failures recorded rather than raised.  ``timeout``, ``retries``,
    ``checkpoint`` and ``telemetry`` are forwarded to the resilient
    executor.
    """
    outcomes = run_many_resilient(
        specs, jobs=jobs, timeout=timeout, retries=retries,
        checkpoint=checkpoint, telemetry=telemetry,
        inrun_checkpoint_every=inrun_checkpoint_every,
    )
    if return_outcomes:
        return outcomes
    for outcome in outcomes:
        if not outcome.ok:
            raise SpecExecutionError(outcome)
    return [outcome.result for outcome in outcomes]


def compare_schedulers(
    workload: Union[str, Workload],
    schedulers: Sequence[str] = ("fcfs", "simt"),
    config: Optional[SystemConfig] = None,
    num_wavefronts: int = DEFAULT_WAVEFRONTS,
    scale: float = DEFAULT_SCALE,
    seed: int = 0,
    jobs: Optional[int] = None,
) -> Dict[str, SimulationResult]:
    """Run the same workload under several schedulers.

    Each run gets a freshly-built system and an identical trace, so the
    only difference between results is the walk-scheduling policy.
    ``jobs`` > 1 runs the schedulers in parallel worker processes (one
    per scheduler, capped at ``jobs``); results are identical to the
    serial path.
    """
    specs = sweep_specs(
        [workload], schedulers, [seed],
        config=config, num_wavefronts=num_wavefronts, scale=scale,
    )
    results = run_many(specs, jobs=jobs)
    return dict(zip(schedulers, results))
