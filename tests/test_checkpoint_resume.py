"""Golden checkpoint/resume equivalence: interrupted ≡ uninterrupted.

The tentpole guarantee of in-run checkpointing: a run interrupted at any
cycle and resumed from its checkpoint produces **bit-identical** final
statistics to the run that was never interrupted.  Exercised for every
registered scheduler, at several interrupt points (mid-walk is
guaranteed at any mid-run cycle; the scoring schedulers add mid-aging
state), across chained interruptions, with fault injection, metrics
sampling and lifecycle tracing active, and for a scheduler instance
passed in place of a registry name.

Only wall-clock fields (``detail["engine"]["wall_seconds"]`` and
``events_per_sec``) are exempt — everything else, down to the walk
latency percentiles and fault-injector stats, must match exactly.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.experiments.runner import (
    MAX_CYCLES,
    resume_simulation,
    run_simulation,
)
from repro.obs.trace import TraceConfig
from repro.resilience.faults import FaultEvent, FaultPlan
from repro.resilience.watchdog import WatchdogError
from tests.conftest import tiny_config

SCHEDULERS = (
    "fcfs", "random", "sjf", "batch", "simt", "fairshare",
    # The zoo: each carries extra IOMMU-side state (prefetch distance,
    # reorder staging, region TLB) that must survive the round trip.
    "wasp", "iru", "mosaic",
)
WORKLOAD = "XSB"
WAVEFRONTS = 8
SCALE = 0.05
#: Huge next to tiny-config runtimes, tiny next to the 2e9 safety valve.
WATCHDOG = 5_000_000
#: Small enough that every tiny run fires several periodic checkpoints.
EVERY = 2_000


def _fingerprint(result):
    """Everything deterministic about a result (wall clock excluded)."""
    data = dataclasses.asdict(result)
    engine = data["detail"].get("engine")
    if engine is not None:
        engine.pop("wall_seconds", None)
        engine.pop("events_per_sec", None)
    return data


def _run(scheduler, **kwargs):
    kwargs.setdefault("config", tiny_config())
    return run_simulation(
        WORKLOAD,
        scheduler=scheduler,
        num_wavefronts=WAVEFRONTS,
        scale=SCALE,
        seed=0,
        watchdog_cycles=WATCHDOG,
        **kwargs,
    )


def _interrupt_at(scheduler, cycle, path, **kwargs):
    """Run until ``cycle`` then die, leaving a crash checkpoint behind."""
    with pytest.raises(WatchdogError):
        _run(
            scheduler,
            max_cycles=cycle,
            checkpoint_every=EVERY,
            checkpoint_path=str(path),
            **kwargs,
        )


@pytest.fixture(scope="module")
def baselines():
    """Straight-through reference results, computed once per scheduler."""
    cache = {}

    def get(scheduler):
        if scheduler not in cache:
            cache[scheduler] = _fingerprint(_run(scheduler))
        return cache[scheduler]

    return get


# ----------------------------------------------------------------------
# Checkpointing itself must be read-only
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_checkpointing_run_matches_plain(scheduler, baselines, tmp_path):
    path = tmp_path / "run.ckpt"
    result = _run(
        scheduler, checkpoint_every=EVERY, checkpoint_path=str(path)
    )
    assert _fingerprint(result) == baselines(scheduler)
    assert path.exists()  # at least one periodic checkpoint fired


# ----------------------------------------------------------------------
# Resume from a mid-run checkpoint reproduces the full run
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_resume_from_midrun_checkpoint(scheduler, baselines, tmp_path):
    # A completed checkpointing run leaves its *last periodic* dump on
    # disk — a genuine mid-run state.  Resuming it must replay the tail
    # to the identical end state.
    path = tmp_path / "run.ckpt"
    _run(scheduler, checkpoint_every=EVERY, checkpoint_path=str(path))
    resumed = resume_simulation(str(path))
    assert _fingerprint(resumed) == baselines(scheduler)


@pytest.mark.parametrize("scheduler", SCHEDULERS)
def test_interrupt_and_resume_bit_identical(scheduler, baselines, tmp_path):
    want = baselines(scheduler)
    cycle = want["total_cycles"] // 2  # guaranteed mid-walk territory
    path = tmp_path / "crash.ckpt"
    _interrupt_at(scheduler, cycle, path)
    resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
    assert _fingerprint(resumed) == want


@pytest.mark.parametrize("fraction", [0.1, 0.35, 0.85])
def test_interrupt_points_across_the_run(fraction, baselines, tmp_path):
    # Sweep early/mid/late interrupt points on the paper's scheduler —
    # early catches walks in their first DRAM round-trips, late catches
    # aged entries and drained wavefronts.
    want = baselines("simt")
    cycle = max(1, int(want["total_cycles"] * fraction))
    path = tmp_path / "crash.ckpt"
    _interrupt_at("simt", cycle, path)
    resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
    assert _fingerprint(resumed) == want


def test_chained_interruptions_compose(baselines, tmp_path):
    # Die twice: resume itself re-arms checkpointing and crash dumps, so
    # a second interruption resumes from the second checkpoint.
    want = baselines("sjf")
    path = tmp_path / "crash.ckpt"
    _interrupt_at("sjf", want["total_cycles"] // 3, path)
    with pytest.raises(WatchdogError):
        resume_simulation(
            str(path),
            max_cycles=2 * want["total_cycles"] // 3,
            checkpoint_every=EVERY,
        )
    resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
    assert _fingerprint(resumed) == want


def test_resume_before_checkpoint_cycle_is_refused(baselines, tmp_path):
    # The clock never moves backwards: a max_cycles below the cycle the
    # checkpoint was taken at is refused before any crash dump can
    # overwrite the file with a rewound clock.
    cycle = baselines("fcfs")["total_cycles"] // 2
    path = tmp_path / "crash.ckpt"
    _interrupt_at("fcfs", cycle, path)
    before = path.read_bytes()
    with pytest.raises(ValueError):
        resume_simulation(str(path), max_cycles=cycle // 2)
    assert path.read_bytes() == before


def test_unfinished_resume_names_no_keyword_it_lacks(baselines, tmp_path):
    # Neither run has a watchdog.  run_simulation's error suggests
    # watchdog_cycles=; resume_simulation takes no such keyword, so its
    # error must not.
    cycle = baselines("fcfs")["total_cycles"] // 2
    path = tmp_path / "run.ckpt"
    with pytest.raises(RuntimeError, match="pass watchdog_cycles="):
        run_simulation(
            WORKLOAD, scheduler="fcfs", config=tiny_config(),
            num_wavefronts=WAVEFRONTS, scale=SCALE, seed=0, max_cycles=cycle,
            checkpoint_every=EVERY, checkpoint_path=str(path),
        )
    with pytest.raises(RuntimeError, match="still running") as resumed:
        resume_simulation(str(path), max_cycles=cycle)
    assert "watchdog_cycles" not in str(resumed.value)


# ----------------------------------------------------------------------
# Orthogonal subsystems survive the round trip
# ----------------------------------------------------------------------


def _fault_config():
    plan = FaultPlan(
        seed=7,
        events=(
            FaultEvent("flush_tlb", at_cycle=5_000, site="gpu_l2"),
            FaultEvent("flush_pwc", at_cycle=12_000),
            FaultEvent("stall_walker", at_cycle=3_000, target=1,
                       duration=4_000),
            FaultEvent("delay_walk_completion", at_cycle=2_000,
                       magnitude=500, count=4),
        ),
    )
    return tiny_config().with_faults(plan)


def test_resume_with_faults_armed(tmp_path):
    # Interrupt between fault firings: some already injected (their
    # effects live in restored component state), some still pending in
    # the restored event queue.  Stats and injector bookkeeping must
    # match the uninterrupted run exactly.
    config = _fault_config()
    want = _fingerprint(_run("simt", config=config))
    assert sum(want["detail"]["faults"]["injected"].values()) > 0
    cycle = want["total_cycles"] // 2
    path = tmp_path / "crash.ckpt"
    _interrupt_at("simt", cycle, path, config=_fault_config())
    resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
    assert _fingerprint(resumed) == want


def test_resume_with_metrics_sampling(tmp_path):
    # Sample often enough that the sampler fires before and after the
    # interrupt: the resumed sampler must update the registry's own
    # gauges, so the time series continues where it stopped.
    kwargs = dict(metrics=True, metrics_interval_events=200)
    want = _fingerprint(_run("simt", **kwargs))
    assert want["detail"]["metrics"]["samples_taken"] > 10
    cycle = want["total_cycles"] // 2
    path = tmp_path / "crash.ckpt"
    _interrupt_at("simt", cycle, path, **kwargs)
    resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
    assert _fingerprint(resumed) == want


def test_resume_with_tracing(tmp_path):
    # Embedded events make the comparison event by event: the resumed
    # ring must hold exactly the uninterrupted run's recorded events.
    trace = TraceConfig(embed_events=True)
    want = _fingerprint(_run("simt", trace=trace))
    assert want["detail"]["trace"]["events"]
    cycle = want["total_cycles"] // 2
    path = tmp_path / "crash.ckpt"
    _interrupt_at("simt", cycle, path, trace=trace)
    resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
    assert _fingerprint(resumed) == want


def test_resume_with_reference_scheduler_instance(tmp_path):
    # A scheduler instance outside the registry (here the naive twin of
    # the paper's policy) travels inside the pickled system, state and
    # all; each run gets a fresh instance.
    from repro.core.reference import make_reference_scheduler

    want = _fingerprint(_run(make_reference_scheduler("simt")))
    cycle = want["total_cycles"] // 2
    path = tmp_path / "crash.ckpt"
    _interrupt_at(make_reference_scheduler("simt"), cycle, path)
    resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
    assert _fingerprint(resumed) == want


@pytest.mark.parametrize("policy", ["fcfs", "frfcfs", "sms"])
def test_resume_with_queued_controller(policy, tmp_path):
    # Each bank's queue, row counts, request in service and (under sms)
    # batch (source, credits) must survive the round trip, and so must
    # the cadence of three monitors: the watchdog, the metrics sampler
    # and the periodic checkpoint.
    config = tiny_config().with_dram_controller(policy)
    kwargs = dict(config=config, metrics=True, metrics_interval_events=200)
    want = _fingerprint(_run("simt", **kwargs))
    assert want["detail"]["metrics"]["samples_taken"] > 10
    cycle = want["total_cycles"] // 2
    path = tmp_path / "crash.ckpt"
    _interrupt_at("simt", cycle, path, **kwargs)
    resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
    assert _fingerprint(resumed) == want


def test_random_scheduler_rng_state_restored(tmp_path):
    # The random policy's whole behaviour is its Mersenne Twister
    # stream; a resume that reseeded instead of restoring rng.getstate()
    # would diverge in the dispatch sequence, not just the stats.
    # Interrupt at several points so at least one lands mid-stream.
    want = baselines_result = _fingerprint(_run("random"))
    for fraction in (0.25, 0.6):
        cycle = max(1, int(want["total_cycles"] * fraction))
        path = tmp_path / f"crash-{fraction}.ckpt"
        _interrupt_at("random", cycle, path)
        resumed = resume_simulation(str(path), max_cycles=MAX_CYCLES)
        fingerprint = _fingerprint(resumed)
        assert fingerprint == baselines_result
        assert (
            fingerprint["detail"]["iommu"]["walks_dispatched"]
            == want["detail"]["iommu"]["walks_dispatched"]
        )


# ----------------------------------------------------------------------
# API guard rails
# ----------------------------------------------------------------------


def test_checkpoint_every_requires_path():
    with pytest.raises(ValueError, match="checkpoint_path"):
        _run("fcfs", checkpoint_every=100)


def test_closure_event_makes_the_dump_fail(tmp_path):
    # A pending event whose payload is a closure cannot be pickled: the
    # dump fails with CheckpointError and the previous file stays intact.
    from repro.engine.checkpoint import CheckpointError, save_checkpoint_file
    from repro.experiments.runner import build_system

    path = tmp_path / "run.ckpt"
    path.write_bytes(b"previous")
    system = build_system(tiny_config())
    system.simulator.post(5, "iommu.kick", lambda: None)
    with pytest.raises(CheckpointError, match="not serialisable"):
        save_checkpoint_file(str(path), {"system": system})
    assert path.read_bytes() == b"previous"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.ckpt"]


class _EachPayload:
    """A batch handler that hands each payload to a scalar handler and
    counts the payloads."""

    def __init__(self, handler):
        self.handler = handler
        self.payloads = 0

    def __call__(self, payloads):
        for payload in payloads:
            self.payloads += 1
            self.handler(*payload)


def test_a_system_with_a_batch_handler_round_trips():
    # The binding ``register_batch`` stores pickles with the simulator,
    # so a system paused mid-run with batch handlers installed survives
    # ``pickle.loads(pickle.dumps(...))`` and finishes exactly like a
    # system that never had them.
    import pickle

    from repro.experiments.runner import collect_result
    from tests.conftest import dispatched_system

    def system():
        return dispatched_system(
            tiny_config("simt"), WORKLOAD, scale=SCALE, num_wavefronts=WAVEFRONTS
        )

    plain = system()
    plain.simulator.run()
    batched = system()
    sim = batched.simulator
    # ``wf.complete`` carries the instruction completions on this
    # (reservation) DRAM model.
    batch_handlers = {
        kind: _EachPayload(sim._handlers[kind])
        for kind in ("wf.complete", "iommu.xlate")
    }
    for kind, handler in batch_handlers.items():
        sim.register_batch(kind, handler)
    sim.run(max_events=plain.simulator.events_processed // 2)
    assert all(handler.payloads for handler in batch_handlers.values())
    resumed = pickle.loads(pickle.dumps(batched))
    resumed.simulator.run()
    assert resumed.gpu.finished
    assert _fingerprint(collect_result(resumed, WORKLOAD)) == _fingerprint(
        collect_result(plain, WORKLOAD)
    )


def test_atomic_write_failure_removes_the_temp_file(tmp_path):
    # The replace fails (the target is a directory): the error reaches
    # the caller and the temp file written beside the target is gone.
    from repro.engine.checkpoint import atomic_write

    target = tmp_path / "target"
    target.mkdir()
    with pytest.raises(OSError):
        atomic_write(target, b"data")
    assert [p.name for p in tmp_path.iterdir()] == ["target"]
