"""Resilient sweep execution: crash isolation, retries, checkpoints.

The broken workloads below sabotage their own worker process (raise,
hard-exit, hang) to prove one bad job can never take down a sweep.
"""

from __future__ import annotations

import dataclasses
import os
import pickle
import time

import pytest

from repro.experiments.runner import (
    run_many,
    run_many_resilient,
    run_simulation,
)
from repro.resilience.outcomes import RunOutcome, SpecExecutionError, spec_key
from repro.workloads.base import Workload

from tests.conftest import tiny_config


class BrokenWorkload(Workload):
    """A workload that sabotages its worker in a chosen way.

    ``sentinel`` (a path) makes the "flaky" modes one-shot: the first
    attempt leaves the sentinel behind and dies; retries find it and
    succeed — exactly the transient-crash shape retries exist for.
    """

    abbrev = "BRK"
    name = "broken"

    def __init__(self, mode="ok", sentinel=None, scale=1.0, seed=0):
        self.mode = mode
        self.sentinel = sentinel
        super().__init__(scale=scale, seed=seed)

    def _layout(self):
        self.region = self.address_space.allocate("data", 64 * 4096)

    def _should_fail(self):
        if self.sentinel is None:
            return True
        if os.path.exists(self.sentinel):
            return False
        with open(self.sentinel, "w", encoding="utf-8"):
            pass
        return True

    def build_trace(self, num_wavefronts=32, wavefront_size=64):
        if self.mode == "raise" and self._should_fail():
            raise RuntimeError("synthetic workload failure")
        if self.mode == "exit" and self._should_fail():
            os._exit(42)  # simulates a segfault/OOM kill: no cleanup, no report
        if self.mode == "hang" and self._should_fail():
            time.sleep(30)
        if self.mode == "sysexit":
            raise SystemExit(3)
        if self.mode == "interrupt":
            raise KeyboardInterrupt
        return [
            [[self.region.base + ((w * 7 + i) % 64) * 4096] * wavefront_size
             for i in range(2)]
            for w in range(num_wavefronts)
        ]


def _good_spec(seed=1):
    return {
        "workload": "MVT",
        "config": tiny_config(),
        "num_wavefronts": 8,
        "scale": 0.05,
        "seed": seed,
    }


def _broken_spec(mode, sentinel=None):
    return {
        "workload": BrokenWorkload(mode, sentinel=sentinel),
        "config": tiny_config(),
        "num_wavefronts": 4,
    }


def _fingerprint(result):
    return (result.workload, result.scheduler, result.total_cycles,
            result.stall_cycles, result.walks_dispatched)


# ----------------------------------------------------------------------
# Input validation (API boundary)
# ----------------------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs, match",
    [
        ({"num_wavefronts": 0}, "num_wavefronts"),
        ({"num_wavefronts": -3}, "num_wavefronts"),
        ({"scale": 0}, "scale"),
        ({"scale": -0.5}, "scale"),
        ({"max_cycles": 0}, "max_cycles"),
        ({"scheduler": "quantum"}, "unknown scheduler"),
    ],
)
def test_run_simulation_rejects_bad_inputs(kwargs, match):
    with pytest.raises(ValueError, match=match):
        run_simulation("MVT", config=tiny_config(), **kwargs)


def test_unknown_scheduler_error_lists_alternatives():
    with pytest.raises(ValueError, match="fcfs"):
        run_simulation("MVT", config=tiny_config(), scheduler="quantum")


def test_run_many_resilient_rejects_bad_budgets():
    with pytest.raises(ValueError, match="retries"):
        run_many_resilient([_good_spec()], retries=-1)
    with pytest.raises(ValueError, match="timeout"):
        run_many_resilient([_good_spec()], timeout=0)


# ----------------------------------------------------------------------
# Crash isolation
# ----------------------------------------------------------------------


def test_killed_worker_loses_only_its_own_job():
    specs = [_good_spec(1), _broken_spec("exit"), _good_spec(2)]
    outcomes = run_many_resilient(specs, jobs=2)
    assert [o.index for o in outcomes] == [0, 1, 2]
    assert outcomes[0].ok and outcomes[2].ok
    crashed = outcomes[1]
    assert not crashed.ok
    assert crashed.status == "failed"
    assert crashed.error_type == "WorkerCrash"
    assert "exit code 42" in crashed.error
    assert "BRK" in crashed.spec_summary
    # The surviving results match a direct serial run exactly.
    assert _fingerprint(outcomes[0].result) == _fingerprint(
        run_simulation(**_good_spec(1))
    )


def test_worker_exception_reported_with_spec_and_traceback():
    specs = [_good_spec(), _broken_spec("raise")]
    outcomes = run_many_resilient(specs, jobs=2)
    failed = outcomes[1]
    assert failed.status == "failed"
    assert failed.error_type == "RuntimeError"
    assert "synthetic workload failure" in failed.error
    assert "synthetic workload failure" in failed.traceback
    assert "build_trace" in failed.traceback


def test_a_spec_that_exits_fails_alone_in_either_attempt_mode():
    # In-process (jobs=1, no timeout) and child-process (a timeout)
    # attempts must agree: the exiting spec fails, the sweep goes on.
    specs = [_broken_spec("sysexit"), _good_spec()]

    def verdicts(outcomes):
        return [(o.status, o.error_type) for o in outcomes]

    in_process = run_many_resilient(specs, jobs=1)
    child = run_many_resilient(specs, jobs=1, timeout=60)
    assert verdicts(in_process) == verdicts(child) == [
        ("failed", "SystemExit"), ("ok", None),
    ]
    # An interrupt is not a spec failure: it still stops a serial sweep.
    with pytest.raises(KeyboardInterrupt):
        run_many_resilient([_broken_spec("interrupt"), _good_spec()], jobs=1)


def test_run_many_raises_spec_execution_error_naming_the_spec():
    with pytest.raises(SpecExecutionError) as excinfo:
        run_many([_good_spec(), _broken_spec("raise")], jobs=2)
    message = str(excinfo.value)
    assert "workload=BRK" in message
    assert "synthetic workload failure" in message
    assert "worker traceback" in message
    assert excinfo.value.outcome.index == 1


def test_run_many_return_outcomes_never_raises():
    outcomes = run_many([_broken_spec("raise")], return_outcomes=True)
    assert isinstance(outcomes[0], RunOutcome)
    assert not outcomes[0].ok


# ----------------------------------------------------------------------
# Retries
# ----------------------------------------------------------------------


def test_persistent_crash_consumes_exactly_the_retry_budget():
    outcomes = run_many_resilient(
        [_broken_spec("exit")], jobs=2, retries=2, backoff_seconds=0.01
    )
    assert outcomes[0].status == "failed"
    assert outcomes[0].attempts == 3  # 1 try + 2 retries


def test_transient_crash_recovers_within_budget(tmp_path):
    sentinel = str(tmp_path / "crashed-once")
    outcomes = run_many_resilient(
        [_broken_spec("exit", sentinel=sentinel)],
        jobs=2, retries=1, backoff_seconds=0.01,
    )
    assert outcomes[0].ok
    assert outcomes[0].attempts == 2
    assert outcomes[0].result.workload == "BRK"


def test_serial_in_process_path_retries_and_captures_failures():
    outcomes = run_many_resilient(
        [_broken_spec("raise"), _good_spec()], jobs=1, retries=1,
        backoff_seconds=0.01,
    )
    assert outcomes[0].status == "failed"
    assert outcomes[0].attempts == 2
    assert "synthetic workload failure" in outcomes[0].traceback
    assert outcomes[1].ok


# ----------------------------------------------------------------------
# Timeouts
# ----------------------------------------------------------------------


def test_hung_worker_is_terminated_at_the_deadline():
    start = time.monotonic()
    outcomes = run_many_resilient(
        [_broken_spec("hang"), _good_spec()], jobs=2, timeout=1.5
    )
    elapsed = time.monotonic() - start
    assert outcomes[0].status == "timeout"
    assert "1.5" in outcomes[0].error
    assert outcomes[1].ok
    assert elapsed < 15  # nowhere near the 30 s the hang wanted


def test_transient_hang_recovers_on_retry(tmp_path):
    sentinel = str(tmp_path / "hung-once")
    outcomes = run_many_resilient(
        [_broken_spec("hang", sentinel=sentinel)],
        jobs=1, timeout=1.5, retries=1, backoff_seconds=0.01,
    )
    assert outcomes[0].ok
    assert outcomes[0].attempts == 2


# ----------------------------------------------------------------------
# Checkpointing
# ----------------------------------------------------------------------


def test_checkpoint_resume_skips_completed_jobs(tmp_path):
    ckpt = str(tmp_path / "sweep")
    specs = [_good_spec(1), _good_spec(2)]
    first = run_many_resilient(specs, checkpoint=ckpt)
    assert all(o.ok and not o.from_checkpoint for o in first)
    second = run_many_resilient(specs, checkpoint=ckpt)
    assert all(o.ok and o.from_checkpoint for o in second)
    assert [_fingerprint(o.result) for o in first] == [
        _fingerprint(o.result) for o in second
    ]


def test_failed_jobs_are_not_checkpointed(tmp_path):
    ckpt = tmp_path / "sweep"
    specs = [_good_spec(3), _broken_spec("raise")]
    run_many_resilient(specs, jobs=2, checkpoint=str(ckpt))
    assert len(list(ckpt.glob("*.json"))) == 1
    # The failed spec re-runs on resume (and fails again); the good one
    # is served from disk.
    again = run_many_resilient(specs, jobs=2, checkpoint=str(ckpt))
    assert again[0].from_checkpoint
    assert again[1].status == "failed"


def test_spec_key_distinguishes_specs():
    assert spec_key(_good_spec(1)) == spec_key(_good_spec(1))
    assert spec_key(_good_spec(1)) != spec_key(_good_spec(2))


# ----------------------------------------------------------------------
# Parallel == serial
# ----------------------------------------------------------------------


def test_resilient_parallel_matches_direct_runs():
    specs = [_good_spec(1), _good_spec(2), _good_spec(3)]
    outcomes = run_many_resilient(specs, jobs=3)
    direct = [run_simulation(**spec) for spec in specs]
    assert [_fingerprint(o.result) for o in outcomes] == [
        _fingerprint(r) for r in direct
    ]


# ----------------------------------------------------------------------
# In-run checkpointing: retries resume from the middle
# ----------------------------------------------------------------------


def test_inrun_checkpointing_validates_its_inputs(tmp_path):
    with pytest.raises(ValueError, match="checkpoint"):
        run_many_resilient([_good_spec()], inrun_checkpoint_every=100)
    with pytest.raises(ValueError, match="inrun_checkpoint_every"):
        run_many_resilient(
            [_good_spec()],
            checkpoint=str(tmp_path / "sweep"),
            inrun_checkpoint_every=0,
        )


def test_inrun_resume_continues_an_interrupted_run(tmp_path, monkeypatch):
    from repro.experiments import runner as runner_module
    from repro.resilience.outcomes import CheckpointStore

    spec = _good_spec(4)
    want = _fingerprint(run_simulation(**spec))

    # Fabricate a dead previous attempt: run the same spec with periodic
    # checkpointing straight to its sweep in-run path.  The completed
    # run leaves its *last mid-run* dump behind, exactly what a killed
    # or timed-out worker would have left.
    ckpt = tmp_path / "sweep"
    inrun = CheckpointStore(str(ckpt)).inrun_path(spec)
    run_simulation(
        **spec, checkpoint_every=500, checkpoint_path=str(inrun)
    )
    assert inrun.exists()

    # The retry must go through resume_simulation, never a full restart.
    def _no_restart(*_args, **_kwargs):
        raise AssertionError("expected a resume, got a fresh run")

    monkeypatch.setattr(runner_module, "run_simulation", _no_restart)
    outcomes = run_many_resilient(
        [spec], checkpoint=str(ckpt), inrun_checkpoint_every=500
    )
    assert outcomes[0].ok
    assert _fingerprint(outcomes[0].result) == want
    assert not inrun.exists()  # consumed and cleaned up on success


@pytest.mark.parametrize("damage", ["torn", "other_code"])
def test_unusable_inrun_checkpoint_restarts_the_spec(
    tmp_path, monkeypatch, damage
):
    from repro.experiments import runner as runner_module
    from repro.resilience.outcomes import CheckpointStore

    spec = _good_spec(6)
    want = _fingerprint(run_simulation(**spec))
    ckpt = tmp_path / "sweep"
    inrun = CheckpointStore(str(ckpt)).inrun_path(spec)
    run_simulation(**spec, checkpoint_every=500, checkpoint_path=str(inrun))
    blob = inrun.read_bytes()
    if damage == "torn":
        # A dump cut short, as a non-atomic filesystem could leave it.
        inrun.write_bytes(blob[: len(blob) // 2])
    else:
        # The same state stamped by other code: its pickle would name
        # classes and handlers this code may not have.
        payload = pickle.loads(blob)
        payload["code"] = "0" * 16
        inrun.write_bytes(pickle.dumps(payload))

    fresh_runs = []
    real_run_simulation = runner_module.run_simulation

    def counting_run_simulation(**kwargs):
        fresh_runs.append(kwargs)
        return real_run_simulation(**kwargs)

    monkeypatch.setattr(
        runner_module, "run_simulation", counting_run_simulation
    )
    outcomes = run_many_resilient(
        [spec], checkpoint=str(ckpt), inrun_checkpoint_every=500
    )
    assert outcomes[0].ok
    assert _fingerprint(outcomes[0].result) == want
    assert len(fresh_runs) == 1  # restarted from the beginning, once
    assert not inrun.exists()


def test_inrun_checkpointing_does_not_perturb_results(tmp_path):
    spec = _good_spec(5)
    want = _fingerprint(run_simulation(**spec))
    outcomes = run_many_resilient(
        [spec],
        checkpoint=str(tmp_path / "sweep"),
        inrun_checkpoint_every=500,
    )
    assert outcomes[0].ok
    assert _fingerprint(outcomes[0].result) == want


# ----------------------------------------------------------------------
# Retry backoff: decorrelated jitter
# ----------------------------------------------------------------------


def test_backoff_delay_stays_within_jitter_bounds():
    import random as random_module

    from repro.experiments.runner import _backoff_delay

    rng = random_module.Random(7)
    base, cap = 0.25, 30.0
    previous = base
    delays = []
    for _ in range(500):
        delay = _backoff_delay(previous, base, cap=cap, rng=rng)
        assert base <= delay <= cap
        assert delay <= max(base, previous * 3.0)
        delays.append(delay)
        previous = delay
    # Jittered, not lockstep: consecutive failures must not all share
    # one deterministic schedule (draws at the cap legitimately repeat).
    uncapped = [delay for delay in delays if delay < cap]
    assert len({round(delay, 9) for delay in uncapped}) == len(uncapped)
    # Growth: successive draws reach well beyond the base on average.
    assert max(delays) > 10 * base


def test_backoff_delay_respects_the_cap():
    from repro.experiments.runner import _backoff_delay

    assert _backoff_delay(1e9, 0.25, cap=30.0) == 30.0


# ----------------------------------------------------------------------
# CheckpointStore: concurrent writers never tear a result file
# ----------------------------------------------------------------------


def test_checkpoint_store_concurrent_writers_never_tear(tmp_path):
    import threading

    from repro.resilience.outcomes import CheckpointStore

    spec = _good_spec()
    outcome = run_many_resilient([spec], checkpoint=str(tmp_path))[0]
    assert outcome.ok
    store = CheckpointStore(str(tmp_path))
    result = outcome.result

    # A re-leased shard racing its presumed-dead previous owner: many
    # writers persist the same spec at once.  Every interleaving must
    # leave a loadable result and no leftover temp files.
    errors = []

    def writer():
        try:
            for _ in range(20):
                store.store(spec, result)
        except Exception as exc:  # pragma: no cover - the failure mode
            errors.append(exc)

    threads = [threading.Thread(target=writer) for _ in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    assert not errors
    loaded = store.load(spec)
    assert loaded is not None
    assert _fingerprint(loaded) == _fingerprint(result)
    assert not list(tmp_path.glob("*.tmp"))


def test_checkpoint_store_unserialisable_result_leaves_no_file(tmp_path):
    # The result is serialised before any file is opened: one that does
    # not serialise raises and leaves the store as it was, with no
    # stray temp file beside the stored result.
    from repro.resilience.outcomes import CheckpointStore
    from repro.stats.metrics import SimulationResult

    store = CheckpointStore(str(tmp_path))
    spec = _good_spec()
    result = SimulationResult(
        workload="MVT", scheduler="fcfs", total_cycles=1, instructions=1,
        wavefronts=1, stall_cycles=0, walks_dispatched=0,
        walk_memory_accesses=0, interleaved_fraction=0.0,
        first_walk_latency=0.0, last_walk_latency=0.0,
        wavefronts_per_epoch=0.0,
    )
    store.store(spec, result)
    before = sorted(path.name for path in tmp_path.iterdir())
    unserialisable = dataclasses.replace(result, detail={"x": {1, 2}})
    with pytest.raises(TypeError):
        store.store(spec, unserialisable)
    assert sorted(path.name for path in tmp_path.iterdir()) == before
    assert store.load(spec) == result
