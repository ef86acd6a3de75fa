"""Fleet telemetry: event stream, JSONL log, executor integration.

The collector watches the sweep from *outside* the simulations, so the
load-bearing properties are (a) it sees every lifecycle transition the
executors go through — including retries and timeouts on the process
path — and (b) the simulations cannot tell whether it is attached:
results must be bit-identical with telemetry on or off.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import run_many, run_many_resilient
from repro.obs.fleet import FleetTelemetry

from tests.conftest import tiny_config
from tests.test_resilient_runner import BrokenWorkload


def _spec(seed=0, workload="MVT"):
    return {
        "workload": workload,
        "config": tiny_config(),
        "num_wavefronts": 4,
        "scale": 0.05,
        "seed": seed,
    }


def _events_of(telemetry, kind):
    return [e for e in telemetry.events() if e["event"] == kind]


# ----------------------------------------------------------------------
# Collector unit behaviour
# ----------------------------------------------------------------------


def test_emit_records_event_and_timestamp():
    telemetry = FleetTelemetry()
    record = telemetry.emit("custom", index=3)
    assert record["event"] == "custom" and record["index"] == 3
    assert isinstance(record["t"], float)
    assert telemetry.events() == [record]


def test_events_returns_copies():
    telemetry = FleetTelemetry()
    telemetry.emit("custom", index=1)
    telemetry.events()[0]["index"] = 999
    assert telemetry.events()[0]["index"] == 1


def test_rejects_non_positive_heartbeat():
    with pytest.raises(ValueError, match="heartbeat_seconds"):
        FleetTelemetry(heartbeat_seconds=0)
    with pytest.raises(ValueError, match="heartbeat_seconds"):
        FleetTelemetry(heartbeat_seconds=-1.0)
    assert FleetTelemetry(heartbeat_seconds=None).heartbeat_seconds is None


def test_jsonl_log_one_valid_line_per_event(tmp_path):
    log = tmp_path / "fleet.jsonl"
    with FleetTelemetry(log_path=str(log)) as telemetry:
        telemetry.emit("one", index=0)
        telemetry.emit("two", index=1)
    lines = log.read_text().splitlines()
    assert [json.loads(line)["event"] for line in lines] == ["one", "two"]


def test_progress_lines_go_to_stream(tmp_path, capsys):
    import io

    stream = io.StringIO()
    telemetry = FleetTelemetry(progress=True, stream=stream)
    telemetry.sweep_started(total=2, jobs=1)
    assert "2 spec(s)" in stream.getvalue()
    # progress=False stays silent.
    silent = io.StringIO()
    FleetTelemetry(progress=False, stream=silent).sweep_started(total=2, jobs=1)
    assert silent.getvalue() == ""


def test_summary_counts_statuses():
    telemetry = FleetTelemetry()
    telemetry.sweep_started(total=3, jobs=1)
    assert telemetry.summary() == {
        "total": 3, "ok": 0, "failed": 0, "timeout": 0, "retried": 0,
    }


# ----------------------------------------------------------------------
# Serial executor integration
# ----------------------------------------------------------------------


def test_serial_sweep_emits_lifecycle(tmp_path):
    log = tmp_path / "fleet.jsonl"
    specs = [_spec(seed=s) for s in range(2)]
    with FleetTelemetry(log_path=str(log)) as telemetry:
        outcomes = run_many_resilient(specs, telemetry=telemetry)
    assert all(o.ok for o in outcomes)
    kinds = [e["event"] for e in telemetry.events()]
    assert kinds[0] == "sweep_started"
    assert kinds[-1] == "sweep_finished"
    assert kinds.count("spec_started") == 2
    assert kinds.count("spec_finished") == 2
    finished = _events_of(telemetry, "spec_finished")
    assert all(e["status"] == "ok" for e in finished)
    assert all(e["total_cycles"] > 0 for e in finished)
    assert all("events_per_sec" in e for e in finished)
    assert telemetry.summary() == {
        "total": 2, "ok": 2, "failed": 0, "timeout": 0, "retried": 0,
    }
    # The JSONL log carries the same stream.
    logged = [json.loads(l)["event"] for l in log.read_text().splitlines()]
    assert logged == kinds


def test_results_identical_with_and_without_telemetry():
    specs = [_spec(seed=s) for s in range(2)]
    plain = run_many(specs)
    with FleetTelemetry() as telemetry:
        watched = run_many(specs, telemetry=telemetry)
    for a, b in zip(plain, watched):
        assert (a.total_cycles, a.stall_cycles, a.walks_dispatched) == (
            b.total_cycles, b.stall_cycles, b.walks_dispatched
        )


def test_serial_retry_and_failure_emitted(tmp_path):
    sentinel = tmp_path / "flaky"
    specs = [
        {"workload": BrokenWorkload("raise", sentinel=str(sentinel)),
         "config": tiny_config(), "num_wavefronts": 4},
        {"workload": BrokenWorkload("raise"),
         "config": tiny_config(), "num_wavefronts": 4},
    ]
    with FleetTelemetry() as telemetry:
        outcomes = run_many_resilient(specs, retries=1, backoff_seconds=0.01,
                                      telemetry=telemetry)
    assert outcomes[0].ok and outcomes[0].attempts == 2
    assert not outcomes[1].ok
    retries = _events_of(telemetry, "spec_retry")
    assert {e["index"] for e in retries} == {0, 1}
    assert all(e["error_type"] == "RuntimeError" for e in retries)
    finished = {e["index"]: e for e in _events_of(telemetry, "spec_finished")}
    assert finished[0]["status"] == "ok"
    assert finished[1]["status"] == "failed"
    assert finished[1]["error_type"] == "RuntimeError"
    summary = telemetry.summary()
    assert summary["ok"] == 1 and summary["failed"] == 1
    assert summary["retried"] == 2


def test_in_process_and_per_process_attempts_retry_the_same_way(tmp_path):
    def sweep(sentinel, **kwargs):
        specs = [
            {"workload": BrokenWorkload("raise", sentinel=str(sentinel)),
             "config": tiny_config(), "num_wavefronts": 4},
            _spec(seed=1),
        ]
        with FleetTelemetry(heartbeat_seconds=None) as telemetry:
            outcomes = run_many_resilient(
                specs, retries=1, backoff_seconds=0.01, telemetry=telemetry,
                **kwargs,
            )
        verdicts = [
            (o.index, o.status, o.attempts, o.error_type,
             o.result.total_cycles if o.ok else None)
            for o in outcomes
        ]
        sequence = [
            (e["event"], e.get("index"), e.get("attempt", e.get("attempts")))
            for e in telemetry.events()
        ]
        return verdicts, sequence

    in_process = sweep(tmp_path / "serial", jobs=1)
    per_process = sweep(tmp_path / "forked", jobs=1, timeout=60)
    assert in_process == per_process
    verdicts, sequence = in_process
    assert [v[:3] for v in verdicts] == [(0, "ok", 2), (1, "ok", 1)]
    # The retry of spec 0 waits out its backoff behind the ready spec 1.
    assert sequence == [
        ("sweep_started", None, None),
        ("spec_started", 0, 1),
        ("spec_retry", 0, 1),
        ("spec_started", 1, 1),
        ("spec_finished", 1, 1),
        ("spec_started", 0, 2),
        ("spec_finished", 0, 2),
        ("sweep_finished", None, None),
    ]


# ----------------------------------------------------------------------
# Process executor integration
# ----------------------------------------------------------------------


def test_process_sweep_emits_lifecycle_and_identical_results():
    specs = [_spec(seed=s) for s in range(3)]
    serial = run_many(specs)
    with FleetTelemetry() as telemetry:
        outcomes = run_many_resilient(specs, jobs=2, telemetry=telemetry)
    assert [o.status for o in outcomes] == ["ok"] * 3
    for result, outcome in zip(serial, outcomes):
        assert result.total_cycles == outcome.result.total_cycles
    finished = _events_of(telemetry, "spec_finished")
    # Events arrive in completion order, but cover every spec exactly once.
    assert sorted(e["index"] for e in finished) == [0, 1, 2]
    assert telemetry.summary()["ok"] == 3


def test_process_timeout_emits_timeout_and_heartbeats():
    specs = [
        {"workload": BrokenWorkload("hang"),
         "config": tiny_config(), "num_wavefronts": 4},
    ]
    with FleetTelemetry(heartbeat_seconds=0.2) as telemetry:
        outcomes = run_many_resilient(specs, jobs=1, timeout=2.0,
                                      telemetry=telemetry)
    assert outcomes[0].status == "timeout"
    timeouts = _events_of(telemetry, "spec_timeout")
    assert len(timeouts) == 1
    assert timeouts[0]["timeout_seconds"] == 2.0
    heartbeats = _events_of(telemetry, "heartbeat")
    assert heartbeats, "a hanging worker should have heartbeated"
    assert all(e["pid"] > 0 for e in heartbeats)
    # One attempt, one worker process: every beat names it, and its
    # elapsed time only grows.
    assert len({e["pid"] for e in heartbeats}) == 1
    assert {(e["index"], e["attempt"]) for e in heartbeats} == {(0, 1)}
    elapsed = [e["elapsed_seconds"] for e in heartbeats]
    assert elapsed == sorted(set(elapsed))
    assert telemetry.summary()["timeout"] == 1


def test_checkpointed_specs_reported_as_finished(tmp_path):
    specs = [_spec(seed=s) for s in range(2)]
    store = str(tmp_path / "ckpt")
    run_many_resilient(specs, checkpoint=store)
    with FleetTelemetry() as telemetry:
        outcomes = run_many_resilient(specs, checkpoint=store,
                                      telemetry=telemetry)
    assert all(o.from_checkpoint for o in outcomes)
    started = _events_of(telemetry, "sweep_started")
    assert started[0]["checkpointed"] == 2
    finished = _events_of(telemetry, "spec_finished")
    assert len(finished) == 2
    assert telemetry.summary()["ok"] == 2


def test_log_write_failure_degrades_not_raises(tmp_path):
    log = tmp_path / "fleet.jsonl"
    telemetry = FleetTelemetry(log_path=str(log))
    telemetry._log.close()  # simulate the disk going away mid-sweep
    telemetry.emit("after_close", index=0)  # must not raise
    assert telemetry._log is None
    assert [e["event"] for e in telemetry.events()] == ["after_close"]
