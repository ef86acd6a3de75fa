"""The durable sweep service: queue semantics, recovery, byte-identity.

The service's contract is that delivery-layer violence — killed
workers, expired leases, interrupted brokers, full restarts — never
changes what was computed.  The tests here attack each layer:

* queue: atomic claims, stale-lease reaping, poison-task abandonment,
  the idempotent crash-recovery rules;
* manifest: roundtrip, spec-identity validation, version gating;
* broker: init after an interrupted init, merge's
  zero-lost/zero-duplicated enforcement;
* status: done counts, retries, ETA and live claims, with staleness
  decided by the same rule as the reaper;
* end to end: a worker-drained campaign merges byte-identical to the
  uninterrupted serial run — including after a worker is SIGKILLed
  mid-simulation and its spec resumes from an in-run checkpoint on a
  different worker.
"""

from __future__ import annotations

import json
import os
import signal
import threading
import time
from pathlib import Path

import pytest

from repro.experiments.runner import run_many_resilient
from repro.obs.aggregate import (
    deterministic_view,
    fleet_report,
    render_fleet_report,
)
from repro.obs.fleet import FleetTelemetry
from repro.service import manifest as manifest_mod
from repro.service.broker import (
    campaign_status,
    init_campaign,
    merge_campaign,
    run_service,
)
from repro.service.lease import read_lease, write_lease
from repro.service.manifest import load_manifest, plan_campaign, save_manifest
from repro.service.queue import DEFAULT_LEASE_TTL_SECONDS, FileWorkQueue
from repro.service.worker import run_worker, spawn_workers

from tests.conftest import tiny_config


# ----------------------------------------------------------------------
# Queue: claims, leases, recovery rules
# ----------------------------------------------------------------------


def test_concurrent_claims_are_exclusive(tmp_path):
    queue = FileWorkQueue(tmp_path / "queue")
    for index in range(4):
        queue.put({"id": f"task-{index}", "spec_indices": [index]})
    claimed, lock = [], threading.Lock()

    def claimer(worker):
        while True:
            task = queue.claim(worker)
            if task is None:
                return
            with lock:
                claimed.append((task["id"], worker))

    threads = [
        threading.Thread(target=claimer, args=(f"w{i}",)) for i in range(8)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    ids = [task_id for task_id, _worker in claimed]
    assert sorted(ids) == [f"task-{i}" for i in range(4)]  # nothing lost
    assert len(set(ids)) == len(ids)  # nothing double-claimed


def test_reap_requeues_stale_lease_with_history(tmp_path):
    queue = FileWorkQueue(tmp_path / "queue")
    queue.put({"id": "t", "spec_indices": [0]})
    task = queue.claim("dead-worker")
    assert task["attempts"] == 1
    requeued, abandoned = queue.reap(0.0)
    assert requeued == ["t"] and abandoned == []
    # The dead owner's heartbeat must fail from now on.
    assert not queue.heartbeat("t", "dead-worker")
    reclaimed = queue.claim("live-worker")
    assert reclaimed["attempts"] == 2
    events = [entry["event"] for entry in reclaimed["history"]]
    assert events == ["claimed", "requeued", "claimed"]


def test_live_lease_survives_reap(tmp_path):
    queue = FileWorkQueue(tmp_path / "queue")
    queue.put({"id": "t", "spec_indices": [0]})
    task = queue.claim("w")
    assert queue.heartbeat("t", "w")
    requeued, abandoned = queue.reap(60.0)
    assert requeued == [] and abandoned == []
    queue.complete(task, {"ok": True})
    assert queue.drained()


def test_poison_task_is_abandoned_after_max_attempts(tmp_path):
    queue = FileWorkQueue(tmp_path / "queue")
    queue.put({"id": "poison", "spec_indices": [0]})
    for attempt in range(3):
        task = queue.claim(f"victim-{attempt}")
        assert task is not None
        queue.reap(0.0, max_attempts=3)
    assert queue.drained()
    record = queue.done_records()["poison"]
    assert record["record"]["abandoned"]
    assert record["task"]["attempts"] == 3


def test_reap_garbage_collects_lease_of_completed_task(tmp_path):
    # Owner died after writing the done record but before releasing the
    # lease: the done file wins and the lease is junk.
    queue = FileWorkQueue(tmp_path / "queue")
    queue.put({"id": "t", "spec_indices": [0]})
    task = queue.claim("w")
    # Simulate the partial complete: done record only.
    (queue.done_dir / "t.json").write_text(
        json.dumps({"task": task, "record": {"ok": True}})
    )
    requeued, abandoned = queue.reap(0.0)
    assert requeued == [] and abandoned == []
    assert queue.drained()
    assert not (queue.leased_dir / "t.json").exists()


def test_reap_drops_stale_leased_copy_of_requeued_task(tmp_path):
    # A requeue interrupted between the pending write and the leased
    # cleanup leaves both copies; the pending one is authoritative.
    queue = FileWorkQueue(tmp_path / "queue")
    queue.put({"id": "t", "spec_indices": [0]})
    task = queue.claim("w")
    (queue.pending_dir / "t.json").write_text(json.dumps(task))
    queue.reap(0.0)
    assert not (queue.leased_dir / "t.json").exists()
    assert queue.claim("w2") is not None


# ----------------------------------------------------------------------
# Manifest: identity, roundtrip, validation
# ----------------------------------------------------------------------


def _plan(batch_size=2, config=None):
    return plan_campaign(
        ["MVT"], ["fcfs", "simt"], seeds=2,
        scale=0.05, num_wavefronts=8, config=config, batch_size=batch_size,
    )


def test_manifest_roundtrip_rebuilds_identical_specs(tmp_path):
    manifest = _plan(config=tiny_config())
    path = tmp_path / "manifest.json"
    save_manifest(path, manifest)
    loaded = load_manifest(path)
    assert loaded.spec_keys == manifest.spec_keys
    assert loaded.batches == manifest.batches
    specs = loaded.build_specs()
    assert len(specs) == 4
    assert [spec["scheduler"] for spec in specs] == [
        "fcfs", "fcfs", "simt", "simt",
    ]


def test_manifest_rejects_edited_spec_keys(tmp_path):
    manifest = _plan()
    path = tmp_path / "manifest.json"
    save_manifest(path, manifest)
    payload = json.loads(path.read_text())
    payload["spec_keys"][0] = "0" * 24
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="spec_keys"):
        load_manifest(path).build_specs()


def test_manifest_version_and_format_are_gated(tmp_path):
    path = tmp_path / "manifest.json"
    for foreign in (json.dumps({"format": "something-else"}), "[]", "{"):
        path.write_text(foreign)
        with pytest.raises(ValueError, match="not a campaign manifest"):
            load_manifest(path)
    manifest = _plan()
    save_manifest(path, manifest)
    payload = json.loads(path.read_text())
    payload["version"] = 99
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version 99"):
        load_manifest(path)
    with pytest.raises(FileNotFoundError, match="service init"):
        load_manifest(tmp_path / "missing.json")


# ----------------------------------------------------------------------
# Broker: init, merge enforcement
# ----------------------------------------------------------------------


def _init(tmp_path, **overrides):
    options = dict(
        workloads=["MVT"], schedulers=["fcfs", "simt"], seeds=2,
        scale=0.05, num_wavefronts=8, config=tiny_config(), batch_size=2,
    )
    options.update(overrides)
    return init_campaign(tmp_path / "campaign", **options)


def test_init_refuses_to_overwrite_a_campaign(tmp_path):
    _init(tmp_path)
    with pytest.raises(FileExistsError, match="repro service run"):
        _init(tmp_path)


def test_init_starts_over_after_an_interrupted_init(tmp_path):
    # An init killed mid-enqueue left some tasks and no manifest (the
    # manifest is written last), so no worker could have run; the next
    # init rebuilds the queue whole, including a stale leftover task.
    campaign_dir = tmp_path / "campaign"
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    queue.put({"id": "batch-00000", "batch": 0, "spec_indices": [0, 1]})
    queue.put({"id": "batch-00009", "batch": 9, "spec_indices": [7]})
    assert not manifest_mod.manifest_path(campaign_dir).exists()
    manifest = _init(tmp_path)
    assert sorted(
        path.stem for path in queue.pending_dir.glob("*.json")
    ) == [manifest.task_id(index) for index in range(len(manifest.batches))]
    assert campaign_status(campaign_dir)["queue"] == {
        "pending": len(manifest.batches), "leased": 0, "done": 0,
    }


def test_merge_refuses_an_incomplete_campaign(tmp_path):
    _init(tmp_path)
    campaign_dir = tmp_path / "campaign"
    with pytest.raises(RuntimeError, match="incomplete.*service run"):
        merge_campaign(campaign_dir)
    merged = merge_campaign(campaign_dir, allow_incomplete=True)
    report = merged["report"]
    assert report["failed"] == report["specs"]
    assert all(
        failure["error_type"] == "Incomplete"
        for failure in report["failures"]
    )


def test_merge_of_a_drained_queue_that_lost_tasks_says_to_reinit(tmp_path):
    # With the queue drained, `service run` has nothing left to run, so
    # pointing at it would loop; the lost tasks need a fresh init.
    _init(tmp_path)
    campaign_dir = tmp_path / "campaign"
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    for path in queue.pending_dir.glob("*.json"):
        path.unlink()
    assert queue.drained()
    with pytest.raises(RuntimeError, match="re-init") as raised:
        merge_campaign(campaign_dir)
    assert "service run" not in str(raised.value)


def test_merge_detects_duplicated_and_lost_placement(tmp_path):
    manifest = _init(tmp_path)
    campaign_dir = tmp_path / "campaign"
    path = manifest_mod.manifest_path(campaign_dir)
    # Duplicate: spec 0 placed in two shards.
    manifest.batches = [[0, 1], [0, 3]]
    save_manifest(path, manifest)
    with pytest.raises(RuntimeError, match="duplicated"):
        merge_campaign(campaign_dir, allow_incomplete=True)
    # Lost: spec 2 in no shard.
    manifest.batches = [[0, 1], [3]]
    save_manifest(path, manifest)
    with pytest.raises(RuntimeError, match="lost specs \\[2\\]"):
        merge_campaign(campaign_dir, allow_incomplete=True)


# ----------------------------------------------------------------------
# Status: derived from done records and leases, no logs
# ----------------------------------------------------------------------


def _status_campaign(tmp_path, batch_size=2):
    _init(tmp_path, batch_size=batch_size)
    campaign_dir = tmp_path / "campaign"
    return campaign_dir, FileWorkQueue(manifest_mod.queue_root(campaign_dir))


def _set_beat(queue, task_id, beat_age, claim_age=None):
    now = time.time()
    path = queue.leases_dir / f"{task_id}.json"
    lease = read_lease(path)
    lease.claimed_t = now - (beat_age if claim_age is None else claim_age)
    lease.beat_t = now - beat_age
    write_lease(path, lease)


def _outcome(index, status="ok", attempts=1, elapsed=1.0, cached=False):
    return {"spec_index": index, "status": status, "attempts": attempts,
            "elapsed_seconds": elapsed, "from_checkpoint": cached}


def test_status_fresh_lease_beat_is_running_not_stale(tmp_path):
    # The shard's spec started 61 s ago, longer than any heartbeat
    # window, but its worker's lease beat a second ago: it is alive.
    campaign_dir, queue = _status_campaign(tmp_path)
    task = queue.claim("w0")
    leased = queue.leased_dir / f"{task['id']}.json"
    old = time.time() - 61
    os.utime(leased, (old, old))
    _set_beat(queue, task["id"], beat_age=1.0, claim_age=61.0)
    (row,) = campaign_status(campaign_dir)["running"]
    assert row["task"] == task["id"] and row["worker"] == "w0"
    assert row["pid"] == os.getpid()
    assert row["attempt"] == 1 and row["specs"] == 2
    assert 1.0 <= row["heartbeat_age_seconds"] < 5.0
    assert row["stale"] is False
    assert queue.reap() == ([], [])


def test_status_flags_a_lease_beat_older_than_the_ttl(tmp_path):
    campaign_dir, queue = _status_campaign(tmp_path)
    task = queue.claim("w0")
    _set_beat(queue, task["id"], beat_age=DEFAULT_LEASE_TTL_SECONDS + 5)
    (row,) = campaign_status(campaign_dir)["running"]
    assert row["stale"] is True
    assert row["heartbeat_age_seconds"] > DEFAULT_LEASE_TTL_SECONDS
    # Stale in status means a reap at the default TTL expires it.
    assert queue.reap() == ([task["id"]], [])
    assert campaign_status(campaign_dir)["running"] == []


def test_status_without_a_lease_sidecar_ages_the_leased_file(tmp_path):
    campaign_dir, queue = _status_campaign(tmp_path)
    task = queue.claim("w0")
    os.unlink(queue.leases_dir / f"{task['id']}.json")
    leased = queue.leased_dir / f"{task['id']}.json"
    recent = time.time() - 5
    os.utime(leased, (recent, recent))
    (row,) = campaign_status(campaign_dir)["running"]
    assert row["worker"] is None and row["pid"] is None
    assert row["attempt"] == 1
    assert 5.0 <= row["heartbeat_age_seconds"] < DEFAULT_LEASE_TTL_SECONDS
    assert row["stale"] is False
    assert queue.reap() == ([], [])
    old = time.time() - DEFAULT_LEASE_TTL_SECONDS - 5
    os.utime(leased, (old, old))
    (row,) = campaign_status(campaign_dir)["running"]
    assert row["stale"] is True
    assert queue.reap() == ([task["id"]], [])


def test_status_counts_spec_retries_and_shard_reclaims(tmp_path):
    campaign_dir, queue = _status_campaign(tmp_path, batch_size=4)
    queue.claim("w0")
    queue.reap(0.0)  # w0 died: its one shard goes back to pending
    task = queue.claim("w1")
    assert task["attempts"] == 2
    queue.complete(task, {"outcomes": [
        _outcome(index, attempts=2 if index == 0 else 1)
        for index in task["spec_indices"]
    ]})
    status = campaign_status(campaign_dir)
    # One re-claim of the shard plus one retried spec.
    assert status["retries"] == 2
    assert status["spec_status"] == {"ok": 4}


def test_status_counts_and_eta_come_from_done_records(tmp_path):
    campaign_dir, queue = _status_campaign(tmp_path, batch_size=1)
    results = [
        _outcome(0, elapsed=10.0),
        _outcome(1, elapsed=0.0, cached=True),  # served, not run
        _outcome(2, status="failed", elapsed=20.0),
    ]
    for outcome in results:
        queue.complete(queue.claim("w0"), {"outcomes": [outcome]})
    queue.claim("w1")
    status = campaign_status(campaign_dir)
    assert status["spec_status"] == {"ok": 2, "failed": 1}
    assert status["specs_in_done_batches"] == 3
    # Mean of the specs that ran (15 s) × 1 spec left / 1 leased shard.
    assert status["eta_seconds"] == 15.0
    assert [row["worker"] for row in status["running"]] == ["w1"]


def test_status_has_no_eta_before_any_spec_finishes(tmp_path):
    campaign_dir, queue = _status_campaign(tmp_path)
    queue.claim("w0")
    status = campaign_status(campaign_dir)
    assert status["eta_seconds"] is None
    assert status["spec_status"] == {} and status["retries"] == 0
    assert len(status["running"]) == 1 and not status["drained"]


def test_status_of_a_drained_campaign_exits_0(tmp_path, capsys):
    from repro.__main__ import main

    campaign_dir, queue = _status_campaign(tmp_path)
    for _shard in range(2):
        task = queue.claim("w0")
        queue.complete(task, {"outcomes": [
            _outcome(index) for index in task["spec_indices"]
        ]})
    assert main(["service", "status", str(campaign_dir)]) == 0
    status = json.loads(capsys.readouterr().out)
    assert status["running"] == [] and status["drained"]
    assert status["spec_status"] == {"ok": 4}
    assert status["eta_seconds"] == 0.0
    assert status["abandoned"] == []


# ----------------------------------------------------------------------
# End to end: byte-identity through workers, kills and restarts
# ----------------------------------------------------------------------


def _reference_rendering(manifest):
    specs = manifest.build_specs()
    return render_fleet_report(
        deterministic_view(
            fleet_report(
                specs,
                run_many_resilient(specs),
                baseline_scheduler=manifest.campaign["baseline"],
            )
        )
    )


def test_worker_drains_campaign_and_merge_matches_serial(tmp_path):
    manifest = _init(tmp_path)
    campaign_dir = tmp_path / "campaign"
    reference = _reference_rendering(manifest)
    summary = run_worker(
        campaign_dir, worker_id="w0", inrun_checkpoint_every=1000
    )
    assert sorted(summary["tasks_executed"]) == [
        manifest.task_id(index) for index in range(len(manifest.batches))
    ]
    status = campaign_status(campaign_dir)
    assert status["drained"] and not status["abandoned"]
    merged = merge_campaign(campaign_dir)
    deterministic = Path(merged["paths"]["deterministic"]).read_text()
    assert deterministic == reference + "\n"
    # Per-shard fleet logs landed, tagged with shard/worker context.
    logs = sorted(manifest_mod.shards_dir(campaign_dir).glob("*.jsonl"))
    assert len(logs) == len(manifest.batches)
    record = json.loads(logs[0].read_text().splitlines()[0])
    assert record["worker"] == "w0"
    assert record["shard"] == manifest.task_id(0)
    # The attempt audit is folded back into the manifest.
    updated = load_manifest(manifest_mod.manifest_path(campaign_dir))
    assert set(updated.attempts) == set(summary["tasks_executed"])
    assert all(entry["claims"] == 1 for entry in updated.attempts.values())


def test_sigkilled_worker_resumes_mid_spec_on_another_worker(tmp_path):
    # One spec is ~65k events at this scale; checkpointing every 1500
    # events gives the killer dozens of chances to land mid-simulation.
    manifest = init_campaign(
        tmp_path / "campaign",
        workloads=["MVT"], schedulers=["fcfs", "simt"], seeds=1,
        scale=0.3, num_wavefronts=24, config=tiny_config(), batch_size=1,
    )
    campaign_dir = tmp_path / "campaign"
    reference = _reference_rendering(manifest)

    checkpoints = manifest_mod.checkpoints_dir(campaign_dir)
    pool = spawn_workers(
        campaign_dir, 1, name_prefix="victim",
        lease_ttl=1.0, heartbeat_seconds=0.2, poll_seconds=0.1,
        inrun_checkpoint_every=1500,
    )
    victim = pool[0]
    # Kill the worker the moment a mid-run checkpoint appears: the spec
    # is provably half-done at that point.
    deadline = time.monotonic() + 60
    while not list(checkpoints.glob("*.ckpt")):
        assert time.monotonic() < deadline, "no in-run checkpoint appeared"
        assert victim.is_alive(), "worker finished before the kill landed"
        time.sleep(0.01)
    os.kill(victim.pid, signal.SIGKILL)
    victim.join(timeout=10)
    assert list(checkpoints.glob("*.ckpt")), "kill destroyed the checkpoint"

    # The campaign must be repairable: `run` reaps the dead worker's
    # lease once it passes the TTL, then a fresh worker finishes
    # everything, resuming the half-done spec from its in-run checkpoint.
    summary = run_service(
        campaign_dir, workers=1, lease_ttl=1.0, poll_seconds=0.1,
        worker_options={
            "heartbeat_seconds": 0.2, "inrun_checkpoint_every": 1500,
            "poll_seconds": 0.1,
        },
    )
    deterministic = Path(
        summary["merge"]["paths"]["deterministic"]
    ).read_text()
    assert deterministic == reference + "\n"
    updated = load_manifest(manifest_mod.manifest_path(campaign_dir))
    assert any(
        entry["claims"] >= 2 for entry in updated.attempts.values()
    ), "no shard was ever re-claimed — the kill tested nothing"


def test_chaos_gate_survives_kills_and_full_restart(tmp_path):
    from tests.chaos import run_chaos

    # Three seeds (six specs, the gate's own default count) keep the
    # campaign running past the seeded kill at 86 ms; with two specs a
    # fast host can finish both first, and then no drill runs.
    summary = run_chaos(
        tmp_path / "chaos",
        seed=3,
        workers=2,
        workloads=("MVT",),
        schedulers=("fcfs", "simt"),
        seeds=3,
        scale=0.1,
        num_wavefronts=8,
        max_kills=1,
        kill_interval=(0.05, 0.2),
        restart_drill=True,
        max_seconds=120.0,
        quiet=True,
    )
    assert summary["identical"]
    assert summary["restart_drill"]
    assert summary["ok"] == summary["specs"]


# ----------------------------------------------------------------------
# CLI: the service subcommands drive the same machinery
# ----------------------------------------------------------------------


def test_service_cli_init_run_status_merge(tmp_path, capsys):
    from repro.__main__ import main

    campaign = str(tmp_path / "campaign")
    assert main([
        "service", "init", campaign,
        "--workloads", "MVT", "--schedulers", "fcfs,simt",
        "--seeds", "1", "--scale", "0.05", "--wavefronts", "8",
        "--batch-size", "1", "--quiet",
    ]) == 0
    # Status is nonzero while work is outstanding.
    assert main(["service", "status", campaign]) == 1
    assert main([
        "service", "worker", campaign, "--checkpoint-every", "1000", "--quiet",
    ]) == 0
    assert main(["service", "status", campaign]) == 0
    assert main(["service", "merge", campaign, "--quiet"]) == 0
    capsys.readouterr()
    report_path = (
        manifest_mod.report_dir(campaign) / "fleet_report.deterministic.json"
    )
    report = json.loads(report_path.read_text())
    assert report["ok"] == report["specs"] == 2
    assert "wall" not in report and "retried" not in report


# ----------------------------------------------------------------------
# FleetTelemetry context tagging (used by the per-shard logs)
# ----------------------------------------------------------------------


def test_fleet_telemetry_context_tags_every_record(tmp_path):
    log = tmp_path / "shard.jsonl"
    with FleetTelemetry(
        log_path=str(log), context={"shard": "batch-00001", "worker": "w9"}
    ) as telemetry:
        telemetry.sweep_started(total=1, jobs=1)
        telemetry.emit("custom", detail=7)
    records = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(records) == 2
    assert all(record["shard"] == "batch-00001" for record in records)
    assert all(record["worker"] == "w9" for record in records)
    assert records[1]["detail"] == 7
