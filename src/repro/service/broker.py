"""Broker-side operations on a campaign directory.

The broker is a *role*, not a daemon: every operation here reads the
campaign directory, mutates it through the same atomic renames the
workers use, and exits.  Kill it at any point and run it again — the
manifest plus the queue directories ARE the campaign state.

* :func:`init_campaign` — shard the sweep into queue tasks, then write
  the manifest that makes them a campaign;
* :func:`run_service` — convenience supervisor for an initialised
  campaign, fresh or after any crash: spawn local workers, reap stale
  leases while they run, respawn dead workers, and merge when the
  queue drains;
* :func:`merge_campaign` — fold per-shard results into the existing
  deterministic fleet report, byte-identical to a serial run whatever
  the worker count, placement, or crash history;
* :func:`campaign_status` — where a campaign stands: done counts,
  running shards with heartbeat ages, retries and an ETA.
"""

from __future__ import annotations

import json
import shutil
import time
from collections import Counter
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.obs.aggregate import (
    deterministic_view,
    fleet_markdown,
    fleet_report,
    render_fleet_report,
)
from repro.resilience.outcomes import (
    STATUS_FAILED,
    STATUS_OK,
    CheckpointStore,
    RunOutcome,
    describe_spec,
    outcome_from_dict,
)
from repro.service import manifest as manifest_mod
from repro.service.manifest import (
    CampaignManifest,
    load_manifest,
    plan_campaign,
    save_manifest,
)
from repro.service.queue import (
    DEFAULT_LEASE_TTL_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    FileWorkQueue,
)
from repro.service.worker import spawn_workers


def init_campaign(
    campaign_dir: Union[str, Path],
    workloads: List[str],
    schedulers: List[str],
    seeds: int,
    scale: float = 0.1,
    num_wavefronts: int = 8,
    metrics: bool = False,
    baseline: str = "fcfs",
    config=None,
    batch_size: int = manifest_mod.DEFAULT_BATCH_SIZE,
) -> CampaignManifest:
    """Create a campaign directory: queue, checkpoint store, manifest.

    Refuses to overwrite an existing manifest — an in-flight campaign's
    identity must never be silently replaced (run it, or point init at
    a fresh directory).  Every task is enqueued before the manifest is
    written, so a manifest on disk certifies a complete queue.  Workers
    need the manifest, so a queue without one is what an interrupted
    init left behind with nothing run; init starts it over.
    """
    campaign_dir = Path(campaign_dir)
    path = manifest_mod.manifest_path(campaign_dir)
    if path.exists():
        raise FileExistsError(
            f"{path} already exists; finish that campaign with "
            f"`repro service run`, or init a new directory"
        )
    manifest = plan_campaign(
        workloads, schedulers, seeds,
        scale=scale, num_wavefronts=num_wavefronts, metrics=metrics,
        baseline=baseline, config=config, batch_size=batch_size,
    )
    queue_root = manifest_mod.queue_root(campaign_dir)
    if queue_root.exists():
        shutil.rmtree(queue_root)
    manifest_mod.checkpoints_dir(campaign_dir).mkdir(parents=True, exist_ok=True)
    manifest_mod.shards_dir(campaign_dir).mkdir(parents=True, exist_ok=True)
    manifest_mod.report_dir(campaign_dir).mkdir(parents=True, exist_ok=True)
    queue = FileWorkQueue(queue_root)
    for batch_index, spec_indices in enumerate(manifest.batches):
        queue.put(
            {"id": manifest.task_id(batch_index), "batch": batch_index,
             "spec_indices": list(spec_indices)}
        )
    save_manifest(path, manifest)
    return manifest


def campaign_status(campaign_dir: Union[str, Path]) -> Dict[str, Any]:
    """Where the campaign stands, derived purely from the directory.

    Spec counts per status, retries and the ETA (None until a spec has
    finished) come from the ``done/`` records; one ``running`` row per
    live claim comes from ``leased/`` and its lease sidecar.  A row is
    ``stale`` exactly when a reap at the default TTL would expire it.
    """
    campaign_dir = Path(campaign_dir)
    manifest = load_manifest(manifest_mod.manifest_path(campaign_dir))
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    now = time.time()
    running: List[Dict[str, Any]] = []
    for leased in sorted(queue.leased_dir.glob("*.json")):
        if queue.superseded(leased.stem):
            continue
        state = queue.lease_state(leased.stem, DEFAULT_LEASE_TTL_SECONDS, now)
        if state is None:
            continue  # vanished mid-scan
        try:
            task = json.loads(leased.read_text())
        except (OSError, ValueError):
            continue  # requeued or completed mid-scan
        lease, age, stale = state
        running.append({
            "task": leased.stem,
            "worker": lease.worker if lease is not None else None,
            "pid": lease.pid if lease is not None else None,
            "attempt": task.get("attempts"),
            "specs": len(task.get("spec_indices", ())),
            "heartbeat_age_seconds": round(age, 1),
            "stale": stale,
        })

    done = queue.done_records()
    spec_status: Counter = Counter()
    specs_done = retries = 0
    ran_seconds: List[float] = []
    for record in done.values():
        task, body = record["task"], record.get("record", {})
        shard_specs = len(task.get("spec_indices", ()))
        specs_done += shard_specs
        retries += max(0, int(task.get("attempts", 1)) - 1)
        if body.get("abandoned"):
            spec_status["abandoned"] += shard_specs
        for outcome in body.get("outcomes", ()):
            spec_status[outcome["status"]] += 1
            retries += max(0, int(outcome.get("attempts", 0)) - 1)
            if not outcome.get("from_checkpoint"):
                ran_seconds.append(float(outcome.get("elapsed_seconds", 0.0)))
    eta = None
    if ran_seconds:
        mean = sum(ran_seconds) / len(ran_seconds)
        remaining = len(manifest.spec_keys) - specs_done
        eta = round(mean * remaining / max(1, len(running)), 1)
    return {
        "specs": len(manifest.spec_keys),
        "batches": len(manifest.batches),
        "queue": queue.counts(),
        "specs_in_done_batches": specs_done,
        "spec_status": dict(spec_status),
        "retries": retries,
        "eta_seconds": eta,
        "running": running,
        "abandoned": sorted(
            task_id for task_id, record in done.items()
            if record.get("record", {}).get("abandoned")
        ),
        "drained": queue.drained(),
    }


def run_service(
    campaign_dir: Union[str, Path],
    workers: int = 2,
    lease_ttl: float = DEFAULT_LEASE_TTL_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    worker_options: Optional[Dict[str, Any]] = None,
    max_restarts: Optional[int] = None,
    merge: bool = True,
    allow_incomplete: bool = False,
    poll_seconds: float = 0.5,
) -> Dict[str, Any]:
    """Drive an initialised campaign to completion with local workers.

    The same call starts a fresh campaign and finishes one after any
    crash: the supervisor loop reaps stale leases (a dead worker's
    shard goes back to the queue once its lease is ``lease_ttl`` old)
    and keeps ``workers`` claim loops alive (a crashed worker is
    replaced, up to ``max_restarts`` extra spawns — default
    ``4 × workers``).  When the queue drains the workers exit on their
    own and the per-shard results are merged.
    """
    campaign_dir = Path(campaign_dir)
    # A directory without a campaign fails here, before anything is made.
    load_manifest(manifest_mod.manifest_path(campaign_dir))
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    options = dict(worker_options or {})
    options.setdefault("lease_ttl", lease_ttl)
    options.setdefault("max_attempts", max_attempts)
    budget = (4 * workers) if max_restarts is None else max_restarts
    pool = spawn_workers(campaign_dir, workers, **options)
    spawned = workers
    try:
        while True:
            queue.reap(lease_ttl, max_attempts=max_attempts)
            alive = [process for process in pool if process.is_alive()]
            if queue.drained():
                break
            if len(alive) < workers and spawned - workers < budget:
                replacements = spawn_workers(
                    campaign_dir, workers - len(alive),
                    name_prefix=f"worker-r{spawned}", **options,
                )
                pool.extend(replacements)
                spawned += len(replacements)
            elif not alive:
                raise RuntimeError(
                    "every worker died and the restart budget "
                    f"({budget}) is spent; `repro service run` "
                    f"{campaign_dir} again to finish it"
                )
            time.sleep(poll_seconds)
        for process in pool:
            process.join(timeout=30)
    finally:
        for process in pool:
            if process.is_alive():
                process.terminate()
    summary: Dict[str, Any] = {
        "workers": workers,
        "spawned": spawned,
        "status": campaign_status(campaign_dir),
    }
    if merge:
        summary["merge"] = merge_campaign(
            campaign_dir, allow_incomplete=allow_incomplete
        )
    return summary


def merge_campaign(
    campaign_dir: Union[str, Path],
    allow_incomplete: bool = False,
) -> Dict[str, Any]:
    """Fold per-shard outcomes into the deterministic fleet report.

    Results come from the shared checkpoint store (keyed by spec
    content, so they are identical whichever worker produced them);
    failures come from the shards' done records.  The deterministic
    rendering is byte-identical to the uninterrupted ``jobs=1`` sweep of
    the same manifest — the chaos gate diffs exactly that file.

    Raises when a spec is lost (no result, no failure record, and
    ``allow_incomplete`` is False) or claimed by two shards — the
    zero-lost/zero-duplicated guarantee, enforced.
    """
    campaign_dir = Path(campaign_dir)
    manifest = load_manifest(manifest_mod.manifest_path(campaign_dir))
    specs = manifest.build_specs()
    store = CheckpointStore(manifest_mod.checkpoints_dir(campaign_dir))
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    done = queue.done_records()

    placement: Dict[int, str] = {}
    for batch_index, spec_indices in enumerate(manifest.batches):
        for index in spec_indices:
            if index in placement:
                raise RuntimeError(
                    f"spec {index} placed in both {placement[index]} and "
                    f"{manifest.task_id(batch_index)} — duplicated work"
                )
            placement[index] = manifest.task_id(batch_index)
    if sorted(placement) != list(range(len(specs))):
        missing = sorted(set(range(len(specs))) - set(placement))
        raise RuntimeError(f"manifest shards lost specs {missing}")

    #: spec index -> recorded outcome dict from its shard's done record.
    recorded: Dict[int, Dict[str, Any]] = {}
    abandoned_specs: Dict[int, str] = {}
    for task_id, record in sorted(done.items()):
        body = record.get("record", {})
        if body.get("abandoned"):
            for index in record["task"].get("spec_indices", ()):
                abandoned_specs[int(index)] = body.get("reason", "abandoned")
            continue
        for outcome_data in body.get("outcomes", ()):
            recorded[int(outcome_data["spec_index"])] = outcome_data

    outcomes: List[RunOutcome] = []
    lost: List[int] = []
    for index, spec in enumerate(specs):
        result = store.load(spec)
        if result is not None:
            data = recorded.get(index)
            outcomes.append(
                RunOutcome(
                    index=index,
                    spec_summary=describe_spec(spec),
                    status=STATUS_OK,
                    result=result,
                    attempts=int(data["attempts"]) if data else 0,
                    from_checkpoint=True,
                )
            )
            continue
        data = recorded.get(index)
        if data is not None and data["status"] != STATUS_OK:
            outcome = outcome_from_dict(data)
            outcome.index = index
            outcomes.append(outcome)
            continue
        reason = abandoned_specs.get(index)
        if reason is not None:
            outcomes.append(
                RunOutcome(
                    index=index,
                    spec_summary=describe_spec(spec),
                    status=STATUS_FAILED,
                    error=reason,
                    error_type="TaskAbandoned",
                )
            )
            continue
        if not allow_incomplete:
            lost.append(index)
            continue
        outcomes.append(
            RunOutcome(
                index=index,
                spec_summary=describe_spec(spec),
                status=STATUS_FAILED,
                error="spec not yet executed (campaign incomplete)",
                error_type="Incomplete",
            )
        )
    if lost:
        # A drained queue has no task left that could run them: the
        # queue lost tasks (damaged on disk, or an init interrupted by
        # code that wrote the manifest first), and only a fresh init
        # can bring them back.
        remedy = (
            "re-init the campaign in a fresh directory"
            if queue.drained()
            else "finish it with `repro service run`"
        )
        raise RuntimeError(
            f"campaign incomplete: specs {lost} have no result and no "
            f"failure record ({remedy}, or pass --allow-incomplete to "
            f"report them as failures)"
        )

    report = fleet_report(
        specs, outcomes,
        baseline_scheduler=manifest.campaign.get("baseline", "fcfs"),
    )

    # Fold the attempt audit back into the manifest (ISSUE: the manifest
    # records spec identity, attempt history and shard placement).
    manifest.attempts = {
        task_id: {
            "claims": record["task"].get("attempts", 0),
            "abandoned": bool(record.get("record", {}).get("abandoned")),
            "history": record["task"].get("history", []),
        }
        for task_id, record in sorted(done.items())
    }
    save_manifest(manifest_mod.manifest_path(campaign_dir), manifest)

    out_dir = manifest_mod.report_dir(campaign_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    full_path = out_dir / "fleet_report.json"
    deterministic_path = out_dir / "fleet_report.deterministic.json"
    markdown_path = out_dir / "fleet_report.md"
    full_path.write_text(render_fleet_report(report) + "\n")
    deterministic_path.write_text(
        render_fleet_report(deterministic_view(report)) + "\n"
    )
    markdown_path.write_text(fleet_markdown(report))
    paths = {
        "full": str(full_path),
        "deterministic": str(deterministic_path),
        "markdown": str(markdown_path),
    }

    # The figure pipeline and the HTML campaign report ride every merge:
    # both are pure functions of the deterministic report + manifest, so
    # they inherit the byte-identity guarantee for free.
    from repro.obs.report import write_campaign_report

    label = campaign_dir.name or "campaign"
    figure_manifest = write_campaign_report(
        [(label, report)], out_dir, manifests={label: manifest.as_dict()}
    )
    paths["figures"] = str(out_dir / "figures")
    paths["html"] = str(out_dir / "campaign_report.html")

    return {
        "report": report,
        "paths": paths,
        "figures": figure_manifest,
    }
