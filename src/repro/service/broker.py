"""Broker-side operations on a campaign directory.

The broker is a *role*, not a daemon: every operation here reads the
campaign directory, mutates it through the same atomic renames the
workers use, and exits.  Kill it at any point and run it again — the
manifest plus the queue directories ARE the campaign state.

* :func:`init_campaign` — shard the sweep into a manifest + queue tasks;
* :func:`resume_campaign` — after any crash/restart, re-queue stale or
  missing shards so surviving (or fresh) workers can finish;
* :func:`run_service` — convenience supervisor: init-or-resume, spawn
  local workers, reap leases while they run, respawn dead workers, and
  merge when the queue drains;
* :func:`merge_campaign` — fold per-shard results into the existing
  deterministic fleet report, byte-identical to a serial run whatever
  the worker count, placement, or crash history;
* :func:`campaign_status` — one dict describing where a campaign is.
"""

from __future__ import annotations

import time
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
    """Create a campaign directory: manifest, queue, checkpoint store.

    Refuses to overwrite an existing manifest — an in-flight campaign's
    identity must never be silently replaced (resume it, or point init
    at a fresh directory).
    """
    campaign_dir = Path(campaign_dir)
    path = manifest_mod.manifest_path(campaign_dir)
    if path.exists():
        raise FileExistsError(
            f"{path} already exists; use resume_campaign (or a new "
            f"directory) instead of re-initialising a live campaign"
        )
    manifest = plan_campaign(
        workloads, schedulers, seeds,
        scale=scale, num_wavefronts=num_wavefronts, metrics=metrics,
        baseline=baseline, config=config, batch_size=batch_size,
    )
    campaign_dir.mkdir(parents=True, exist_ok=True)
    manifest_mod.checkpoints_dir(campaign_dir).mkdir(parents=True, exist_ok=True)
    manifest_mod.shards_dir(campaign_dir).mkdir(parents=True, exist_ok=True)
    manifest_mod.report_dir(campaign_dir).mkdir(parents=True, exist_ok=True)
    # Manifest first: a crash between manifest and enqueue is exactly
    # what resume_campaign repairs (it re-puts missing tasks).
    save_manifest(path, manifest)
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    for batch_index, spec_indices in enumerate(manifest.batches):
        queue.put(
            {"id": manifest.task_id(batch_index), "batch": batch_index,
             "spec_indices": list(spec_indices)}
        )
    return manifest


def resume_campaign(
    campaign_dir: Union[str, Path],
    lease_ttl: float = DEFAULT_LEASE_TTL_SECONDS,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    force: bool = False,
) -> Dict[str, Any]:
    """Repair a campaign after any combination of crashes.

    Re-queues every shard whose lease is stale (``force=True`` treats
    *all* leases as stale — correct after a full cluster restart, when
    no claimed shard can possibly still have a live owner) and re-puts
    any shard the manifest knows about that the queue lost (broker
    killed mid-enqueue).  Completed shards are untouched; their specs
    stay served from the checkpoint store.
    """
    campaign_dir = Path(campaign_dir)
    manifest = load_manifest(manifest_mod.manifest_path(campaign_dir))
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    requeued, abandoned = queue.reap(
        0.0 if force else lease_ttl, max_attempts=max_attempts
    )
    restored: List[str] = []
    known = queue.pending_tasks()
    done = queue.done_records()
    for batch_index, spec_indices in enumerate(manifest.batches):
        task_id = manifest.task_id(batch_index)
        if (
            task_id in known
            or task_id in done
            or (queue.leased_dir / f"{task_id}.json").exists()
        ):
            continue
        queue.put(
            {"id": task_id, "batch": batch_index,
             "spec_indices": list(spec_indices)}
        )
        restored.append(task_id)
    return {
        "requeued": requeued,
        "abandoned": abandoned,
        "restored": restored,
        "queue": queue.counts(),
    }


def campaign_status(campaign_dir: Union[str, Path]) -> Dict[str, Any]:
    """Where the campaign stands, derived purely from the directory."""
    campaign_dir = Path(campaign_dir)
    manifest = load_manifest(manifest_mod.manifest_path(campaign_dir))
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    counts = queue.counts()
    done = queue.done_records()
    specs_done = sum(
        len(record["task"].get("spec_indices", ()))
        for record in done.values()
    )
    abandoned = sorted(
        task_id for task_id, record in done.items()
        if record.get("record", {}).get("abandoned")
    )
    return {
        "specs": len(manifest.spec_keys),
        "batches": len(manifest.batches),
        "queue": counts,
        "specs_in_done_batches": specs_done,
        "abandoned": abandoned,
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

    The supervisor loop reaps stale leases and keeps ``workers`` claim
    loops alive (a crashed worker is replaced, up to ``max_restarts``
    extra spawns — default ``4 × workers``).  When the queue drains the
    workers exit on their own and the per-shard results are merged.
    """
    campaign_dir = Path(campaign_dir)
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
                    f"({budget}) is spent; campaign left resumable in "
                    f"{campaign_dir}"
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
        raise RuntimeError(
            f"campaign incomplete: specs {lost} have no result and no "
            f"failure record (run `repro service resume`, or pass "
            f"allow_incomplete=True to report them as failures)"
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
