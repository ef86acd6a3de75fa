"""The sweep-service worker: claim → heartbeat → execute → complete.

A worker is an ordinary process (spawn as many as you like, on as many
hosts as share the campaign directory).  Its loop:

1. cooperatively :meth:`~repro.service.queue.FileWorkQueue.reap` stale
   leases (so a fleet of workers needs no separate reaper daemon);
2. claim one shard task by atomic rename;
3. start a heartbeat thread that refreshes the lease sidecar;
4. execute the shard's specs through
   :func:`~repro.experiments.runner.run_many_resilient` with the
   campaign's shared :class:`CheckpointStore` and in-run checkpointing
   — completed specs are served from the store, and a spec a previous
   (killed) owner left half-done *resumes mid-simulation*;
5. write the shard's done record and release the lease.

Per-shard :class:`~repro.obs.fleet.FleetTelemetry` JSONL lands in
``shards/`` (one file per claim, tagged with shard/worker/attempt) as
an audit trail; progress comes from the queue (``service status``).

Execution inside a worker is serial and in-process: the *service* layer
owns process isolation (a crash loses one worker's lease, which the
reaper re-queues), and in-process execution means a ``kill -9`` still
leaves the periodic in-run checkpoint dumps behind on disk.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.experiments.runner import run_many_resilient
from repro.obs.fleet import FleetTelemetry
from repro.resilience.outcomes import outcome_to_dict
from repro.service import manifest as manifest_mod
from repro.service.manifest import load_manifest
from repro.service.queue import (
    DEFAULT_LEASE_TTL_SECONDS,
    DEFAULT_MAX_ATTEMPTS,
    FileWorkQueue,
)

#: Default cadence of lease refreshes; the TTL should be a few
#: multiples of this so one slow beat never forfeits a live worker.
DEFAULT_HEARTBEAT_SECONDS = 2.0

#: Idle workers poll the queue this often while shards are still leased
#: elsewhere (their owner may die and hand the work back).
DEFAULT_POLL_SECONDS = 0.5

#: Default in-run checkpoint cadence (simulator events) for service
#: runs: frequent enough that a killed worker loses little progress.
DEFAULT_INRUN_CHECKPOINT_EVERY = 2000

#: Per-spec retry budget inside one shard execution.
DEFAULT_SPEC_RETRIES = 1


def default_worker_id() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


class _LeaseBeat:
    """Background thread refreshing one task's lease until stopped."""

    def __init__(
        self, queue: FileWorkQueue, task_id: str, worker: str, interval: float
    ) -> None:
        self._queue = queue
        self._task_id = task_id
        self._worker = worker
        self._interval = interval
        self._stop = threading.Event()
        self.lost = False
        self._thread = threading.Thread(target=self._run, daemon=True)

    def _run(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                if not self._queue.heartbeat(self._task_id, self._worker):
                    # Reaped from under us (e.g. a long GC pause blew the
                    # TTL).  Keep computing — execution is idempotent and
                    # the checkpoint store dedupes — but remember it.
                    self.lost = True
                    return
            except OSError:
                return  # heartbeat degrades, the work continues

    def __enter__(self) -> "_LeaseBeat":
        self._thread.start()
        return self

    def __exit__(self, *_exc) -> None:
        self._stop.set()
        self._thread.join(timeout=5)


def run_worker(
    campaign_dir: Union[str, Path],
    worker_id: Optional[str] = None,
    lease_ttl: float = DEFAULT_LEASE_TTL_SECONDS,
    heartbeat_seconds: float = DEFAULT_HEARTBEAT_SECONDS,
    poll_seconds: float = DEFAULT_POLL_SECONDS,
    retries: int = DEFAULT_SPEC_RETRIES,
    inrun_checkpoint_every: Optional[int] = DEFAULT_INRUN_CHECKPOINT_EVERY,
    max_attempts: int = DEFAULT_MAX_ATTEMPTS,
    max_tasks: Optional[int] = None,
    progress: bool = False,
) -> Dict[str, Any]:
    """Drain the campaign queue from this process; returns a summary.

    Exits when the queue is fully drained (every shard done) or after
    ``max_tasks`` claims.  Safe to run many of these concurrently — the
    queue's atomic renames arbitrate every claim.
    """
    campaign_dir = Path(campaign_dir)
    worker = worker_id or default_worker_id()
    manifest = load_manifest(manifest_mod.manifest_path(campaign_dir))
    specs = manifest.build_specs()
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    store_dir = str(manifest_mod.checkpoints_dir(campaign_dir))
    shards = manifest_mod.shards_dir(campaign_dir)
    shards.mkdir(parents=True, exist_ok=True)

    executed: List[str] = []
    while max_tasks is None or len(executed) < max_tasks:
        queue.reap(lease_ttl, max_attempts=max_attempts)
        task = queue.claim(worker)
        if task is None:
            if queue.drained():
                break
            time.sleep(poll_seconds)
            continue
        _execute_task(
            queue, task, worker, specs, store_dir, shards,
            heartbeat_seconds=heartbeat_seconds,
            retries=retries,
            inrun_checkpoint_every=inrun_checkpoint_every,
            progress=progress,
        )
        executed.append(task["id"])
    return {
        "worker": worker,
        "tasks_executed": executed,
        "queue": queue.counts(),
    }


def _execute_task(
    queue: FileWorkQueue,
    task: Dict[str, Any],
    worker: str,
    specs: List[Dict[str, Any]],
    store_dir: str,
    shards: Path,
    heartbeat_seconds: float,
    retries: int,
    inrun_checkpoint_every: Optional[int],
    progress: bool,
) -> None:
    """Run one claimed shard and record its terminal state."""
    indices = [int(index) for index in task["spec_indices"]]
    batch_specs = [specs[index] for index in indices]
    log_path = str(
        shards / f"{task['id']}.attempt{task['attempts']:02d}.{worker}.jsonl"
    )
    telemetry = FleetTelemetry(
        log_path=log_path,
        progress=progress,
        context={"shard": task["id"], "worker": worker,
                 "claim_attempt": task["attempts"]},
    )
    with telemetry, _LeaseBeat(queue, task["id"], worker, heartbeat_seconds) as beat:
        outcomes = run_many_resilient(
            batch_specs,
            retries=retries,
            checkpoint=store_dir,
            telemetry=telemetry,
            inrun_checkpoint_every=inrun_checkpoint_every,
        )
    record = {
        "worker": worker,
        "claim_attempt": task["attempts"],
        "lease_lost": beat.lost,
        "fleet_log": log_path,
        "outcomes": [
            dict(outcome_to_dict(outcome), spec_index=index)
            for index, outcome in zip(indices, outcomes)
        ],
    }
    queue.complete(task, record)


def _worker_main(campaign_dir: str, worker_id: str, options: Dict[str, Any]) -> None:
    """Top-level trampoline for ``multiprocessing.Process``."""
    run_worker(campaign_dir, worker_id=worker_id, **options)


def spawn_workers(
    campaign_dir: Union[str, Path],
    count: int,
    name_prefix: str = "worker",
    **options: Any,
) -> List:
    """Start ``count`` worker processes on this host; returns them.

    Workers are daemonic: killing the parent never strands them, and
    killing *them* (the chaos harness does, with SIGKILL) just expires
    leases.  Callers join or kill the returned processes.
    """
    import multiprocessing as mp

    if count <= 0:
        raise ValueError(f"count must be positive, got {count}")
    ctx = mp.get_context()
    processes = []
    for index in range(count):
        process = ctx.Process(
            target=_worker_main,
            args=(str(campaign_dir), f"{name_prefix}-{index}", dict(options)),
            daemon=True,
        )
        process.start()
        processes.append(process)
    return processes
