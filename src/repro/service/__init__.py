"""Durable work-queue sweep service: crash-proof broker/worker campaigns.

The per-process resilience tier (``run_many_resilient``, in-run
checkpoint/resume, the content-hash ``CheckpointStore``) makes a single
sweep preemptible; this package lifts it into a multi-process *service*
that survives ``kill -9``'d workers, a dead broker, and full cluster
restarts — without requiring any daemon:

* :mod:`repro.service.queue` — a filesystem work queue.  Tasks are JSON
  files; a worker claims one with an atomic ``rename()`` into a
  ``leased/`` directory, so exactly one claimant ever wins, on a local
  disk or a shared filesystem alike.
* :mod:`repro.service.lease` — lease/heartbeat sidecar files.  A live
  worker refreshes its lease; the cooperative reaper expires stale ones
  and re-queues their tasks to surviving workers.
* :mod:`repro.service.manifest` — the versioned campaign manifest: the
  sweep definition, one content-hash ``spec_key`` per spec, and the
  shard placement.  Everything needed to resume lives in the campaign
  directory; no process holds authoritative state.
* :mod:`repro.service.broker` — shards a campaign into spec batches,
  enqueues them, supervises local workers, merges, and reports status
  (done counts, live claims with heartbeat ages, retries, ETA).
* :mod:`repro.service.worker` — the claim → heartbeat → execute loop on
  top of :func:`~repro.experiments.runner.run_many_resilient`, with
  per-claim fleet-telemetry JSONL and shared in-run checkpoints so a
  re-leased spec resumes mid-simulation.

The chaos gate that SIGKILLs workers mid-spec and demands a
byte-identical merged report lives with the tests, in
``tests/chaos.py``.
"""

from repro.service.broker import (
    campaign_status,
    init_campaign,
    merge_campaign,
    run_service,
)
from repro.service.lease import Lease, read_lease, write_lease
from repro.service.manifest import (
    MANIFEST_VERSION,
    CampaignManifest,
    load_manifest,
    save_manifest,
)
from repro.service.queue import FileWorkQueue
from repro.service.worker import run_worker, spawn_workers

__all__ = [
    "CampaignManifest",
    "FileWorkQueue",
    "Lease",
    "MANIFEST_VERSION",
    "campaign_status",
    "init_campaign",
    "load_manifest",
    "merge_campaign",
    "read_lease",
    "run_service",
    "run_worker",
    "save_manifest",
    "spawn_workers",
    "write_lease",
]
