"""Lease and heartbeat sidecar files for the filesystem work queue.

A claimed task is *owned* only as long as its lease file stays fresh.
The owner rewrites the lease (atomically — unique temp name + rename)
every ``heartbeat_seconds``; anyone else — the broker loop, an idle
worker — may reap a lease whose last beat is older than the TTL and
return the task to the pending queue.  Ownership is therefore a
property of the filesystem, not of any process: a ``kill -9``'d worker
simply stops beating, and its work is re-queued to whoever is left.

Wall-clock timestamps live only in these sidecars (and in telemetry);
they never reach a simulation, so chaos in the delivery layer cannot
perturb simulated results.
"""

from __future__ import annotations

import json
import os
import uuid
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional, Union


@dataclass
class Lease:
    """Who owns a claimed task, and when they last proved to be alive."""

    task_id: str
    worker: str
    pid: int
    claimed_t: float
    beat_t: float
    attempt: int = 1


def atomic_write_json(path: Union[str, Path], payload: dict) -> None:
    """Write ``payload`` as JSON via a uniquely-named temp + rename.

    The temp name carries pid and a uuid so concurrent writers of the
    *same* target can never tear each other's write-then-rename; the
    rename is atomic on POSIX, so readers see either the old file or the
    new one, never a torn half-write.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{uuid.uuid4().hex}.tmp")
    data = json.dumps(payload, sort_keys=True)
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)


def write_lease(path: Union[str, Path], lease: Lease) -> None:
    atomic_write_json(path, asdict(lease))


def read_lease(path: Union[str, Path]) -> Optional[Lease]:
    """The lease at ``path``, or None when missing/unreadable.

    A torn or vanished lease reads as *absent* — the reaper then ages
    the claim from the leased file's mtime, which errs toward
    re-queueing (safe: execution is idempotent via the checkpoint
    store), never toward losing the task.
    """
    try:
        return Lease(**json.loads(Path(path).read_text()))
    except (OSError, ValueError, TypeError):
        return None
