"""A durable, daemon-free work queue made of directories and renames.

Layout under the queue root (all four are plain directories)::

    pending/<task_id>.json   tasks nobody owns yet
    leased/<task_id>.json    tasks claimed by a worker
    leases/<task_id>.json    heartbeat sidecar for each leased task
    done/<task_id>.json      terminal records (completed or abandoned)

The only coordination primitive is ``os.rename`` within one filesystem:
claiming a task renames its file from ``pending/`` to ``leased/``, and
exactly one of any number of concurrent claimants wins (the losers get
``FileNotFoundError`` and move on).  That works on a single box and on
a shared filesystem alike — no broker daemon, no locks, no sockets.

Crash-recovery rules are scan-based and idempotent, so *anyone* may run
:meth:`FileWorkQueue.reap` at any time (workers do, before claiming):

* leased task whose lease heartbeat is older than the TTL → the owner
  is presumed dead; the task goes back to ``pending/`` with its attempt
  history extended (elastic retry on another worker);
* task present in both ``done/`` and ``leased/`` → the owner died after
  recording completion; the lease is garbage-collected;
* task present in both ``pending/`` and ``leased/`` → a requeue was
  interrupted between rename and cleanup; the leased copy is stale and
  dropped;
* task claimed more than ``max_attempts`` times → retired to ``done/``
  as *abandoned* instead of looping through the queue forever (a spec
  that hard-kills every worker that touches it must not wedge the
  campaign).

Task files are JSON dicts with at least ``{"id": ...}``; the queue adds
``attempts`` (times claimed) and ``history`` (one entry per lifecycle
transition, wall-clock timestamps included — delivery bookkeeping never
touches simulated state).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.service.lease import Lease, atomic_write_json, read_lease, write_lease

#: A worker that misses heartbeats for this long forfeits its lease.
DEFAULT_LEASE_TTL_SECONDS = 30.0

#: Claim budget per task before the reaper retires it as abandoned.
DEFAULT_MAX_ATTEMPTS = 5


class FileWorkQueue:
    """The four-directory queue; every method is safe to call from any
    process at any time (crashes between steps are covered by reap)."""

    def __init__(self, root: Union[str, Path]) -> None:
        self.root = Path(root)
        self.pending_dir = self.root / "pending"
        self.leased_dir = self.root / "leased"
        self.leases_dir = self.root / "leases"
        self.done_dir = self.root / "done"
        for directory in (
            self.pending_dir, self.leased_dir, self.leases_dir, self.done_dir
        ):
            directory.mkdir(parents=True, exist_ok=True)

    # -- enqueue / claim -------------------------------------------------

    def put(self, task: Dict[str, Any]) -> None:
        """Enqueue one task (idempotent: re-putting an id overwrites)."""
        task_id = task["id"]
        task.setdefault("attempts", 0)
        task.setdefault("history", [])
        atomic_write_json(self.pending_dir / f"{task_id}.json", task)

    def claim(self, worker: str) -> Optional[Dict[str, Any]]:
        """Claim one pending task, or None when nothing is claimable.

        Candidates are tried in sorted order, rotated by a hash of the
        worker name so a pack of workers starting together doesn't
        stampede the same file.  The atomic rename is the arbiter:
        losing a race is silent and the next candidate is tried.
        """
        names = sorted(path.name for path in self.pending_dir.glob("*.json"))
        if not names:
            return None
        start = hash(worker) % len(names)
        for name in names[start:] + names[:start]:
            pending = self.pending_dir / name
            leased = self.leased_dir / name
            try:
                os.rename(pending, leased)
            except FileNotFoundError:
                continue  # someone else won this one
            task = json.loads(leased.read_text())
            task["attempts"] = int(task.get("attempts", 0)) + 1
            now = time.time()
            task.setdefault("history", []).append(
                {"event": "claimed", "worker": worker, "t": now,
                 "attempt": task["attempts"]}
            )
            atomic_write_json(leased, task)
            write_lease(
                self.leases_dir / name,
                Lease(
                    task_id=task["id"], worker=worker, pid=os.getpid(),
                    claimed_t=now, beat_t=now, attempt=task["attempts"],
                ),
            )
            return task
        return None

    def heartbeat(self, task_id: str, worker: str) -> bool:
        """Refresh the lease; False means the lease is no longer ours
        (reaped from under us — the worker should stop working on it)."""
        lease = read_lease(self.leases_dir / f"{task_id}.json")
        if lease is None or lease.worker != worker:
            return False
        lease.beat_t = time.time()
        write_lease(self.leases_dir / f"{task_id}.json", lease)
        return True

    # -- terminal transitions -------------------------------------------

    def complete(self, task: Dict[str, Any], record: Dict[str, Any]) -> None:
        """Record a finished task and release its lease.

        The done record is written *before* the lease is dropped, so a
        crash mid-complete re-runs nothing: the reaper sees the done
        file and garbage-collects the leftover lease.
        """
        task_id = task["id"]
        atomic_write_json(
            self.done_dir / f"{task_id}.json",
            {"task": task, "record": record, "t": time.time()},
        )
        try:
            os.unlink(self.leased_dir / f"{task_id}.json")
        except FileNotFoundError:
            pass
        self._drop_lease(task_id)

    def requeue(self, task_id: str, reason: str,
                worker: Optional[str] = None) -> None:
        """Return a leased task to pending with its history extended."""
        leased = self.leased_dir / f"{task_id}.json"
        try:
            task = json.loads(leased.read_text())
        except (OSError, ValueError):
            return  # already moved by a concurrent reaper
        task.setdefault("history", []).append(
            {"event": "requeued", "reason": reason, "worker": worker,
             "t": time.time()}
        )
        atomic_write_json(self.pending_dir / f"{task_id}.json", task)
        self._drop_lease(task_id)
        # Remove the leased copy last: if we die first, the
        # pending+leased recovery rule discards it on the next reap.
        try:
            os.unlink(leased)
        except FileNotFoundError:
            pass

    def _abandon(self, task: Dict[str, Any], reason: str) -> None:
        atomic_write_json(
            self.done_dir / f"{task['id']}.json",
            {"task": task, "record": {"abandoned": True, "reason": reason},
             "t": time.time()},
        )
        try:
            os.unlink(self.leased_dir / f"{task['id']}.json")
        except FileNotFoundError:
            pass
        self._drop_lease(task["id"])

    def _drop_lease(self, task_id: str) -> None:
        try:
            os.unlink(self.leases_dir / f"{task_id}.json")
        except FileNotFoundError:
            pass

    # -- recovery --------------------------------------------------------

    def reap(
        self,
        ttl_seconds: float = DEFAULT_LEASE_TTL_SECONDS,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        now: Optional[float] = None,
    ) -> Tuple[List[str], List[str]]:
        """Expire stale leases; returns (requeued_ids, abandoned_ids).

        Cooperative and idempotent: run it from anywhere, as often as
        you like.  Two reapers racing on the same task resolve through
        the same atomic renames as everything else.
        """
        now = time.time() if now is None else now
        requeued: List[str] = []
        abandoned: List[str] = []
        for leased in sorted(self.leased_dir.glob("*.json")):
            task_id = leased.stem
            if self.superseded(task_id):
                try:
                    os.unlink(leased)
                except FileNotFoundError:
                    pass
                self._drop_lease(task_id)
                continue
            state = self.lease_state(task_id, ttl_seconds, now)
            if state is None:
                continue  # vanished mid-scan
            lease, _age, stale = state
            if not stale:
                continue
            try:
                task = json.loads(leased.read_text())
            except (OSError, ValueError):
                continue
            if int(task.get("attempts", 0)) >= max_attempts:
                self._abandon(
                    task,
                    f"lease expired after {task.get('attempts')} claim(s); "
                    f"max_attempts={max_attempts} exhausted",
                )
                abandoned.append(task_id)
            else:
                self.requeue(
                    task_id, "lease expired",
                    worker=lease.worker if lease is not None else None,
                )
                requeued.append(task_id)
        return requeued, abandoned

    # -- inspection ------------------------------------------------------

    def superseded(self, task_id: str) -> bool:
        """True when a leased task also has a done or pending copy.

        Either its owner died after recording completion, or a requeue
        was interrupted before its cleanup; the other copy wins and the
        leased one is junk that :meth:`reap` drops.
        """
        name = f"{task_id}.json"
        return (self.done_dir / name).exists() or (
            self.pending_dir / name
        ).exists()

    def lease_state(
        self, task_id: str, ttl_seconds: float, now: float
    ) -> Optional[Tuple[Optional[Lease], float, bool]]:
        """``(lease, age, stale)`` of a leased task; None if it vanished.

        The age counts from the lease's last heartbeat.  Without a
        sidecar (a claim interrupted before it landed, or a torn write)
        ``lease`` is None and the age counts from the leased file's
        mtime, so a *live* claimant still gets its grace period.  Stale
        means older than ``ttl_seconds``: the one rule :meth:`reap` and
        ``campaign_status`` share.
        """
        lease = read_lease(self.leases_dir / f"{task_id}.json")
        if lease is not None:
            beat = lease.beat_t
        else:
            try:
                beat = (self.leased_dir / f"{task_id}.json").stat().st_mtime
            except OSError:
                return None
        age = now - beat
        return lease, age, age > ttl_seconds

    def counts(self) -> Dict[str, int]:
        return {
            "pending": len(list(self.pending_dir.glob("*.json"))),
            "leased": len(list(self.leased_dir.glob("*.json"))),
            "done": len(list(self.done_dir.glob("*.json"))),
        }

    def drained(self) -> bool:
        """True when no task is pending or leased (all work is done)."""
        counts = self.counts()
        return counts["pending"] == 0 and counts["leased"] == 0

    def done_records(self) -> Dict[str, Dict[str, Any]]:
        """Every terminal record, keyed by task id."""
        records: Dict[str, Dict[str, Any]] = {}
        for path in sorted(self.done_dir.glob("*.json")):
            try:
                records[path.stem] = json.loads(path.read_text())
            except (OSError, ValueError):
                continue
        return records
