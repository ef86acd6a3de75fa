"""Fleet telemetry: live progress for multi-run sweep execution.

A single simulation has deep observability (tracing, metrics,
profiling); the unit of work in practice is the *fleet* — dozens of
scheduler×workload specs fanned across worker processes by
:func:`~repro.experiments.runner.run_many_resilient`.  This module
watches that layer: which spec is running where, which one retried or
timed out, how fast each worker is moving — without touching the in-sim
hot path (events are per-spec and per-heartbeat, never per-cycle).

:class:`FleetTelemetry` is a thread-safe collector the sweep executors
feed structured events into.  It can simultaneously

* keep every event in memory (:meth:`events`),
* append each event as one JSON line to a *fleet log* (``log_path``),
* render a line-oriented progress view to stderr (``progress=True``).

Event stream (``"event"`` key of every record)::

    sweep_started    total specs, worker count, checkpointed count
    spec_started     index, spec, attempt
    heartbeat        index, attempt, worker pid, elapsed (process path)
    spec_retry       index, attempt that failed, why, backoff
    spec_timeout     index, attempt, wall-clock budget
    spec_finished    index, final status, attempts, events/sec
    sweep_finished   per-status totals, retried count

Every record also carries ``"t"``, a wall-clock UNIX timestamp.  Wall
clock makes individual log lines non-reproducible by design — the
*deterministic* view of a sweep is the aggregated report built by
:mod:`repro.obs.aggregate`, which excludes wall-clock fields.
"""

from __future__ import annotations

import json
import sys
import threading
import time
from typing import Any, Dict, List, Optional, TextIO

#: Default cadence of per-worker heartbeats (wall-clock seconds): the
#: sweep's parent emits one per live worker process this often.  A dead
#: worker stops them (the executor sees EOF); a stuck one keeps them
#: coming until its deadline terminates it.
DEFAULT_HEARTBEAT_SECONDS = 5.0

#: Ordered RunOutcome statuses for the sweep_finished summary.
_SUMMARY_STATUSES = ("ok", "failed", "timeout")


class FleetTelemetry:
    """Thread-safe collector for sweep-level progress events.

    Executors call the typed emitters (:meth:`spec_started`,
    :meth:`spec_finished`, ...); each call appends one structured record
    and, when configured, one JSONL line and one progress line.  The
    collector never raises into the sweep: a full disk or closed stream
    degrades telemetry, not the run.
    """

    def __init__(
        self,
        log_path: Optional[str] = None,
        progress: bool = False,
        stream: Optional[TextIO] = None,
        heartbeat_seconds: Optional[float] = DEFAULT_HEARTBEAT_SECONDS,
        context: Optional[Dict[str, Any]] = None,
    ) -> None:
        if heartbeat_seconds is not None and heartbeat_seconds <= 0:
            raise ValueError(
                f"heartbeat_seconds must be positive or None, "
                f"got {heartbeat_seconds}"
            )
        self.heartbeat_seconds = heartbeat_seconds
        #: Static fields stamped onto every record — the sweep service
        #: uses this to tag each per-shard log with its shard id, worker
        #: and claim attempt, so merged logs stay attributable.
        self.context = dict(context or {})
        self.progress = progress
        self._stream = stream if stream is not None else sys.stderr
        self._lock = threading.Lock()
        self._events: List[Dict[str, Any]] = []
        self._log: Optional[TextIO] = None
        self._total = 0
        self._done = 0
        self._counts: Dict[str, int] = {status: 0 for status in _SUMMARY_STATUSES}
        self._retries = 0
        if log_path:
            self._log = open(log_path, "w", encoding="utf-8")

    # -- core emission --------------------------------------------------

    def emit(self, event: str, **fields: Any) -> Dict[str, Any]:
        """Record one structured event (adds ``context`` and wall ``t``)."""
        record: Dict[str, Any] = {
            "event": event, **self.context, **fields, "t": time.time(),
        }
        with self._lock:
            self._events.append(record)
            if self._log is not None:
                try:
                    self._log.write(json.dumps(record, sort_keys=True) + "\n")
                    self._log.flush()
                except (OSError, ValueError):
                    self._log = None  # telemetry degrades, the sweep survives
        return record

    def _say(self, line: str) -> None:
        if not self.progress:
            return
        try:
            print(line, file=self._stream, flush=True)
        except (OSError, ValueError):
            self.progress = False

    # -- typed emitters (called by the sweep executors) -----------------

    def sweep_started(
        self, total: int, jobs: int, checkpointed: int = 0
    ) -> None:
        with self._lock:
            self._total = total
            self._done = checkpointed
        self.emit(
            "sweep_started", total=total, jobs=jobs, checkpointed=checkpointed
        )
        self._say(
            f"fleet: {total} spec(s), {jobs} worker(s)"
            + (f", {checkpointed} from checkpoint" if checkpointed else "")
        )

    def spec_started(self, index: int, spec: str, attempt: int) -> None:
        self.emit("spec_started", index=index, spec=spec, attempt=attempt)
        retry = f" (attempt {attempt})" if attempt > 1 else ""
        self._say(f"fleet: [{index}] start{retry}: {spec}")

    def heartbeat(
        self, index: int, attempt: int, payload: Dict[str, Any]
    ) -> None:
        """A live worker process, reported by the sweep's parent."""
        self.emit("heartbeat", index=index, attempt=attempt, **payload)
        elapsed = payload.get("elapsed_seconds")
        pid = payload.get("pid")
        self._say(
            f"fleet: [{index}] running (pid {pid}, {elapsed:.1f}s)"
            if elapsed is not None
            else f"fleet: [{index}] running (pid {pid})"
        )

    def spec_retry(
        self,
        index: int,
        spec: str,
        attempt: int,
        status: str,
        error_type: Optional[str],
        error: Optional[str],
        backoff_seconds: float,
    ) -> None:
        """Attempt ``attempt`` failed but the retry budget covers it."""
        with self._lock:
            self._retries += 1
        self.emit(
            "spec_retry",
            index=index,
            spec=spec,
            attempt=attempt,
            status=status,
            error_type=error_type,
            error=error,
            backoff_seconds=backoff_seconds,
        )
        self._say(
            f"fleet: [{index}] {status} on attempt {attempt} "
            f"({error_type}); retrying in {backoff_seconds:.2f}s"
        )

    def spec_timeout(
        self, index: int, spec: str, attempt: int, timeout_seconds: float
    ) -> None:
        self.emit(
            "spec_timeout",
            index=index,
            spec=spec,
            attempt=attempt,
            timeout_seconds=timeout_seconds,
        )
        self._say(
            f"fleet: [{index}] attempt {attempt} exceeded "
            f"{timeout_seconds:g}s budget"
        )

    def spec_finished(self, outcome) -> None:
        """A spec reached its final :class:`RunOutcome` (any status)."""
        with self._lock:
            self._done += 1
            self._counts[outcome.status] = self._counts.get(outcome.status, 0) + 1
            done, total = self._done, self._total
        fields: Dict[str, Any] = {
            "index": outcome.index,
            "spec": outcome.spec_summary,
            "status": outcome.status,
            "attempts": outcome.attempts,
            "elapsed_seconds": outcome.elapsed_seconds,
            "from_checkpoint": outcome.from_checkpoint,
        }
        label = outcome.status
        if outcome.ok and outcome.result is not None:
            fields["total_cycles"] = outcome.result.total_cycles
            engine = outcome.result.detail.get("engine")
            if isinstance(engine, dict):
                fields["events_per_sec"] = round(
                    engine.get("events_per_sec", 0.0)
                )
            if outcome.from_checkpoint:
                label = "ok (checkpoint)"
        elif not outcome.ok:
            fields["error_type"] = outcome.error_type
            fields["error"] = outcome.error
        self.emit("spec_finished", **fields)
        rate = fields.get("events_per_sec")
        tail = f" {rate:,d} ev/s" if isinstance(rate, int) and rate else ""
        self._say(
            f"fleet: [{outcome.index}] {label} "
            f"({done}/{total}, {outcome.attempts} attempt(s),"
            f" {outcome.elapsed_seconds:.1f}s{tail}): {outcome.spec_summary}"
        )

    def sweep_finished(self) -> Dict[str, Any]:
        """Close out the sweep; returns the deterministic summary."""
        summary = self.summary()
        self.emit("sweep_finished", **summary)
        self._say(
            "fleet: done — "
            + ", ".join(f"{summary[s]} {s}" for s in _SUMMARY_STATUSES)
            + f", {summary['retried']} retried attempt(s)"
        )
        return summary

    # -- inspection -----------------------------------------------------

    def events(self) -> List[Dict[str, Any]]:
        """A snapshot of every recorded event (copies, caller-owned)."""
        with self._lock:
            return [dict(event) for event in self._events]

    def summary(self) -> Dict[str, Any]:
        """Per-status totals — deterministic (no wall-clock fields)."""
        with self._lock:
            summary: Dict[str, Any] = {"total": self._total}
            for status in _SUMMARY_STATUSES:
                summary[status] = self._counts.get(status, 0)
            summary["retried"] = self._retries
            return summary

    def close(self) -> None:
        with self._lock:
            if self._log is not None:
                try:
                    self._log.close()
                finally:
                    self._log = None

    def __enter__(self) -> "FleetTelemetry":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
