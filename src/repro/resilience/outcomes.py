"""Per-job outcome records and sweep checkpointing.

A resilient sweep never lets one bad job take the campaign down: every
spec produces a :class:`RunOutcome` — success with its result, or a
failure/timeout with the worker's traceback and the spec that caused it.
:class:`CheckpointStore` optionally persists successful outcomes so an
interrupted sweep resumes from completed jobs instead of recomputing
them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, is_dataclass
from pathlib import Path
from typing import Any, Dict, Mapping, Optional, Union

from repro.engine.checkpoint import atomic_write
from repro.stats.metrics import SimulationResult

#: RunOutcome.status values.
STATUS_OK = "ok"
STATUS_FAILED = "failed"
STATUS_TIMEOUT = "timeout"


def describe_spec(spec: Mapping[str, Any]) -> str:
    """A one-line human identity for a run spec (for error reports)."""
    parts = []
    for key in ("workload", "scheduler", "seed", "scale", "num_wavefronts"):
        if key not in spec:
            continue
        value = spec[key]
        # Workload instances stringify via their Table II abbreviation.
        value = getattr(value, "abbrev", value)
        parts.append(f"{key}={value}")
    extras = sorted(
        k for k in spec
        if k not in ("workload", "scheduler", "seed", "scale", "num_wavefronts",
                     "config")
    )
    if "config" in spec and spec["config"] is not None:
        parts.append("config=custom")
    parts.extend(f"{k}={spec[k]!r}" for k in extras)
    return " ".join(parts) if parts else repr(dict(spec))


@dataclass
class RunOutcome:
    """What happened to one spec of a sweep — success or not, in order."""

    index: int
    spec_summary: str
    status: str
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    error_type: Optional[str] = None
    traceback: Optional[str] = None
    attempts: int = 1
    elapsed_seconds: float = 0.0
    from_checkpoint: bool = False

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def summary(self) -> str:
        if self.ok:
            source = " (checkpoint)" if self.from_checkpoint else ""
            return f"[{self.index}] ok{source}: {self.spec_summary}"
        return (
            f"[{self.index}] {self.status} after {self.attempts} attempt(s): "
            f"{self.spec_summary} — {self.error_type}: {self.error}"
        )


class SpecExecutionError(RuntimeError):
    """A sweep job failed; carries which spec and the worker traceback."""

    def __init__(self, outcome: RunOutcome) -> None:
        message = (
            f"run spec [{outcome.index}] ({outcome.spec_summary}) "
            f"{outcome.status} after {outcome.attempts} attempt(s)"
        )
        if outcome.error_type:
            message += f": {outcome.error_type}: {outcome.error}"
        if outcome.traceback:
            message += f"\n--- worker traceback ---\n{outcome.traceback}"
        super().__init__(message)
        self.outcome = outcome


# ----------------------------------------------------------------------
# Spec identity and result serialisation
# ----------------------------------------------------------------------


def _canonical(value: Any) -> Any:
    """Reduce a spec value to deterministic JSON-able primitives."""
    if is_dataclass(value) and not isinstance(value, type):
        return _canonical(asdict(value))
    if isinstance(value, Mapping):
        return {str(k): _canonical(v) for k, v in sorted(value.items())}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    # Workload instances and other rich objects: identify by repr.  A
    # workload's constructor parameters appear in its repr, which is
    # enough to key a checkpoint.
    return repr(value)


def spec_key(spec: Mapping[str, Any]) -> str:
    """A stable content hash identifying one run spec."""
    payload = json.dumps(_canonical(dict(spec)), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:24]


def result_to_dict(result: SimulationResult) -> Dict[str, Any]:
    return asdict(result)


def result_from_dict(data: Dict[str, Any]) -> SimulationResult:
    return SimulationResult(**data)


def outcome_to_dict(
    outcome: RunOutcome, include_result: bool = False
) -> Dict[str, Any]:
    """A JSON-able view of one outcome (for sweep-service records).

    The result itself is omitted by default: service shards persist
    results in the shared :class:`CheckpointStore` (keyed by spec
    content), so outcome records only need the verdict and error data.
    """
    data: Dict[str, Any] = {
        "index": outcome.index,
        "spec_summary": outcome.spec_summary,
        "status": outcome.status,
        "error": outcome.error,
        "error_type": outcome.error_type,
        "traceback": outcome.traceback,
        "attempts": outcome.attempts,
        "elapsed_seconds": outcome.elapsed_seconds,
        "from_checkpoint": outcome.from_checkpoint,
    }
    if include_result and outcome.result is not None:
        data["result"] = result_to_dict(outcome.result)
    return data


def outcome_from_dict(data: Mapping[str, Any]) -> RunOutcome:
    """Rebuild a :class:`RunOutcome` from :func:`outcome_to_dict` output."""
    result = data.get("result")
    return RunOutcome(
        index=int(data["index"]),
        spec_summary=data["spec_summary"],
        status=data["status"],
        result=result_from_dict(result) if result is not None else None,
        error=data.get("error"),
        error_type=data.get("error_type"),
        traceback=data.get("traceback"),
        attempts=int(data.get("attempts", 1)),
        elapsed_seconds=float(data.get("elapsed_seconds", 0.0)),
        from_checkpoint=bool(data.get("from_checkpoint", False)),
    )


class CheckpointStore:
    """A directory of completed-job results, keyed by spec content.

    Only successful outcomes are persisted: failed or timed-out jobs are
    retried on the next invocation rather than replayed from disk.
    """

    def __init__(self, directory: Union[str, Path]) -> None:
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, spec: Mapping[str, Any]) -> Path:
        return self.directory / f"{spec_key(spec)}.json"

    def inrun_path(self, spec: Mapping[str, Any]) -> Path:
        """Where a spec's mid-run simulation checkpoint lives.

        Keyed like the result files, so a retry of the same spec finds
        the state its previous attempt left behind.
        """
        return self.directory / f"{spec_key(spec)}.ckpt"

    def load(self, spec: Mapping[str, Any]) -> Optional[SimulationResult]:
        path = self._path(spec)
        if not path.exists():
            return None
        try:
            payload = json.loads(path.read_text())
            return result_from_dict(payload["result"])
        except (ValueError, KeyError, TypeError):
            # A torn or stale checkpoint is treated as absent: recompute.
            return None

    def store(self, spec: Mapping[str, Any], result: SimulationResult) -> None:
        path = self._path(spec)
        payload = {
            "spec_summary": describe_spec(spec),
            "result": result_to_dict(result),
        }
        # An interrupt mid-write never leaves a half-written result that
        # poisons the next resume, and two workers persisting the same
        # spec (a re-leased shard racing its presumed-dead owner) never
        # tear each other's write.
        atomic_write(path, json.dumps(payload).encode())
