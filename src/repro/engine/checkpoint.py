"""In-run simulation checkpoints with deterministic resume.

A checkpoint is ONE pickle of the live objects of a run: the wired
system (simulator and pending events included), its watchdog and its
metrics registry.  Using a single ``pickle.dumps`` matters: the
pending-walk buffer, the walkers, the event queue's payloads and the
GPU's instruction records *share* request/entry objects by identity, and
pickle's memo preserves that sharing.  Handlers are bound methods, which
pickle as references to their components; monitor callbacks are code,
so :class:`~repro.engine.simulator.Simulator` keeps only their
cadences and the resume re-attaches them.

The envelope around the pickled objects:

* ``format`` — identifies a repro checkpoint;
* ``code`` — :func:`code_fingerprint` of the code that wrote it.  Pickle
  names classes and handler methods, so only that code can resume the
  file; :func:`load_checkpoint` refuses any other;
* ``meta`` — workload and run arguments the harness needs around the
  system (maximum cycles, metrics cadence) plus the cycle and event
  count at the dump;
* ``state`` — the pickled objects.

Every pending event is a registered ``(kind, *payload)`` tuple, so the
event queue pickles whenever its payloads do; a payload that does not
makes :func:`save_checkpoint_file` raise :class:`CheckpointError`.

:func:`atomic_write` is the package's one way to replace a file: the
checkpoint files here, and the result and work-queue JSON files of the
resilient runner and the sweep service.
"""

from __future__ import annotations

import functools
import hashlib
import io
import os
import pickle
import uuid
from pathlib import Path
from typing import Any, Dict, Optional, Union

#: Identifies a repro checkpoint blob (first dict key checked on load).
CHECKPOINT_FORMAT = "repro-checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint could not be produced, read or applied."""


@functools.lru_cache(maxsize=None)
def code_fingerprint() -> str:
    """The first 16 hex digits of one SHA-256 over the ``repro``
    package's ``.py`` sources (paths and contents), computed once per
    process."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def dump_checkpoint(
    state: Dict[str, Any], meta: Optional[Dict[str, Any]] = None
) -> bytes:
    """Serialise one checkpoint into a bytes blob (single pickle)."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "code": code_fingerprint(),
        "meta": dict(meta or {}),
        "state": state,
    }
    try:
        buffer = io.BytesIO()
        pickle.dump(payload, buffer, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # closures in event payloads, locks, ...
        raise CheckpointError(
            f"simulation state is not serialisable: {exc!r}; checkpointing "
            "requires every pending event payload to pickle"
        ) from exc
    return buffer.getvalue()


def load_checkpoint(blob: bytes) -> Dict[str, Any]:
    """Deserialise and validate a checkpoint blob."""
    try:
        payload = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(f"not a readable checkpoint: {exc!r}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a repro checkpoint blob")
    code = payload.get("code")
    if code != code_fingerprint():
        raise CheckpointError(
            f"checkpoint was written by code {code}, this is code "
            f"{code_fingerprint()}; only the code that wrote a checkpoint "
            "can resume it"
        )
    return payload


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Replace the file at ``path`` with ``data`` atomically.

    Callers serialise first, so a value that does not serialise never
    opens a file.  The bytes go to a uniquely-named temp file beside
    ``path`` (pid + uuid, so two writers racing on the same target never
    share one), are fsynced, and ``os.replace`` moves them into place:
    readers see the old file or the new one, never a torn write, and a
    process killed mid-write leaves the previous file intact.  On any
    failure the temp file is deleted.
    """
    tmp = f"{path}.{os.getpid()}.{uuid.uuid4().hex}.tmp"
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_checkpoint_file(
    path: str,
    state: Dict[str, Any],
    meta: Optional[Dict[str, Any]] = None,
) -> None:
    """Write a checkpoint blob to ``path`` with :func:`atomic_write`, so
    an unserialisable state or a process SIGKILLed mid-dump leaves the
    *previous* checkpoint intact rather than a torn file that would
    poison every later resume."""
    atomic_write(path, dump_checkpoint(state, meta))


def load_checkpoint_file(path: str) -> Dict[str, Any]:
    with open(path, "rb") as handle:
        return load_checkpoint(handle.read())
