"""Walk-lifecycle tracing: a ring-buffered recorder for the whole pipeline.

The paper's argument is about *ordering* — which pending walk the IOMMU
services next and how long each SIMD instruction's walk-job waits — so
end-of-run aggregates are not enough to explain a scheduler's behaviour.
The :class:`Tracer` records structured span/instant events for every
walk (created → enqueued → scheduled → PWC probe → memory accesses →
completed) and every SIMD instruction job (first-walk issue → last-walk
completion → retire), and exports them as Chrome/Perfetto
``trace_event`` JSON (open in https://ui.perfetto.dev) or as a JSONL
stream for programmatic analysis.

Design rules, in priority order:

1. *Zero overhead when disabled.*  Mirroring the fault injector,
   :func:`build_tracer` returns ``None`` for a ``None`` config, and every
   hardware-model emitter is guarded by ``if tracer is not None`` — the
   untraced hot path is byte-for-byte the pre-observability behaviour
   (the golden-equivalence suite enforces this, and
   ``benchmarks/perf/tracing_overhead.py`` bounds the guard cost).
2. *Tracing never mutates simulation state.*  Emitters only read model
   state and append to the ring; a traced run and an untraced run of the
   same spec produce identical :class:`~repro.stats.metrics.SimulationResult`
   metrics.
3. *Determinism.*  Event timestamps are simulation cycles — never wall
   clock — so identical seeds produce byte-identical JSONL.

Timestamps are emitted in the ``ts`` field as cycles; Chrome interprets
them as microseconds, which merely rescales the timeline.
"""

from __future__ import annotations

import json
from collections import deque
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Union

#: Every recognised event category.
TRACE_CATEGORIES: FrozenSet[str] = frozenset(
    {"walk", "job", "tlb", "pwc", "memory", "cu", "fault", "counter"}
)

#: Default ring capacity: large enough for a full small-machine run,
#: bounded enough that a production-scale sweep cannot exhaust memory.
DEFAULT_RING_SIZE = 65_536

#: Chrome ``trace_event`` process ids — one logical track per hardware
#: domain (threads subdivide: CUs under the GPU, walkers under Walkers).
PID_GPU = 0
PID_IOMMU = 1
PID_WALKERS = 2
PID_MEMORY = 3

_PROCESS_NAMES = {
    PID_GPU: "GPU",
    PID_IOMMU: "IOMMU",
    PID_WALKERS: "Walkers",
    PID_MEMORY: "Memory",
}

#: Event phases the exporter produces (and the validator accepts).
_ALLOWED_PHASES = frozenset({"X", "i", "C", "M"})


@dataclass(frozen=True)
class TraceConfig:
    """Declarative tracing request, picklable so specs cross processes.

    ``categories`` selects which event families are recorded (default:
    all).  An *empty* set yields an inert tracer: the hooks are wired but
    record nothing, and the run's :class:`SimulationResult` is identical
    to an untraced run — the overhead-guard benchmark measures exactly
    this configuration.
    """

    categories: FrozenSet[str] = field(default=TRACE_CATEGORIES)
    ring_size: int = DEFAULT_RING_SIZE
    #: Embed the Chrome event list in ``result.detail["trace"]["events"]``
    #: (tests and small runs); large runs should export to a file instead.
    embed_events: bool = False

    def __post_init__(self) -> None:
        # Tolerate lists/tuples straight from JSON or CLI parsing.
        if not isinstance(self.categories, frozenset):
            object.__setattr__(self, "categories", frozenset(self.categories))
        unknown = self.categories - TRACE_CATEGORIES
        if unknown:
            raise ValueError(
                f"unknown trace categories {sorted(unknown)}; "
                f"one of {sorted(TRACE_CATEGORIES)}"
            )
        if self.ring_size <= 0:
            raise ValueError(f"ring_size must be positive, got {self.ring_size}")


# ----------------------------------------------------------------------
# Chrome event formatters
# ----------------------------------------------------------------------
#
# The ring holds one tuple per event, ``(formatter, *fields)``; export
# calls ``formatter(*fields)`` for the Chrome ``trace_event`` dict.  So
# recording costs one tuple, and a dict exists only while an export
# builds it.  Each formatter returns a fresh dict, so callers may
# mutate what they get without touching the ring.


def _walk_created(now, vpn, instruction_id, wavefront_id):
    return {
        "name": "walk_created", "ph": "i", "ts": now,
        "pid": PID_IOMMU, "tid": 0, "cat": "walk", "s": "t",
        "args": {"vpn": vpn, "instruction_id": instruction_id,
                 "wavefront_id": wavefront_id},
    }


def _walk_enqueued(now, vpn, instruction_id, estimated_accesses):
    return {
        "name": "walk_enqueued", "ph": "i", "ts": now,
        "pid": PID_IOMMU, "tid": 0, "cat": "walk", "s": "t",
        "args": {"vpn": vpn, "instruction_id": instruction_id,
                 "estimated_accesses": estimated_accesses},
    }


def _walk_scheduled(now, vpn, instruction_id, arrival_time, walker_id,
                    dispatch_seq):
    return {
        "name": "queued", "ph": "X", "ts": arrival_time,
        "dur": now - arrival_time,
        "pid": PID_IOMMU, "tid": 0, "cat": "walk",
        "args": {"vpn": vpn, "instruction_id": instruction_id,
                 "walker_id": walker_id, "dispatch_seq": dispatch_seq},
    }


def _walk_completed(now, vpn, instruction_id, accesses):
    return {
        "name": "walk_completed", "ph": "i", "ts": now,
        "pid": PID_IOMMU, "tid": 0, "cat": "walk", "s": "t",
        "args": {"vpn": vpn, "instruction_id": instruction_id,
                 "accesses": accesses},
    }


def _walk_span(start, end, walker_id, vpn, instruction_id, accesses):
    return {
        "name": "walk", "ph": "X", "ts": start, "dur": end - start,
        "pid": PID_WALKERS, "tid": walker_id, "cat": "walk",
        "args": {"vpn": vpn, "instruction_id": instruction_id,
                 "accesses": accesses},
    }


def _walk_read(start, end, walker_id, vpn, instruction_id, level, address,
               bank, bank_queue, row_access, fault_pad, row_hit):
    return {
        "name": "walk_read", "ph": "X", "ts": start,
        "dur": end - start,
        "pid": PID_WALKERS, "tid": walker_id, "cat": "walk",
        "args": {"vpn": vpn, "instruction_id": instruction_id,
                 "level": level, "address": address, "bank": bank,
                 "bank_queue": bank_queue, "row_access": row_access,
                 "fault_pad": fault_pad, "row_hit": row_hit},
    }


def _job_retired(now, cu_id, instruction_id, wavefront_id, issue_time,
                 walk_accesses, walk_requests, num_pages, window):
    args = {
        "instruction_id": instruction_id,
        "wavefront_id": wavefront_id,
        "walk_accesses": walk_accesses,
        "walk_requests": walk_requests,
        "num_pages": num_pages,
    }
    if window is not None:
        args["first_walk_issue"] = window[0]
        if window[1] >= 0:
            args["last_walk_complete"] = window[1]
    return {
        "name": "job", "ph": "X", "ts": issue_time,
        "dur": now - issue_time,
        "pid": PID_GPU, "tid": cu_id, "cat": "job", "args": args,
    }


def _cu_stall(cu_id, start, end):
    return {
        "name": "stall", "ph": "X", "ts": start, "dur": end - start,
        "pid": PID_GPU, "tid": cu_id, "cat": "cu", "args": {},
    }


def _tlb_lookup(now, name, vpn, hit):
    return {
        "name": f"{name}:{'hit' if hit else 'miss'}", "ph": "i",
        "ts": now, "pid": PID_IOMMU, "tid": 0, "cat": "tlb", "s": "t",
        "args": {"vpn": vpn},
    }


def _pwc_probe(now, kind, vpn, level, accesses):
    return {
        "name": f"pwc_{kind}", "ph": "i", "ts": now,
        "pid": PID_IOMMU, "tid": 0, "cat": "pwc", "s": "t",
        "args": {"vpn": vpn, "hit_level": level, "accesses": accesses},
    }


def _ptw_read(now, walker_id, address):
    return {
        "name": "ptw_read", "ph": "i", "ts": now,
        "pid": PID_WALKERS, "tid": walker_id, "cat": "memory", "s": "t",
        "args": {"address": address},
    }


def _dram_access(start, done, address, queue_delay, row_hit, bank):
    return {
        "name": "dram", "ph": "X", "ts": start, "dur": done - start,
        "pid": PID_MEMORY, "tid": 0, "cat": "memory",
        "args": {"address": address, "queue_delay": queue_delay,
                 "row_hit": row_hit, "bank": bank},
    }


def _dram_service(start, done, bank, address, row_hit):
    return {
        "name": "dram_service", "ph": "X", "ts": start,
        "dur": done - start,
        "pid": PID_MEMORY, "tid": 0, "cat": "memory",
        "args": {"address": address, "bank": bank, "row_hit": row_hit},
    }


def _dram_read_span(arrival, done, bank, address, row_hit):
    return {
        "name": "dram_read", "ph": "X", "ts": arrival,
        "dur": done - arrival,
        "pid": PID_MEMORY, "tid": 0, "cat": "memory",
        "args": {"address": address, "bank": bank, "row_hit": row_hit},
    }


def _fault_injected(now, kind, detail):
    return {
        "name": f"fault:{kind}", "ph": "i", "ts": now,
        "pid": PID_IOMMU, "tid": 0, "cat": "fault", "s": "g",
        "args": dict(detail),
    }


def _counter(now, name, value, pid):
    return {
        "name": name, "ph": "C", "ts": now, "pid": pid, "tid": 0,
        "cat": "counter", "args": {"value": value},
    }


class Tracer:
    """Ring-buffered event recorder threaded through the hardware models.

    Emitters are grouped by pipeline stage; every one appends a single
    ``(formatter, *fields)`` record to the ring and nothing else, and the
    exports (:meth:`events`, :meth:`tail`, :meth:`to_chrome`,
    :meth:`to_jsonl`) format the records into Chrome event dicts.  The
    ``cat_*`` booleans are plain attributes so hot paths can skip the
    method call entirely (``if tracer is not None and tracer.cat_memory``).
    """

    def __init__(self, config: Optional[TraceConfig] = None) -> None:
        self.config = config or TraceConfig()
        categories = self.config.categories
        self.cat_walk = "walk" in categories
        self.cat_job = "job" in categories
        self.cat_tlb = "tlb" in categories
        self.cat_pwc = "pwc" in categories
        self.cat_memory = "memory" in categories
        self.cat_cu = "cu" in categories
        self.cat_fault = "fault" in categories
        self.cat_counter = "counter" in categories
        self._events: Deque[tuple] = deque(maxlen=self.config.ring_size)
        self.events_emitted = 0
        #: instruction_id -> [first_walk_issue, last_walk_complete, walks]
        self._jobs: Dict[int, List[int]] = {}
        #: Transient DRAM-timing receipt ``(service_start, done, bank,
        #: row_hit)`` left by the memory models for the walker that is
        #: synchronously issuing (reservation) or completing (queued
        #: controller) a page-table read.  Consumed within the same call
        #: stack, so its value between events never matters; it exists
        #: so the walker can split its read spans into bank-queue vs
        #: row-access cycles without the full ``memory`` category
        #: flooding the ring.
        self.last_dram_access = None

    @property
    def enabled(self) -> bool:
        """False for the inert (empty-categories) tracer."""
        return bool(self.config.categories)

    @property
    def events_recorded(self) -> int:
        return len(self._events)

    @property
    def events_dropped(self) -> int:
        """Events pushed out of the ring by newer ones."""
        return self.events_emitted - len(self._events)

    # ------------------------------------------------------------------
    # Walk lifecycle (IOMMU + walkers)
    # ------------------------------------------------------------------

    def walk_created(self, now: int, vpn: int, instruction_id: int,
                     wavefront_id: int) -> None:
        """A GPU TLB miss arrived at the IOMMU and needs a walk."""
        if not self.cat_walk:
            return
        self.events_emitted += 1
        self._events.append(
            (_walk_created, now, vpn, instruction_id, wavefront_id)
        )

    def walk_enqueued(self, now: int, vpn: int, instruction_id: int,
                      estimated_accesses: int) -> None:
        """The walk entered the pending buffer (no walker was idle)."""
        if not self.cat_walk:
            return
        self.events_emitted += 1
        self._events.append(
            (_walk_enqueued, now, vpn, instruction_id, estimated_accesses)
        )

    def walk_scheduled(self, now: int, vpn: int, instruction_id: int,
                       arrival_time: int, walker_id: int,
                       dispatch_seq: int) -> None:
        """The scheduler handed the walk to a walker.

        Emits the buffer-residency span (``queued``: arrival → dispatch)
        so Perfetto shows queueing delay per walk directly.
        """
        if not self.cat_walk:
            return
        self.events_emitted += 1
        self._events.append((
            _walk_scheduled, now, vpn, instruction_id, arrival_time,
            walker_id, dispatch_seq,
        ))

    def walk_completed(self, now: int, vpn: int, instruction_id: int,
                       accesses: int) -> None:
        """The IOMMU delivered the walk's translation back to the GPU."""
        if not self.cat_walk:
            return
        self.events_emitted += 1
        self._events.append(
            (_walk_completed, now, vpn, instruction_id, accesses)
        )

    def walk_span(self, start: int, end: int, walker_id: int, vpn: int,
                  instruction_id: int, accesses: int) -> None:
        """One walker's service interval for one walk (dispatch → done)."""
        if not self.cat_walk:
            return
        self.events_emitted += 1
        self._events.append(
            (_walk_span, start, end, walker_id, vpn, instruction_id, accesses)
        )

    def walk_read(self, start: int, end: int, walker_id: int, vpn: int,
                  instruction_id: int, level: int, address: int, bank: int,
                  bank_queue: int, row_access: int, fault_pad: int,
                  row_hit: bool) -> None:
        """One page-table read within a walk (issue → data return).

        The span's duration decomposes exactly —
        ``bank_queue + row_access + fault_pad == dur`` — which is the
        per-read piece of the attribution layer's reconciliation
        invariant (:mod:`repro.obs.attrib`).  ``bank`` is -1 when the
        memory model supplied no timing receipt (then the whole span is
        reported as ``row_access``).
        """
        if not self.cat_walk:
            return
        self.events_emitted += 1
        self._events.append((
            _walk_read, start, end, walker_id, vpn, instruction_id, level,
            address, bank, bank_queue, row_access, fault_pad, row_hit,
        ))

    # ------------------------------------------------------------------
    # Instruction jobs (GPU wavefronts)
    # ------------------------------------------------------------------

    def job_walk_issue(self, instruction_id: int, now: int) -> None:
        """One of the instruction's translation requests left for the IOMMU."""
        if not self.cat_job:
            return
        job = self._jobs.get(instruction_id)
        if job is None:
            self._jobs[instruction_id] = [now, -1, 1]
        else:
            job[2] += 1

    def job_walk_complete(self, instruction_id: int, now: int) -> None:
        """One of the instruction's IOMMU walks delivered its translation."""
        if not self.cat_job:
            return
        job = self._jobs.get(instruction_id)
        if job is not None and now > job[1]:
            job[1] = now

    def job_retired(self, now: int, cu_id: int, instruction_id: int,
                    wavefront_id: int, issue_time: int, walk_accesses: int,
                    walk_requests: int, num_pages: int) -> None:
        """The SIMD instruction retired: emit its end-to-end job span.

        The span covers issue → retire; args carry the walk-job window
        (first walk issued / last walk completed) and the instruction's
        total page-table accesses — enough to rebuild the paper's Fig 3
        buckets straight from a trace.  The window leaves the job table
        here; once popped nothing else holds it, so the record keeps it.
        """
        if not self.cat_job:
            return
        self.events_emitted += 1
        self._events.append((
            _job_retired, now, cu_id, instruction_id, wavefront_id,
            issue_time, walk_accesses, walk_requests, num_pages,
            self._jobs.pop(instruction_id, None),
        ))

    def cu_stall(self, cu_id: int, start: int, end: int) -> None:
        """A closed interval in which the CU had no runnable wavefront."""
        if not self.cat_cu:
            return
        self.events_emitted += 1
        self._events.append((_cu_stall, cu_id, start, end))

    # ------------------------------------------------------------------
    # Caches (TLBs + PWC)
    # ------------------------------------------------------------------

    def tlb_lookup(self, now: int, name: str, vpn: int, hit: bool) -> None:
        if not self.cat_tlb:
            return
        self.events_emitted += 1
        self._events.append((_tlb_lookup, now, name, vpn, hit))

    def pwc_probe(self, now: int, kind: str, vpn: int, level: int,
                  accesses: int) -> None:
        """One PWC consultation: ``kind`` is ``score`` (action 1-a,
        arrival-time estimate) or ``walk`` (action 2-b, walker lookup)."""
        if not self.cat_pwc:
            return
        self.events_emitted += 1
        self._events.append((_pwc_probe, now, kind, vpn, level, accesses))

    # ------------------------------------------------------------------
    # Memory (walker page-table reads, DRAM)
    # ------------------------------------------------------------------

    def ptw_read(self, now: int, walker_id: int, address: int) -> None:
        """A walker issued one sequential page-table read."""
        if not self.cat_memory:
            return
        self.events_emitted += 1
        self._events.append((_ptw_read, now, walker_id, address))

    def dram_access(self, start: int, done: int, address: int,
                    queue_delay: int, row_hit: bool, bank: int = -1) -> None:
        """One reservation-model DRAM access (queue delay folded in args)."""
        if not self.cat_memory:
            return
        self.events_emitted += 1
        self._events.append(
            (_dram_access, start, done, address, queue_delay, row_hit, bank)
        )

    def dram_service(self, start: int, done: int, bank: int, address: int,
                     row_hit: bool) -> None:
        """One queued-controller bank *service* interval (dequeue → data).

        Complements :meth:`dram_read_span` (arrival → data): the gap
        between the two spans' starts is exactly the request's bank
        queueing delay, which used to be invisible in exports.
        """
        if not self.cat_memory:
            return
        self.events_emitted += 1
        self._events.append(
            (_dram_service, start, done, bank, address, row_hit)
        )

    def dram_read_span(self, arrival: int, done: int, bank: int,
                       address: int, row_hit: bool) -> None:
        """One queued-controller read, arrival → data return."""
        if not self.cat_memory:
            return
        self.events_emitted += 1
        self._events.append(
            (_dram_read_span, arrival, done, bank, address, row_hit)
        )

    # ------------------------------------------------------------------
    # Faults and counters
    # ------------------------------------------------------------------

    def fault_injected(self, now: int, kind: str, detail: dict) -> None:
        """A fault-injection event fired (instant, global scope).

        ``detail`` is copied now: the caller may reuse its dict.
        """
        if not self.cat_fault:
            return
        self.events_emitted += 1
        self._events.append((_fault_injected, now, kind, dict(detail)))

    def counter(self, now: int, name: str, value: Union[int, float],
                pid: int = PID_IOMMU) -> None:
        """One sample of a counter track (Perfetto draws these as graphs)."""
        if not self.cat_counter:
            return
        self.events_emitted += 1
        self._events.append((_counter, now, name, value, pid))

    # ------------------------------------------------------------------
    # Introspection and export
    # ------------------------------------------------------------------

    def events(self) -> List[dict]:
        """The recorded events as Chrome dicts, oldest first (built
        afresh on every call)."""
        return [record[0](*record[1:]) for record in self._events]

    def tail(self, n: int) -> List[dict]:
        """The last ``n`` recorded events — the flight-recorder window."""
        if n <= 0:
            return []
        events = self._events
        start = max(0, len(events) - n)
        return [
            record[0](*record[1:]) for record in islice(events, start, None)
        ]

    def summary(self) -> Dict[str, object]:
        return {
            "categories": sorted(self.config.categories),
            "ring_size": self.config.ring_size,
            "events_emitted": self.events_emitted,
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
        }

    @staticmethod
    def _metadata_events(events: List[dict]) -> List[dict]:
        metadata: List[dict] = []
        for pid, name in _PROCESS_NAMES.items():
            metadata.append({
                "name": "process_name", "ph": "M", "ts": 0, "pid": pid,
                "tid": 0, "args": {"name": name},
            })
        # Name the per-CU and per-walker threads actually present.
        threads = sorted(
            {(e["pid"], e["tid"]) for e in events if e["tid"] != 0}
        )
        for pid, tid in threads:
            prefix = "cu" if pid == PID_GPU else "walker"
            metadata.append({
                "name": "thread_name", "ph": "M", "ts": 0, "pid": pid,
                "tid": tid, "args": {"name": f"{prefix}{tid}"},
            })
        return metadata

    def to_chrome(self) -> Dict[str, object]:
        """The trace as a Chrome/Perfetto ``trace_event`` document."""
        events = self.events()
        return {
            "traceEvents": self._metadata_events(events) + events,
            "displayTimeUnit": "ns",
            "otherData": self.summary(),
        }

    def write_chrome(self, path: Union[str, Path]) -> None:
        document = self.to_chrome()
        validate_chrome_trace(document)
        Path(path).write_text(
            json.dumps(document, sort_keys=True, separators=(",", ":"))
        )

    def to_jsonl(self) -> str:
        """One compact, key-sorted JSON object per recorded event.

        Deterministic: identical seeds and config produce byte-identical
        output (timestamps are cycles; emit order is event order).
        """
        return "".join(
            json.dumps(record[0](*record[1:]), sort_keys=True,
                       separators=(",", ":")) + "\n"
            for record in self._events
        )

    def write_jsonl(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_jsonl())


def build_tracer(config: Optional[TraceConfig]) -> Optional[Tracer]:
    """A tracer for ``config``, or None when tracing was not requested.

    ``None`` in means ``None`` out so every hardware-model hook stays an
    ``is not None`` check and the untraced fast path is unchanged (the
    same contract as :func:`repro.resilience.faults.build_injector`).
    """
    if config is None:
        return None
    return Tracer(config)


def validate_chrome_trace(document: object) -> int:
    """Check ``document`` against the ``trace_event`` JSON shape.

    Returns the number of events checked; raises :class:`ValueError`
    naming every problem found.  Used by the ``trace`` CLI after export
    and by the CI observability job on the artifact it uploads.
    """
    problems: List[str] = []
    if not isinstance(document, dict):
        raise ValueError("trace document must be a JSON object")
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("trace document lacks a traceEvents list")
    for index, event in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(event, dict):
            problems.append(f"{where}: not an object")
            continue
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in event:
                problems.append(f"{where}: missing {key!r}")
        phase = event.get("ph")
        if phase not in _ALLOWED_PHASES:
            problems.append(f"{where}: unknown phase {phase!r}")
        if phase == "X":
            duration = event.get("dur")
            if not isinstance(duration, (int, float)) or duration < 0:
                problems.append(f"{where}: complete event needs dur >= 0")
            elif event.get("name") == "walk_read":
                # Stage-boundary spans must decompose exactly — this is
                # the per-read reconciliation invariant, checked at the
                # export boundary so a broken emitter cannot ship a
                # trace the attribution layer would silently misread.
                args = event.get("args")
                if not isinstance(args, dict):
                    problems.append(f"{where}: walk_read needs args")
                else:
                    missing = [
                        key for key in (
                            "level", "bank", "bank_queue", "row_access",
                            "fault_pad",
                        )
                        if key not in args
                    ]
                    if missing:
                        problems.append(
                            f"{where}: walk_read args missing {missing}"
                        )
                    else:
                        parts = (
                            args["bank_queue"] + args["row_access"]
                            + args["fault_pad"]
                        )
                        if parts != duration:
                            problems.append(
                                f"{where}: walk_read stages sum to "
                                f"{parts}, dur is {duration}"
                            )
        ts = event.get("ts")
        if not isinstance(ts, (int, float)) or ts < 0:
            problems.append(f"{where}: ts must be a non-negative number")
        if len(problems) >= 20:
            problems.append("... (further problems suppressed)")
            break
    if problems:
        raise ValueError(
            "invalid Chrome trace:\n  " + "\n  ".join(problems)
        )
    return len(events)
