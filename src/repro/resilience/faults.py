"""Deterministic fault injection for the simulated translation machinery.

A :class:`FaultPlan` is part of the machine description
(:attr:`~repro.config.SystemConfig.faults`): a seed plus a list of
:class:`FaultEvent` perturbations pinned to simulation cycles.  The plan
is declarative and picklable, so fault campaigns cross process
boundaries and serialise next to their results like any other
configuration.  The runtime side is :class:`FaultInjector`: built once
per system, it schedules the timed faults on the simulator clock and
answers the inline hooks the hardware models consult.

Supported fault kinds
---------------------

``delay_walk_completion``
    The next ``count`` page-walk completions at or after ``at_cycle``
    are delivered ``magnitude`` cycles late (the walker stays busy for
    the extra time).  Requests still complete — this stresses scheduler
    and aging behaviour, it must never lose work.

``drop_walk_completion``
    The next ``count`` completions at or after ``at_cycle`` are
    swallowed: the walker wedges and its translation never returns.
    This *manufactures* a deadlock — pair it with the watchdog to prove
    hangs are diagnosed instead of spinning to ``max_cycles``.

``stall_walker``
    Walker ``target`` refuses new work for ``duration`` cycles starting
    at ``at_cycle`` (a walk already in progress finishes normally).

``flush_tlb``
    At ``at_cycle``, invalidate every entry of the TLB named by
    ``site`` ("iommu_l1", "iommu_l2" or "gpu_l2").

``corrupt_tlb``
    At ``at_cycle``, invalidate ``count`` seeded-random entries of the
    TLB named by ``site`` — models ECC-detected corruption (a detected
    bad entry is discarded and re-walked, never silently used).

``flush_pwc``
    At ``at_cycle``, empty every page-walk-cache level.

``dram_spike``
    Every DRAM access starting in ``[at_cycle, at_cycle + duration)``
    takes ``magnitude`` extra cycles (thermal throttling / refresh
    storm).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.request import WalkBufferEntry

#: Every recognised fault kind.
FAULT_KINDS: Tuple[str, ...] = (
    "delay_walk_completion",
    "drop_walk_completion",
    "stall_walker",
    "flush_tlb",
    "corrupt_tlb",
    "flush_pwc",
    "dram_spike",
)

#: TLB selectors accepted by ``flush_tlb`` / ``corrupt_tlb``.
TLB_SITES: Tuple[str, ...] = ("iommu_l1", "iommu_l2", "gpu_l2")

#: Fault kinds that perturb but never lose work: any plan built from
#: these alone must still complete every request.
SAFE_KINDS: Tuple[str, ...] = tuple(k for k in FAULT_KINDS if k != "drop_walk_completion")


@dataclass(frozen=True)
class FaultEvent:
    """One declarative perturbation (see the module docstring for kinds)."""

    kind: str
    at_cycle: int = 0
    #: Walker index for ``stall_walker``; unused otherwise.
    target: int = -1
    #: TLB selector for ``flush_tlb`` / ``corrupt_tlb``.
    site: str = ""
    #: Window length (``stall_walker``, ``dram_spike``).
    duration: int = 0
    #: Extra cycles (``delay_walk_completion``, ``dram_spike``).
    magnitude: int = 0
    #: Repetitions (completion faults) or entries hit (``corrupt_tlb``).
    count: int = 1

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; one of {', '.join(FAULT_KINDS)}"
            )
        if self.at_cycle < 0:
            raise ValueError(f"at_cycle must be non-negative, got {self.at_cycle}")
        if self.count <= 0:
            raise ValueError(f"count must be positive, got {self.count}")
        if self.kind in ("flush_tlb", "corrupt_tlb") and self.site not in TLB_SITES:
            raise ValueError(
                f"{self.kind} needs site in {TLB_SITES}, got {self.site!r}"
            )
        if self.kind == "stall_walker":
            if self.target < 0:
                raise ValueError("stall_walker needs a non-negative walker target")
            if self.duration <= 0:
                raise ValueError("stall_walker needs a positive duration")
        if self.kind == "delay_walk_completion" and self.magnitude <= 0:
            raise ValueError("delay_walk_completion needs a positive magnitude")
        if self.kind == "dram_spike":
            if self.duration <= 0:
                raise ValueError("dram_spike needs a positive duration")
            if self.magnitude <= 0:
                raise ValueError("dram_spike needs a positive magnitude")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, declarative fault campaign for one simulation."""

    seed: int = 0
    events: Tuple[FaultEvent, ...] = ()

    def __post_init__(self) -> None:
        # Tolerate lists (e.g. straight from JSON) but store a tuple so
        # plans hash/compare like the rest of the config tree.
        if not isinstance(self.events, tuple):
            object.__setattr__(self, "events", tuple(self.events))

    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def is_safe(self) -> bool:
        """True when no event can lose work (no dropped completions)."""
        return all(event.kind in SAFE_KINDS for event in self.events)

    def of_kind(self, kind: str) -> Tuple[FaultEvent, ...]:
        return tuple(event for event in self.events if event.kind == kind)


class _CompletionFault:
    """Mutable remaining-shots state for one completion perturbation."""

    __slots__ = ("event", "remaining")

    def __init__(self, event: FaultEvent) -> None:
        self.event = event
        self.remaining = event.count


class FaultInjector:
    """Runtime arm of a :class:`FaultPlan`, attached to one system.

    Timed faults (flushes, stalls, DRAM spikes) are scheduled as
    ordinary simulator events by :meth:`arm`; the walk-completion
    perturbations are consulted inline by the walkers.  All decisions
    are functions of the plan and the simulation clock only, so a given
    ``(plan, spec)`` pair always injects the same faults at the same
    cycles.
    """

    def __init__(self, plan: FaultPlan, tracer=None) -> None:
        self.plan = plan
        self._rng = random.Random(plan.seed)
        #: The system this injector was armed against (set by :meth:`arm`).
        self._system = None
        self._completion_faults: List[_CompletionFault] = [
            _CompletionFault(event)
            for event in sorted(
                (
                    e
                    for e in plan.events
                    if e.kind in ("delay_walk_completion", "drop_walk_completion")
                ),
                key=lambda e: e.at_cycle,
            )
        ]
        self._dram_windows: List[Tuple[int, int, int]] = [
            (e.at_cycle, e.at_cycle + e.duration, e.magnitude)
            for e in plan.events
            if e.kind == "dram_spike"
        ]
        #: Optional :class:`~repro.obs.trace.Tracer`; when given, every
        #: injection emits a ``fault:<kind>`` instant event at its
        #: injection cycle so fault reports open next to the timeline
        #: they perturbed.
        self.tracer = tracer
        #: Count of injections actually performed, by fault kind.
        self.injected: Dict[str, int] = {}
        #: TLB entries invalidated by ``corrupt_tlb`` events.
        self.entries_corrupted = 0
        #: Completions currently wedged by ``drop_walk_completion``.
        self.dropped_completions = 0

    # ------------------------------------------------------------------
    # Arming: timed faults become simulator events
    # ------------------------------------------------------------------

    def arm(self, system) -> None:
        """Schedule every timed fault on ``system``'s simulator clock.

        Faults are posted as tagged ``fault.fire`` events whose payload
        is the declarative :class:`FaultEvent` itself, so an armed queue
        remains picklable for checkpoints.
        """
        self._system = system
        sim = system.simulator
        sim.register("fault.fire", self._fire)
        for event in self.plan.events:
            if event.kind in ("flush_tlb", "corrupt_tlb", "flush_pwc", "stall_walker"):
                sim.post_at(event.at_cycle, "fault.fire", event)

    def _fire(self, event: FaultEvent) -> None:
        system = self._system
        if event.kind == "flush_tlb":
            self._flush_tlb(system, event)
        elif event.kind == "corrupt_tlb":
            self._corrupt_tlb(system, event)
        elif event.kind == "flush_pwc":
            self._flush_pwc(system, event)
        elif event.kind == "stall_walker":
            self._stall_walker(system, event)

    def _count(self, kind: str) -> None:
        self.injected[kind] = self.injected.get(kind, 0) + 1

    def _trace(self, kind: str, now: int, detail: Dict[str, object]) -> None:
        if self.tracer is not None:
            self.tracer.fault_injected(now, kind, detail)

    def _tlb_for(self, system, site: str):
        if site == "iommu_l1":
            return system.iommu.l1_tlb
        if site == "iommu_l2":
            return system.iommu.l2_tlb
        return system.gpu.l2_tlb

    def _flush_tlb(self, system, event: FaultEvent) -> None:
        self._tlb_for(system, event.site).flush()
        self._count("flush_tlb")
        self._trace("flush_tlb", system.simulator.now, {"site": event.site})

    def _corrupt_tlb(self, system, event: FaultEvent) -> None:
        tlb = self._tlb_for(system, event.site)
        corrupted = tlb.corrupt(self._rng, event.count)
        self.entries_corrupted += corrupted
        self._count("corrupt_tlb")
        self._trace(
            "corrupt_tlb", system.simulator.now,
            {"site": event.site, "entries": corrupted},
        )

    def _flush_pwc(self, system, event: FaultEvent) -> None:
        discarded = system.iommu.pwc.flush()
        self._count("flush_pwc")
        self._trace(
            "flush_pwc", system.simulator.now, {"entries": discarded}
        )

    def _stall_walker(self, system, event: FaultEvent) -> None:
        iommu = system.iommu
        if event.target >= len(iommu.walkers):
            return  # plan written for a bigger walker pool; nothing to stall
        walker = iommu.walkers[event.target]
        sim = system.simulator
        walker.stalled_until = max(walker.stalled_until, sim.now + event.duration)
        self._count("stall_walker")
        self._trace(
            "stall_walker", sim.now,
            {"walker": event.target, "duration": event.duration},
        )
        # When the stall lifts, buffered work may be waiting on this
        # walker — poke the scheduler so it does not idle forever.
        sim.post_at(walker.stalled_until, "iommu.kick")

    # ------------------------------------------------------------------
    # Inline hooks consulted by the hardware models
    # ------------------------------------------------------------------

    def on_walk_completion(self, walker_id: int, entry: "WalkBufferEntry", now: int):
        """Verdict for one finishing walk: ``(action, extra_cycles)``.

        ``action`` is ``"deliver"``, ``"delay"`` or ``"drop"``.  Faults
        are consumed in ``at_cycle`` order, one completion per shot.
        """
        for fault in self._completion_faults:
            if fault.remaining <= 0 or fault.event.at_cycle > now:
                continue
            fault.remaining -= 1
            if fault.event.kind == "drop_walk_completion":
                self.dropped_completions += 1
                self._count("drop_walk_completion")
                self._trace(
                    "drop_walk_completion", now,
                    {"walker": walker_id, "vpn": entry.vpn,
                     "instruction_id": entry.instruction_id},
                )
                return "drop", 0
            self._count("delay_walk_completion")
            self._trace(
                "delay_walk_completion", now,
                {"walker": walker_id, "vpn": entry.vpn,
                 "extra_cycles": fault.event.magnitude},
            )
            return "delay", fault.event.magnitude
        return "deliver", 0

    def dram_padding(self, now: int) -> int:
        """Extra cycles for a DRAM access starting at ``now``."""
        extra = 0
        for start, end, magnitude in self._dram_windows:
            if start <= now < end:
                extra += magnitude
        if extra:
            self._count("dram_spike")
            self._trace("dram_spike", now, {"extra_cycles": extra})
        return extra

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> Dict[str, object]:
        return {
            "seed": self.plan.seed,
            "planned_events": len(self.plan.events),
            "injected": dict(sorted(self.injected.items())),
            "entries_corrupted": self.entries_corrupted,
            "dropped_completions": self.dropped_completions,
        }


def build_injector(plan: Optional[FaultPlan], tracer=None) -> Optional[FaultInjector]:
    """An injector for ``plan``, or None when there is nothing to inject.

    An empty plan deliberately yields None so the fault-free fast path
    is byte-for-byte the pre-resilience behaviour (golden equivalence).
    """
    if plan is None or plan.is_empty:
        return None
    return FaultInjector(plan, tracer=tracer)
