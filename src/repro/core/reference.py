"""Naive reference schedulers: the pre-index O(n) implementations.

These classes preserve, verbatim, the original linear-scan algorithms
that :mod:`repro.core.schedulers` used before the buffer grew its
indexes — ``min()`` over the whole buffer for shortest-job-first, a
full-buffer loop for bypass accounting, and a linear sweep for
``oldest_for_instruction``.  They rely only on buffer *iteration* and
``score_of``, never on the indexed accessors, so they serve as an
executable specification:

* the differential tests (``tests/test_scheduler_equivalence.py``) run
  each optimized policy and its reference twin on identical workloads
  and assert bit-identical dispatch sequences and statistics;
* the microbenchmark harness (``benchmarks/perf/hotpath.py``) measures
  the select()-throughput gap between the two, which is the speedup the
  indexed hot path buys.

Reference policies are intentionally *not* registered in the scheduler
registry; build them directly and pass the instance to
:func:`repro.run_simulation` (or ``build_system``) via the ``scheduler``
argument.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.core.buffer import PendingWalkBuffer
from repro.core.request import WalkBufferEntry
from repro.core.schedulers import WalkScheduler
from repro.core.zoo import IRUScheduler, MosaicScheduler, WaSPScheduler


class NaiveAgingPolicy:
    """The original per-entry bypass accounting (O(n) per dispatch)."""

    def __init__(self, threshold: int) -> None:
        if threshold <= 0:
            raise ValueError("aging threshold must be positive")
        self.threshold = threshold
        self.promotions = 0

    def record_bypasses(
        self, entries, dispatched: WalkBufferEntry
    ) -> None:
        seq = dispatched.arrival_seq
        for entry in entries:
            if entry.arrival_seq < seq:
                entry.bypass_count += 1

    def starving(self, entries) -> Optional[WalkBufferEntry]:
        victim: Optional[WalkBufferEntry] = None
        for entry in entries:
            if entry.bypass_count >= self.threshold:
                if victim is None or entry.arrival_seq < victim.arrival_seq:
                    victim = entry
        if victim is not None:
            self.promotions += 1
        return victim


def naive_oldest(buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
    """First entry in arrival order, by linear iteration."""
    for entry in buffer:
        return entry
    return None


def naive_oldest_for_instruction(
    buffer: PendingWalkBuffer, instruction_id: int
) -> Optional[WalkBufferEntry]:
    """Oldest entry of an instruction, by linear iteration."""
    for entry in buffer:
        if entry.instruction_id == instruction_id:
            return entry
    return None


def naive_min_score_entry(buffer: PendingWalkBuffer) -> WalkBufferEntry:
    """The original shortest-job-first scan."""
    return min(buffer, key=lambda e: (buffer.score_of(e), e.arrival_seq))


class NaiveSJFScheduler(WalkScheduler):
    """Reference twin of :class:`repro.core.schedulers.SJFScheduler`."""

    name = "sjf-ref"
    needs_scores = True
    aging_class = NaiveAgingPolicy

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        if buffer.is_empty:
            return None
        starving = self.aging.starving(buffer)
        if starving is not None:
            choice = starving
        else:
            choice = naive_min_score_entry(buffer)
        self.aging.record_bypasses(buffer, choice)
        return choice


class NaiveBatchScheduler(WalkScheduler):
    """Reference twin of :class:`repro.core.schedulers.BatchScheduler`."""

    name = "batch-ref"
    _last_instruction: Optional[int] = None

    def note_dispatch(self, entry: WalkBufferEntry) -> None:
        self._last_instruction = entry.instruction_id

    def resync(self, buffer: PendingWalkBuffer) -> None:
        """Retire the batch pointer once its instruction has drained."""
        if (
            self._last_instruction is not None
            and naive_oldest_for_instruction(buffer, self._last_instruction)
            is None
        ):
            self._last_instruction = None

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        if buffer.is_empty:
            return None
        if self._last_instruction is not None:
            same = naive_oldest_for_instruction(buffer, self._last_instruction)
            if same is not None:
                self.note_dispatch(same)
                return same
        choice = naive_oldest(buffer)
        assert choice is not None
        self.note_dispatch(choice)
        return choice


class NaiveSIMTAwareScheduler(WalkScheduler):
    """Reference twin of :class:`repro.core.schedulers.SIMTAwareScheduler`."""

    name = "simt-ref"
    needs_scores = True
    aging_class = NaiveAgingPolicy
    _last_instruction: Optional[int] = None
    batch_hits = 0
    sjf_picks = 0

    def note_dispatch(self, entry: WalkBufferEntry) -> None:
        self._last_instruction = entry.instruction_id

    def resync(self, buffer: PendingWalkBuffer) -> None:
        """Retire the batch pointer once its instruction has drained."""
        if (
            self._last_instruction is not None
            and naive_oldest_for_instruction(buffer, self._last_instruction)
            is None
        ):
            self._last_instruction = None

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        if buffer.is_empty:
            return None
        choice = self.aging.starving(buffer)
        if choice is None and self._last_instruction is not None:
            choice = naive_oldest_for_instruction(buffer, self._last_instruction)
            if choice is not None:
                self.batch_hits += 1
        if choice is None:
            choice = naive_min_score_entry(buffer)
            self.sjf_picks += 1
        self.aging.record_bypasses(buffer, choice)
        self.note_dispatch(choice)
        return choice


class NaiveFairShareScheduler(WalkScheduler):
    """Reference twin of :class:`repro.core.schedulers.FairShareScheduler`."""

    name = "fairshare-ref"
    needs_scores = True
    aging_class = NaiveAgingPolicy
    _last_instruction: Optional[int] = None

    def __init__(self, **knobs) -> None:
        super().__init__(**knobs)
        self.attained_service: Dict[int, int] = {}

    def note_dispatch(self, entry: WalkBufferEntry) -> None:
        self._last_instruction = entry.instruction_id
        self.attained_service[entry.app_id] = (
            self.attained_service.get(entry.app_id, 0)
            + max(1, entry.estimated_accesses)
        )

    def resync(self, buffer: PendingWalkBuffer) -> None:
        """Retire the batch pointer once its instruction has drained."""
        if (
            self._last_instruction is not None
            and naive_oldest_for_instruction(buffer, self._last_instruction)
            is None
        ):
            self._last_instruction = None

    def select(self, buffer: PendingWalkBuffer) -> Optional[WalkBufferEntry]:
        if buffer.is_empty:
            return None
        choice = self.aging.starving(buffer)
        if choice is None and self._last_instruction is not None:
            choice = naive_oldest_for_instruction(buffer, self._last_instruction)
        if choice is None:
            pending_apps = {entry.app_id for entry in buffer}
            neediest = min(
                pending_apps, key=lambda app: self.attained_service.get(app, 0)
            )
            choice = min(
                (entry for entry in buffer if entry.app_id == neediest),
                key=lambda e: (buffer.score_of(e), e.arrival_seq),
            )
        self.aging.record_bypasses(buffer, choice)
        self.note_dispatch(choice)
        return choice


class NaiveWaSPScheduler(NaiveSIMTAwareScheduler):
    """Reference twin of :class:`repro.core.zoo.WaSPScheduler`.

    Selection is the naive SIMT-aware scan; the walk-prefetch machinery
    lives in the IOMMU and is driven purely by the ``prefetch_distance``
    class attribute, read from the optimized twin.
    """

    name = "wasp-ref"
    prefetch_distance = WaSPScheduler.prefetch_distance


class NaiveIRUScheduler(NaiveSJFScheduler):
    """Reference twin of :class:`repro.core.zoo.IRUScheduler`.

    Selection is the naive SJF scan; the reorder/coalesce window lives
    in the IOMMU and is driven by the class attributes below, read from
    the optimized twin.
    """

    name = "iru-ref"
    reorder_window_cycles = IRUScheduler.reorder_window_cycles
    coalesce_pending = IRUScheduler.coalesce_pending


class NaiveMosaicScheduler(NaiveSIMTAwareScheduler):
    """Reference twin of :class:`repro.core.zoo.MosaicScheduler`.

    Selection is the naive SIMT-aware scan; the 2 MB promotion/demotion
    machinery lives in the IOMMU and is driven by the class attributes
    below, read from the optimized twin.
    """

    name = "mosaic-ref"
    promote_threshold = MosaicScheduler.promote_threshold
    region_tlb_entries = MosaicScheduler.region_tlb_entries


#: Reference twin per registry name (policies whose select differs from
#: the optimized implementation only in algorithmic complexity; fcfs and
#: random were already index-free and have no twin).  The zoo twins also
#: carry the optimized classes' IOMMU-side knobs (prefetch distance,
#: reorder window, region TLB) so the differential runs exercise the
#: full family, not just the select loop.
REFERENCE_FACTORIES = {
    "sjf": NaiveSJFScheduler,
    "batch": NaiveBatchScheduler,
    "simt": NaiveSIMTAwareScheduler,
    "fairshare": NaiveFairShareScheduler,
    "wasp": NaiveWaSPScheduler,
    "iru": NaiveIRUScheduler,
    "mosaic": NaiveMosaicScheduler,
}


def make_reference_scheduler(name: str, **kwargs) -> WalkScheduler:
    """Instantiate the naive reference twin of a registered policy.

    ``kwargs`` are the ``seed`` and ``aging_threshold`` that
    :func:`~repro.core.schedulers.make_scheduler` takes.
    """
    try:
        cls = REFERENCE_FACTORIES[name]
    except KeyError:
        raise ValueError(
            f"no reference implementation for {name!r}; "
            f"available: {', '.join(sorted(REFERENCE_FACTORIES))}"
        ) from None
    return cls(**kwargs)
