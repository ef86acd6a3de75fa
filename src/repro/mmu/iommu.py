"""The IOMMU: the CPU-complex component that services GPU translation needs.

Follows the paper's §II-B structure: two small TLB levels, a pending-walk
buffer, a pool of independent page-table walkers, page walk caches — and,
the paper's contribution, a pluggable scheduler that picks which pending
walk a freed walker services next.

Life of a request inside the IOMMU (paper steps 5–9):

5. Look up the IOMMU L1 then L2 TLB; a hit replies immediately.
6. On a miss the request becomes (or coalesces onto) a pending walk in
   the IOMMU buffer.  If the scheduler needs scores, the request is
   scored against the PWCs (action 1-a) and its instruction's aggregate
   score updated (1-b).
7. An idle walker takes a new arrival directly; otherwise the scheduler
   selects among buffered walks whenever a walker frees up (2-a).
8. The walker probes the PWCs and performs the remaining 1–4 sequential
   page-table reads (2-b).
9. The leaf translation fills the IOMMU TLBs and is returned to the GPU.

When the buffer is full, arrivals wait in a FIFO overflow queue — the
scheduler's lookahead is exactly the buffer capacity (Fig 14 sweeps it).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Deque, Dict, List, Optional

from repro.config import IOMMUConfig
from repro.core.buffer import PendingWalkBuffer
from repro.core.request import (
    PREFETCH_WAVEFRONT,
    TranslationRequest,
    WalkBufferEntry,
)
from repro.core.schedulers import WalkScheduler, make_scheduler
from repro.engine.simulator import Simulator
from repro.mmu.geometry import BASE_4K, PageGeometry
from repro.mmu.page_table import PageTable
from repro.mmu.pwc import PageWalkCache
from repro.mmu.tlb import TLB
from repro.mmu.walker import PageTableWalker


class IOMMU:
    """Services GPU TLB misses by walking the shared x86-64 page table."""

    def __init__(
        self,
        simulator: Simulator,
        config: IOMMUConfig,
        page_table: PageTable,
        page_table_read: Callable[[int, tuple], None],
        scheduler: Optional[WalkScheduler] = None,
        geometry: PageGeometry = BASE_4K,
        injector=None,
        tracer=None,
    ) -> None:
        self._sim = simulator
        self.config = config
        self._page_table = page_table
        self.geometry = geometry
        #: Optional :class:`~repro.resilience.faults.FaultInjector`; the
        #: watchdog reads its stats into deadlock diagnoses.
        self.injector = injector
        #: Optional :class:`~repro.obs.trace.Tracer`; None keeps every
        #: emitter off the hot path.
        self.tracer = tracer
        self.l1_tlb = TLB(config.l1_tlb, name="iommu_l1_tlb")
        self.l2_tlb = TLB(config.l2_tlb, name="iommu_l2_tlb")
        self.pwc = PageWalkCache(config.pwc, geometry=geometry)
        if tracer is not None:
            self.l1_tlb.attach_tracer(tracer, simulator)
            self.l2_tlb.attach_tracer(tracer, simulator)
            self.pwc.attach_tracer(tracer, simulator)
        self.scheduler = scheduler or make_scheduler(
            config.scheduler,
            seed=config.scheduler_seed,
            aging_threshold=config.aging_threshold,
        )
        # The buffer builds each optional index on the first query that
        # needs it, so a policy pays only for the indexes it reads.
        self.buffer = PendingWalkBuffer(config.buffer_entries)
        self.walkers: List[PageTableWalker] = [
            PageTableWalker(
                i, simulator, page_table, self.pwc, page_table_read,
                injector=injector, tracer=tracer,
            )
            for i in range(config.num_walkers)
        ]
        self._overflow: Deque[TranslationRequest] = deque()
        self._scan_in_progress = False

        # --- Scheduler-zoo knobs, read off the policy instance ---------
        # WaSP: distance-ahead walk prefetch.  The legacy
        # ``prefetch_next_page`` flag is the distance-1 case, so the two
        # mechanisms share one code path (and stay bit-identical).
        self._prefetch_distance = max(
            int(getattr(self.scheduler, "prefetch_distance", 0) or 0),
            1 if config.prefetch_next_page else 0,
        )
        # IRU: arriving misses stage here for ``reorder_window_cycles``
        # and are admitted to the pending buffer sorted by
        # (instruction, page), coalescing against pending walks.
        self._iru_window = int(
            getattr(self.scheduler, "reorder_window_cycles", 0) or 0
        )
        self._iru_staging: List[TranslationRequest] = []
        self._coalesce_pending = bool(
            getattr(self.scheduler, "coalesce_pending", False)
        )
        # Mosaic: promote a 2 MB region into the region TLB once enough
        # distinct base pages inside it have been walked.  Meaningless
        # when the geometry already maps 2 MB units, so it disables.
        self._region_shift = max(0, 21 - geometry.page_shift)
        self._promote_threshold = (
            int(getattr(self.scheduler, "promote_threshold", 0) or 0)
            if self._region_shift
            else 0
        )
        self._region_tlb_entries = (
            int(getattr(self.scheduler, "region_tlb_entries", 0) or 0)
            if self._promote_threshold
            else 0
        )
        #: region -> distinct walked base-page VPNs (promotion candidates).
        self._region_pages: Dict[int, set] = {}
        #: Promoted regions, LRU-ordered (oldest first).
        self._region_tlb: "OrderedDict[int, bool]" = OrderedDict()
        self.region_hits = 0
        self.promotions = 0
        self.demotions = 0
        #: Walkers currently holding a walk — a conservative guard that
        #: lets :meth:`_idle_walker` answer "all busy" in O(1) instead
        #: of scanning the pool (the hot case under load).
        self._busy_walkers = 0
        #: Walks currently being serviced by a walker, keyed by VPN (a
        #: list: same-page walks from different instructions may be in
        #: flight concurrently when coalescing is disabled).
        self._walking: Dict[int, List[WalkBufferEntry]] = {}
        self._dispatch_seq = 0

        # Statistics.
        self.requests = 0
        self.tlb_hits = 0
        self.walks_dispatched = 0
        self.overflow_peak = 0
        self.coalesced_inflight = 0
        self.prefetch_walks = 0
        #: Walk latency breakdown: cycles spent queued in the buffer vs
        #: being serviced by a walker (demand walks only).
        self.total_queue_wait = 0
        self.total_service_time = 0
        #: Cycles requests spent in the FIFO overflow queue before
        #: reaching the pending buffer (the ``enqueue_wait`` attribution
        #: stage), accumulated as each overflowed request drains.
        self.total_overflow_wait = 0
        #: instruction_id -> list of walker-dispatch sequence numbers, for
        #: the interleaving metric (paper Fig 5).
        self.dispatches_by_instruction: Dict[int, List[int]] = {}

        #: Reply sink, called as ``reply_to(request, pfn)`` for every
        #: completed translation.  The GPU sets it once at construction —
        #: a bound method, so it pickles with the system.
        self.reply_to: Optional[Callable[[TranslationRequest, int], None]] = None

        simulator.register("iommu.reply", self._reply)
        simulator.register("iommu.finish_scan", self._finish_scan)
        simulator.register("iommu.kick", self.resume_walkers)
        simulator.register("iommu.iru_flush", self._iru_flush)

    # ------------------------------------------------------------------
    # Request entry point
    # ------------------------------------------------------------------

    def translate(self, request: TranslationRequest) -> None:
        """Handle a translation request arriving from the GPU (step 5)."""
        self.requests += 1
        request.iommu_arrival_time = self._sim._now

        pfn = self.l1_tlb.lookup(request.vpn)
        if pfn is None:
            pfn = self.l2_tlb.lookup(request.vpn)
            if pfn is not None:
                self.l1_tlb.insert(request.vpn, pfn)
        if pfn is not None:
            self.tlb_hits += 1
            self._sim.post(
                self.config.tlb_hit_latency, "iommu.reply", request, pfn, 0
            )
            return
        if self._region_tlb_entries and self._region_hit(request):
            return
        self._handle_tlb_miss(request)

    def _region_hit(self, request: TranslationRequest) -> bool:
        """Mosaic region-TLB probe: a promoted 2 MB entry covers the page.

        A hit bypasses the walk machinery entirely — the region's leaf
        mapping resolves any base page inside it, so the reply costs one
        TLB-hit latency and no walker.  Returns True when it hit.
        """
        region = request.vpn >> self._region_shift
        if region not in self._region_tlb:
            return False
        self._region_tlb.move_to_end(region)
        self.region_hits += 1
        pfn = self._page_table.translate(request.vpn)
        self._sim.post(
            self.config.tlb_hit_latency, "iommu.reply", request, pfn, 0
        )
        return True

    def _handle_tlb_miss(self, request: TranslationRequest) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.cat_walk:
            tracer.walk_created(
                self._sim._now, request.vpn, request.instruction_id,
                request.wavefront_id,
            )
        if self._try_coalesce(request):
            return
        if self._iru_window:
            # IRU: hold the miss in the reorder window; the flush event
            # admits the whole batch sorted by (instruction, page).
            self._iru_staging.append(request)
            if len(self._iru_staging) == 1:
                self._sim.post(self._iru_window, "iommu.iru_flush")
            return
        self._admit(request)

    def _iru_flush(self) -> None:
        """Admit the staged reorder-window batch (IRU policies only).

        Sorting by (instruction, page) makes divergent bursts enter the
        buffer contiguous per instruction, and the re-run coalescing
        check merges same-page requests that arrived apart — the unit's
        job-shrinking step, after which plain SJF does the scheduling.
        """
        staged, self._iru_staging = self._iru_staging, []
        staged.sort(key=lambda r: (r.instruction_id, r.vpn))
        for request in staged:
            if self._try_coalesce(request):
                continue
            self._admit(request)

    def _admit(self, request: TranslationRequest) -> None:
        # A new walk is needed.  An idle walker takes it immediately
        # (which implies the buffer is empty — walkers never idle while
        # work is buffered).
        idle = self._idle_walker()
        if idle is not None:
            entry = WalkBufferEntry(
                request, arrival_seq=-1, arrival_time=self._sim._now
            )
            if self.scheduler.needs_scores:
                # Keep the instruction's aggregate score complete even
                # for walks that bypass the buffer.
                accesses, pinned = self.pwc.score(request.vpn)
                entry.pinned_levels = pinned
                self.buffer.account_direct_dispatch(
                    entry.instruction_id, accesses
                )
            self._dispatch(idle, entry)
            return
        if self.buffer.is_full:
            self._overflow.append(request)
            self.overflow_peak = max(self.overflow_peak, len(self._overflow))
            return
        self._buffer_request(request)

    def _try_coalesce(self, request: TranslationRequest) -> bool:
        """MSHR-style merge with an in-flight or pending same-page walk.

        An optional extension beyond the paper's design (see
        ``IOMMUConfig.coalesce_walks``).  Returns True when merged.
        """
        mode = self.config.coalesce_walks
        if mode == "off":
            return False
        walking = self._walking.get(request.vpn)
        if walking:
            walking[0].attach(request)
            self.coalesced_inflight += 1
            return True
        if mode == "full" or self._coalesce_pending:
            # "full" always merges with pending walks; IRU policies opt
            # in even under "inflight" (their reorder unit's job is to
            # shrink buffered jobs before the scheduler sees them).
            pending = self.buffer.find_by_vpn(request.vpn)
            if pending is not None:
                self.buffer.attach(pending, request)
                return True
        return False

    def _buffer_request(self, request: TranslationRequest) -> None:
        now = self._sim._now
        if self.scheduler.needs_scores:
            estimate, pinned = self.pwc.score(request.vpn)
            entry = self.buffer.add(request, now, estimate)
            entry.pinned_levels = pinned
        else:
            # A policy that reads no scores leaves the score table
            # alone: no estimate in, no complete_walk owed.
            estimate = 0
            self.buffer.add(request, now)
        tracer = self.tracer
        if tracer is not None:
            if tracer.cat_walk:
                tracer.walk_enqueued(
                    now, request.vpn, request.instruction_id, estimate
                )
            if tracer.cat_counter:
                tracer.counter(now, "pending_walks", len(self.buffer))

    # ------------------------------------------------------------------
    # Walker management
    # ------------------------------------------------------------------

    def _idle_walker(self) -> Optional[PageTableWalker]:
        # Every walker holding a walk is busy regardless of stall state,
        # so a full pool means no scan.  (The count cannot tell a merely
        # *stalled* walker apart, so a partial pool still scans — with
        # the same first-free-index selection as always.)
        if self._busy_walkers >= self.config.num_walkers:
            return None
        now = self._sim._now
        for walker in self.walkers:
            if walker._current is None and now >= walker.stalled_until:
                return walker
        return None

    def _dispatch(self, walker: PageTableWalker, entry: WalkBufferEntry) -> None:
        self._busy_walkers += 1
        now = entry.dispatch_time = self._sim._now
        seq = entry.dispatch_seq = self._dispatch_seq
        self._dispatch_seq = seq + 1
        if entry.is_prefetch:
            self.prefetch_walks += 1
        else:
            self.walks_dispatched += 1
            self.dispatches_by_instruction.setdefault(
                entry.instruction_id, []
            ).append(seq)
            if entry.arrival_seq == -1:
                # Direct dispatch bypassed the scheduler; let it observe
                # the instruction for batching continuity.
                self.scheduler.note_dispatch(entry)
        self._walking.setdefault(entry.vpn, []).append(entry)
        tracer = self.tracer
        if tracer is not None:
            if tracer.cat_walk:
                tracer.walk_scheduled(
                    now, entry.vpn, entry.instruction_id,
                    entry.arrival_time, walker.walker_id, seq,
                )
            if tracer.cat_counter:
                tracer.counter(now, "pending_walks", len(self.buffer))
        walker.start(entry, self._walk_complete)

    def _walk_complete(
        self, walker: PageTableWalker, entry: WalkBufferEntry, pfn: int, accesses: int
    ) -> None:
        self._busy_walkers -= 1
        vpn = entry.vpn
        in_flight = self._walking[vpn]
        in_flight.remove(entry)
        if not in_flight:
            del self._walking[vpn]
        now = self._sim._now
        prefetch = entry.is_prefetch
        if not prefetch:
            if self.scheduler.needs_scores:
                self.buffer.complete_walk(entry.instruction_id)
            if entry.dispatch_time is not None:
                self.total_queue_wait += entry.dispatch_time - entry.arrival_time
                self.total_service_time += now - entry.dispatch_time
        tracer = self.tracer
        if tracer is not None and tracer.cat_walk:
            tracer.walk_completed(now, vpn, entry.instruction_id, accesses)
        self.l2_tlb.insert(vpn, pfn)
        if prefetch:
            # Prefetched translations stay in the (larger) L2 TLB until
            # demanded.  Demand requests that coalesced onto the prefetch
            # while it was in flight still get their replies.
            replies = entry.requests[1:]
        else:
            self.l1_tlb.insert(vpn, pfn)
            if self._promote_threshold:
                self._note_region_walk(vpn)
            replies = entry.requests
        for request in replies:
            self._reply(request, pfn, accesses)
        if self._overflow:
            self._drain_overflow()
        self._schedule_next()
        if not prefetch:
            # WaSP-style distance-ahead walk prefetch (distance 1 is the
            # legacy ``prefetch_next_page`` behaviour).  Each step
            # re-checks for an idle walker, so demand traffic still
            # always wins.
            for step in range(1, self._prefetch_distance + 1):
                self._maybe_prefetch(vpn + step)

    def _note_region_walk(self, vpn: int) -> None:
        """Mosaic promotion bookkeeping after a demand walk completes.

        Counts distinct base pages walked per 2 MB region; a region
        crossing the threshold is promoted into the region TLB, and an
        LRU capacity eviction there is a demotion — so under contention
        only the hottest regions stay mapped large.
        """
        region = vpn >> self._region_shift
        if region in self._region_tlb:
            self._region_tlb.move_to_end(region)
            return
        pages = self._region_pages.setdefault(region, set())
        pages.add(vpn)
        if len(pages) < self._promote_threshold:
            return
        del self._region_pages[region]
        self._region_tlb[region] = True
        self.promotions += 1
        while len(self._region_tlb) > self._region_tlb_entries:
            self._region_tlb.popitem(last=False)
            self.demotions += 1

    def _drain_overflow(self) -> None:
        """Move overflowed requests into freed buffer slots (FIFO)."""
        while self._overflow and not self.buffer.is_full:
            request = self._overflow.popleft()
            self.total_overflow_wait += (
                self._sim._now - request.iommu_arrival_time
            )
            # Re-run the coalescing check: the landscape may have changed
            # while the request sat in the overflow queue.
            if self._try_coalesce(request):
                continue
            self._buffer_request(request)

    def _schedule_next(self) -> None:
        """Hand pending walks to idle walkers via the scheduler (2-a).

        When ``scan_latency_cycles`` is non-zero, each selection occupies
        the scheduler for that long before its walk dispatches (the
        hardware scan of the pending buffer).
        """
        scan_latency = (
            self.config.scan_latency_cycles if self.scheduler.requires_scan else 0
        )
        while not self.buffer.is_empty:
            walker = self._idle_walker()
            if walker is None:
                return
            if scan_latency > 0:
                if self._scan_in_progress:
                    return
                self._scan_in_progress = True
                self._sim.post(scan_latency, "iommu.finish_scan")
                return
            entry = self.scheduler.select(self.buffer)
            if entry is None:
                return
            self.buffer.remove(entry)
            self.scheduler.resync(self.buffer)
            self._dispatch(walker, entry)
            if self._overflow:
                self._drain_overflow()

    def _finish_scan(self) -> None:
        """Complete one delayed scheduler scan and dispatch its pick."""
        self._scan_in_progress = False
        walker = self._idle_walker()
        if walker is None or self.buffer.is_empty:
            return
        entry = self.scheduler.select(self.buffer)
        if entry is None:
            return
        self.buffer.remove(entry)
        self.scheduler.resync(self.buffer)
        self._dispatch(walker, entry)
        if self._overflow:
            self._drain_overflow()
        self._schedule_next()

    def _maybe_prefetch(self, vpn: int) -> None:
        """Walk ``vpn`` opportunistically on an idle walker (extension).

        Demand traffic always wins: a prefetch is issued only when no
        pending demand walk exists and a walker would otherwise idle.
        """
        walker = self._idle_walker()
        if (
            walker is None
            or not self.buffer.is_empty
            or self._overflow
            or self._iru_staging
        ):
            return
        # The buffer is empty here, so only an in-flight walk can
        # already be fetching this page.
        if vpn in self._walking:
            return
        if self.l2_tlb.probe(vpn) or self.l1_tlb.probe(vpn):
            return
        now = self._sim._now
        request = TranslationRequest(
            vpn=vpn,
            instruction_id=0,
            wavefront_id=PREFETCH_WAVEFRONT,
            cu_id=-1,
            issue_time=now,
        )
        entry = WalkBufferEntry(request, arrival_seq=-1, arrival_time=now)
        self._dispatch(walker, entry)

    def resume_walkers(self) -> None:
        """Re-kick scheduling after an external walker state change.

        Fault injection stalls walkers on a timer; when a stall lifts
        there may be buffered work but no in-flight completion left to
        trigger :meth:`_schedule_next`, so the injector pokes this.
        """
        self._drain_overflow()
        self._schedule_next()

    # ------------------------------------------------------------------
    # Introspection and invariants (watchdog / resilience support)
    # ------------------------------------------------------------------

    @property
    def overflow_queued(self) -> int:
        """Requests waiting in the FIFO overflow queue right now."""
        return len(self._overflow)

    def in_flight_entries(self) -> List[WalkBufferEntry]:
        """Every walk currently owned by a walker (including wedged ones)."""
        return [entry for entries in self._walking.values() for entry in entries]

    def walks_completed(self) -> int:
        """Walks (demand + prefetch) whose completion was delivered."""
        return sum(walker.walks_completed for walker in self.walkers)

    def check_conservation(self) -> List[str]:
        """Verify no walk has been lost; returns violation descriptions.

        The load-bearing invariant is ``dispatched == completed + in
        flight``: it holds at every event boundary, under coalescing,
        prefetching, delayed completions and wedged walkers alike.  A
        violation means the model silently dropped or double-counted a
        walk — the class of bug that otherwise surfaces cycles later as
        an inexplicable hang.
        """
        violations: List[str] = []
        dispatched = self.walks_dispatched + self.prefetch_walks
        completed = self.walks_completed()
        in_flight = sum(len(entries) for entries in self._walking.values())
        if dispatched != completed + in_flight:
            violations.append(
                f"walk conservation: dispatched={dispatched} != "
                f"completed={completed} + in_flight={in_flight}"
            )
        if len(self.buffer) > self.buffer.capacity:
            violations.append(
                f"buffer over capacity: {len(self.buffer)} > {self.buffer.capacity}"
            )
        if self._overflow and not self.buffer.is_full:
            violations.append(
                f"overflow queue holds {len(self._overflow)} requests "
                f"while the buffer has free slots"
            )
        for walker in self.walkers:
            current = walker.current_entry
            if current is not None and current not in self._walking.get(
                current.vpn, []
            ):
                violations.append(
                    f"walker {walker.walker_id} holds vpn={current.vpn:#x} "
                    f"missing from the in-flight index"
                )
        return violations

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def _reply(self, request: TranslationRequest, pfn: int, walk_accesses: int) -> None:
        request.walk_accesses = walk_accesses
        self.reply_to(request, pfn)

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def interleaved_instruction_fraction(self) -> float:
        """Fraction of multi-walk instructions whose walk dispatches were
        interleaved with dispatches from other instructions (Fig 5)."""
        interleaved = 0
        eligible = 0
        for seqs in self.dispatches_by_instruction.values():
            if len(seqs) < 2:
                continue
            eligible += 1
            if max(seqs) - min(seqs) + 1 > len(seqs):
                interleaved += 1
        return interleaved / eligible if eligible else 0.0

    def stats(self) -> Dict[str, object]:
        data = {
            "requests": self.requests,
            "tlb_hits": self.tlb_hits,
            "walks_dispatched": self.walks_dispatched,
            "walks_completed": self.walks_completed(),
            "interleaved_fraction": self.interleaved_instruction_fraction(),
            "l1_tlb": self.l1_tlb.stats(),
            "l2_tlb": self.l2_tlb.stats(),
            "pwc": self.pwc.stats(),
            "buffer_peak": self.buffer.peak_occupancy,
            "overflow_peak": self.overflow_peak,
            "coalesced": self.buffer.total_coalesced + self.coalesced_inflight,
            "prefetch_walks": self.prefetch_walks,
            "avg_queue_wait": (
                self.total_queue_wait / self.walks_dispatched
                if self.walks_dispatched
                else 0.0
            ),
            "avg_walk_service": (
                self.total_service_time / self.walks_dispatched
                if self.walks_dispatched
                else 0.0
            ),
        }
        if self._region_tlb_entries:
            # Gated so the stats dict (and every golden pinned to it)
            # is unchanged for non-Mosaic policies.
            data["mosaic"] = {
                "region_hits": self.region_hits,
                "promotions": self.promotions,
                "demotions": self.demotions,
                "region_tlb_occupancy": len(self._region_tlb),
            }
        return data
