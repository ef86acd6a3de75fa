"""Hardware page-table walker model.

A walker services one walk at a time: it looks up the page walk caches
to find the deepest cached level, then performs the remaining one to four
*sequential* page-table reads (each level's entry holds the address of
the next level's table, so the reads cannot overlap).  On completion it
installs the discovered upper-level entries into the PWCs and hands the
leaf translation back to the IOMMU.

The walk is a data-driven state machine: the remaining PTE addresses
live in walker fields (not a closure chain), and each memory read
completes into a per-walker event kind (``walker.<id>.step``), so an
in-progress walk serialises cleanly into a checkpoint and resumes
mid-read.

Fault injection (``repro.resilience``) taps two points here: a
completion may be *delayed* (the walker holds its result — and stays
busy — for extra cycles) or *dropped* (the walker wedges and the
completion signal is lost, manufacturing a diagnosable deadlock).  A
walker may also be *stalled*: ``stalled_until`` makes it refuse new
dispatches without affecting a walk already in progress.
"""

from __future__ import annotations

from typing import Any, Callable, Optional, Tuple

from repro.core.request import WalkBufferEntry
from repro.engine.simulator import Simulator
from repro.mmu.page_table import PageTable
from repro.mmu.pwc import PageWalkCache

#: ``on_complete(walker, entry, pfn, accesses)``
WalkCompletion = Callable[["PageTableWalker", WalkBufferEntry, int, int], None]


class PageTableWalker:
    """One independent walker in the IOMMU's walker pool."""

    def __init__(
        self,
        walker_id: int,
        simulator: Simulator,
        page_table: PageTable,
        pwc: PageWalkCache,
        page_table_read: Callable[[int, Any], None],
        injector=None,
        tracer=None,
    ) -> None:
        self.walker_id = walker_id
        self._sim = simulator
        self._page_table = page_table
        self._pwc = pwc
        self._page_table_read = page_table_read
        #: Optional :class:`~repro.resilience.faults.FaultInjector`.
        self._injector = injector
        #: Optional :class:`~repro.obs.trace.Tracer`.
        self._tracer = tracer
        self._current: Optional[WalkBufferEntry] = None
        self.walks_completed = 0
        self.memory_accesses = 0
        self.busy_cycles = 0
        #: The walker refuses new dispatches until this cycle
        #: (fault injection: ``stall_walker``).
        self.stalled_until = 0
        #: True once a completion was dropped — the walker is wedged for
        #: the rest of the run (fault injection: ``drop_walk_completion``).
        self.wedged = False
        self._walk_start = 0
        #: The current walk's root-to-leaf ``(level, address)`` path and
        #: how many of its deepest reads are still to issue (the one in
        #: flight excluded — its completion event is already queued).
        #: Levels ride along so read spans can attribute cycles per
        #: page-table level.
        self._path: Tuple[Tuple[int, int], ...] = ()
        self._reads_left = 0
        self._total_accesses = 0
        #: Cycles completions spent held back by delay faults (the
        #: ``deliver_hold`` attribution stage), counted always-on.
        self.held_cycles = 0
        self._finish_time = 0
        # In-flight read bookkeeping for walk_read spans (cat "walk"
        # tracing only; ``_read_issue`` is -1 when no read is tracked).
        self._read_issue = -1
        self._read_level = 0
        self._read_address = 0
        #: DRAM timing receipt captured at issue (reservation model);
        #: the queued controller leaves it None and supplies the receipt
        #: at completion instead (see ``Tracer.last_dram_access``).
        self._read_meta: Optional[Tuple[int, int, int, bool]] = None
        #: Completion sink, set by the owning IOMMU (a bound method, so it
        #: pickles with the system).
        self._on_complete: Optional[WalkCompletion] = None
        self._step_kind = f"walker.{walker_id}.step"
        self._deliver_kind = f"walker.{walker_id}.deliver"
        #: Reused completion target for every page-table read this
        #: walker issues (the payload never varies).
        self._step_event = (self._step_kind,)
        simulator.register(self._step_kind, self._issue_next)
        simulator.register(self._deliver_kind, self._deliver_pending)

    @property
    def is_busy(self) -> bool:
        return self._current is not None or self._sim.now < self.stalled_until

    @property
    def current_entry(self) -> Optional[WalkBufferEntry]:
        return self._current

    def start(self, entry: WalkBufferEntry, on_complete: WalkCompletion) -> None:
        """Begin walking for ``entry``; ``on_complete`` fires when done."""
        if self._current is not None:
            raise RuntimeError(f"walker {self.walker_id} is already busy")
        self._current = entry
        self._walk_start = self._sim._now
        self._on_complete = on_complete

        accesses_needed = self._pwc.walk_lookup(entry.vpn, entry.pinned_levels)
        # The full root-to-leaf (level, address) list; a PWC hit skips
        # the upper levels, leaving only the deepest `accesses_needed`
        # reads.
        self._path = self._page_table.walk_addresses(entry.vpn)
        self._reads_left = accesses_needed
        self._total_accesses = accesses_needed
        self._read_issue = -1
        self._read_meta = None
        self._issue_next()

    def _issue_next(self) -> None:
        tracer = self._tracer
        if tracer is not None and tracer.cat_walk and self._read_issue >= 0:
            self._emit_read_span(tracer)
        reads_left = self._reads_left
        if not reads_left:
            self._finish()
            return
        level, address = self._path[-reads_left]
        self._reads_left = reads_left - 1
        self.memory_accesses += 1
        if tracer is not None:
            if tracer.cat_memory:
                tracer.ptw_read(self._sim._now, self.walker_id, address)
            if tracer.cat_walk:
                self._read_issue = self._sim._now
                self._read_level = level
                self._read_address = address
                # The reservation DRAM computes timing synchronously and
                # leaves a receipt during this call; the queued
                # controller leaves None and supplies it at completion.
                tracer.last_dram_access = None
                self._page_table_read(address, self._step_event)
                self._read_meta = tracer.last_dram_access
                return
        self._page_table_read(address, self._step_event)

    def _emit_read_span(self, tracer) -> None:
        """Close the just-completed read as a ``walk_read`` span.

        The span decomposes exactly: bank-queue wait, row access, and
        fault padding tile issue → now with no residue, whichever memory
        model produced the receipt.  A missing receipt (a custom
        page-table-read hook, as in unit tests) reports the whole span
        as row access with ``bank = -1``.
        """
        now = self._sim._now
        issue = self._read_issue
        self._read_issue = -1
        meta = self._read_meta
        if meta is None:
            meta = tracer.last_dram_access
        self._read_meta = None
        tracer.last_dram_access = None
        if meta is not None:
            service_start, done, bank, row_hit = meta
            bank_queue = service_start - issue
            row_access = done - service_start
            fault_pad = now - done
        else:
            bank, row_hit = -1, False
            bank_queue = 0
            row_access = now - issue
            fault_pad = 0
        entry = self._current
        tracer.walk_read(
            issue, now, self.walker_id, entry.vpn, entry.instruction_id,
            self._read_level, self._read_address, bank, bank_queue,
            row_access, fault_pad, bool(row_hit),
        )

    def _finish(self) -> None:
        entry = self._current
        accesses = self._total_accesses
        pfn = self._page_table.translate(entry.vpn)
        self._pwc.fill(entry.vpn)
        self._finish_time = now = self._sim._now
        if self._injector is not None:
            action, extra = self._injector.on_walk_completion(
                self.walker_id, entry, now
            )
            if action == "drop":
                # The completion signal is lost: the walker wedges with
                # the entry still attached, so the conservation invariant
                # (dispatched == completed + in flight) keeps holding and
                # the watchdog can name the stuck walk.
                self.wedged = True
                return
            if action == "delay" and extra > 0:
                # The deliver event carries the held-back result.
                self._sim.post(extra, self._deliver_kind, pfn, accesses)
                return
        self._deliver_pending(pfn, accesses)

    def _deliver_pending(self, pfn: int, accesses: int) -> None:
        entry = self._current
        now = self._sim._now
        self.walks_completed += 1
        self.busy_cycles += now - self._walk_start
        self.held_cycles += now - self._finish_time
        self._current = None
        tracer = self._tracer
        if tracer is not None and tracer.cat_walk:
            tracer.walk_span(
                self._walk_start, now, self.walker_id,
                entry.vpn, entry.instruction_id, accesses,
            )
        self._on_complete(self, entry, pfn, accesses)
