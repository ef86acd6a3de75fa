"""Wavefront execution: the SIMT lockstep state machine.

A wavefront issues SIMD memory instructions in order, one every
``issue_gap_cycles``, and may keep up to ``max_outstanding_memops`` of
them in flight (GPUs hide memory latency by issuing ahead until a
hardware limit or dependence stalls the wavefront).  An individual
instruction retires only when *every* coalesced access has both
translated and fetched its data — the lockstep property that makes the
latency of the *last* page walk, not the first, determine forward
progress (paper §III-B).

A wavefront is *blocked* (for CU stall accounting) while it cannot issue:
either its in-flight window is full or it has drained its trace but still
has instructions outstanding.

All deferred work is posted as tagged events (``wf.*`` kinds, bound by
the GPU to the ``Wavefront`` methods below) whose payload starts with the
wavefront itself, followed by plain data and the in-flight instruction
context — never closures — so a mid-run checkpoint can pickle the event
queue wholesale.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.core.request import TranslationRequest
from repro.gpu.coalescer import coalesce
from repro.mmu.geometry import PAGE_SHIFT

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpu.gpu import GPU


class InstructionRecord:
    """Per-dynamic-instruction statistics used by the paper's figures."""

    __slots__ = (
        "instruction_id",
        "wavefront_id",
        "issue_time",
        "complete_time",
        "num_pages",
        "num_lines",
        "walk_requests",
        "walk_latencies",
        "walk_accesses",
    )

    def __init__(
        self, instruction_id: int, wavefront_id: int, issue_time: int
    ) -> None:
        self.instruction_id = instruction_id
        self.wavefront_id = wavefront_id
        self.issue_time = issue_time
        self.complete_time: Optional[int] = None
        self.num_pages = 0
        self.num_lines = 0
        #: Translation requests that missed the GPU TLBs (sent to IOMMU).
        self.walk_requests = 0
        #: End-to-end latency of each IOMMU-serviced translation.
        self.walk_latencies: List[int] = []
        #: Total page-table memory accesses performed for this instruction.
        self.walk_accesses = 0

    @property
    def latency(self) -> Optional[int]:
        if self.complete_time is None:
            return None
        return self.complete_time - self.issue_time


class _InflightInstruction:
    """Execution context of one issued-but-unretired memory instruction.

    Instances travel inside event payloads; a checkpoint pickles the
    whole system in one pass, which preserves their shared identity
    across the several events that reference the same in-flight
    instruction.
    """

    __slots__ = ("record", "outstanding", "ready", "sequence")

    def __init__(self, record: InstructionRecord, outstanding: int) -> None:
        self.record = record
        #: What must still happen before the instruction retires: its
        #: translation units still to issue their data reads on the
        #: reservation DRAM model, its lines still to return on a queued
        #: controller.
        self.outstanding = outstanding
        #: The largest ``(ready, sequence)`` key among the units issued
        #: so far (reservation model only; see ``Wavefront._data_phase``).
        self.ready = -1
        self.sequence = -1


class Wavefront:
    """One wavefront executing a trace of SIMD memory instructions."""

    def __init__(
        self, wavefront_id: int, cu_id: int, trace, gpu: "GPU", app_id: int = 0
    ) -> None:
        self.wavefront_id = wavefront_id
        self.cu_id = cu_id
        self.app_id = app_id
        self._trace = trace
        self._gpu = gpu
        self._pc = 0
        self._outstanding = 0
        self._issue_pending = False
        self.done = False
        #: True while the wavefront cannot issue (for CU stall accounting).
        self.blocked = False

    # ------------------------------------------------------------------
    # Issue control
    # ------------------------------------------------------------------

    @property
    def _window_full(self) -> bool:
        return self._outstanding >= self._gpu.config.gpu.max_outstanding_memops

    def start(self) -> None:
        """Begin execution (wavefront just became resident, active)."""
        self._issue_now()

    def _set_blocked(self, blocked: bool) -> None:
        if blocked == self.blocked:
            return
        self.blocked = blocked
        cu = self._gpu.cus[self.cu_id]
        if blocked:
            cu.wavefront_blocked()
        else:
            cu.wavefront_unblocked()

    def _schedule_issue(self, delay: int) -> None:
        if self._issue_pending:
            return
        self._issue_pending = True
        self._gpu.sim.post(delay, "wf.issue", self)

    def _issue_now(self) -> None:
        self._issue_pending = False
        if self.done or self._pc >= len(self._trace):
            return
        if self._window_full:
            # Re-triggered from _instruction_complete when a slot frees.
            self._set_blocked(True)
            return
        self._issue_instruction(self._trace[self._pc])
        self._pc += 1
        if self._pc >= len(self._trace) or self._window_full:
            self._set_blocked(True)
        else:
            self._schedule_issue(self._gpu.config.gpu.issue_gap_cycles)

    # ------------------------------------------------------------------
    # One instruction
    # ------------------------------------------------------------------

    def _issue_instruction(self, lane_addresses) -> None:
        gpu = self._gpu
        record = InstructionRecord(
            instruction_id=gpu.next_instruction_id(),
            wavefront_id=self.wavefront_id,
            issue_time=gpu.sim._now,
        )
        gpu.instruction_records.append(record)

        access = coalesce(lane_addresses)
        record.num_pages = access.num_pages
        record.num_lines = num_lines = access.num_lines

        if num_lines == 0:
            # A no-op instruction (all lanes inactive): retires instantly
            # and never occupies an in-flight slot.
            record.complete_time = gpu.sim._now
            gpu.note_instruction_retired()
            return

        self._outstanding += 1
        # The coalescer's per-4KB-page line lists are the translation
        # units under 4 KB pages; under 2 MB large pages, 512 pages merge
        # per unit.
        units = access.lines_by_page
        unit_shift = gpu.geometry.page_shift - PAGE_SHIFT
        if unit_shift:
            units = {}
            for page_vpn, lines in access.lines_by_page.items():
                units.setdefault(page_vpn >> unit_shift, []).extend(lines)
        inflight = _InflightInstruction(
            record, num_lines if gpu.memory.dram is None else len(units)
        )
        # The coalescer/L1-TLB port handles a few unique pages per cycle,
        # so a divergent instruction's translation requests trickle out
        # over several cycles rather than appearing as one atomic burst.
        per_cycle = gpu.config.gpu.coalescer_pages_per_cycle
        post = gpu.sim.post
        for index, (vpn, lines) in enumerate(units.items()):
            post(index // per_cycle, "wf.xlate", self, vpn, lines, inflight)

    # ------------------------------------------------------------------
    # Translation (paper steps 3-4: GPU TLB hierarchy)
    # ------------------------------------------------------------------

    def _translate_page(
        self, vpn: int, lines: List[int], inflight: _InflightInstruction
    ) -> None:
        gpu = self._gpu
        if gpu.config.perfect_translation:
            # Oracle MMU: the mapping is free and immediate.  Used to
            # isolate translation overhead (paper §I motivation).
            self._data_phase(gpu.oracle_translate(vpn), lines, inflight)
            return
        cu = gpu.cus[self.cu_id]
        pfn = cu.l1_tlb.lookup(vpn)
        if pfn is not None:
            gpu.sim.post(
                gpu.config.gpu_l1_tlb.hit_latency, "wf.data", self, pfn, lines,
                inflight,
            )
            return
        # Miss: queue on the shared L2 TLB's single lookup port.  The
        # port wait multiplexes concurrent wavefronts' request streams.
        port_wait = gpu.l2_tlb_port_delay()
        gpu.sim.post(
            port_wait + gpu.config.gpu_l2_tlb.hit_latency, "wf.l2", self, vpn,
            lines, inflight,
        )

    def _l2_tlb_lookup(
        self, vpn: int, lines: List[int], inflight: _InflightInstruction
    ) -> None:
        gpu = self._gpu
        pfn = gpu.l2_tlb_lookup(vpn, self.wavefront_id)
        if pfn is not None:
            gpu.cus[self.cu_id].l1_tlb.insert(vpn, pfn)
            self._data_phase(pfn, lines, inflight)
            return
        record = inflight.record
        record.walk_requests += 1
        now = gpu.sim._now
        tracer = gpu.tracer
        if tracer is not None and tracer.cat_job:
            tracer.job_walk_issue(record.instruction_id, now)
        request = TranslationRequest(
            vpn=vpn,
            instruction_id=record.instruction_id,
            wavefront_id=self.wavefront_id,
            cu_id=self.cu_id,
            issue_time=now,
            app_id=self.app_id,
        )
        # The IOMMU replies through its ``reply_to`` sink (the GPU),
        # which recovers the continuation from this context.
        request.context = (self, lines, inflight)
        gpu.sim.post(
            gpu.config.iommu.request_latency, "iommu.xlate", request
        )

    def _iommu_reply(
        self,
        request: TranslationRequest,
        pfn: int,
        lines: List[int],
        inflight: _InflightInstruction,
    ) -> None:
        gpu = self._gpu
        response_latency = gpu.config.iommu.response_latency
        request.complete_time = gpu.sim._now + response_latency
        record = inflight.record
        record.walk_latencies.append(request.complete_time - request.issue_time)
        record.walk_accesses += request.walk_accesses
        tracer = gpu.tracer
        if tracer is not None and tracer.cat_job:
            tracer.job_walk_complete(record.instruction_id, request.complete_time)
        gpu.sim.post(
            response_latency, "wf.install", self, request.vpn, pfn, lines, inflight
        )

    def _install_and_access(
        self, vpn: int, pfn: int, lines: List[int], inflight: _InflightInstruction
    ) -> None:
        gpu = self._gpu
        gpu.l2_tlb.insert(vpn, pfn)
        gpu.cus[self.cu_id].l1_tlb.insert(vpn, pfn)
        self._data_phase(pfn, lines, inflight)

    # ------------------------------------------------------------------
    # Data access (physical caches — translation must precede access)
    # ------------------------------------------------------------------

    def _data_phase(
        self, pfn: int, lines: List[int], inflight: _InflightInstruction
    ) -> None:
        """Fetch the translation unit's lines.

        An instruction retires when the data of its last line returns
        (the lockstep rule), so on the reservation DRAM model, which
        knows when the unit's last line is ready, the unit only takes
        the sequence number its own completion event would take.  Once
        the instruction's last unit has issued, one ``wf.complete``
        event goes in at the largest ``(ready, sequence)`` of its units:
        it fires where the last per-unit completion would have fired.
        A queued controller returns each line in its own ``wf.line``
        event instead.
        """
        gpu = self._gpu
        page_shift = gpu.geometry.page_shift
        frame_base = pfn << page_shift
        offset_mask = (1 << page_shift) - 1
        ready = gpu.memory.data_access_batch(
            self.cu_id,
            [frame_base + (line_va & offset_mask) for line_va in lines],
            ("wf.line", self, inflight),
        )
        if ready < 0:
            return  # a queued controller: wf.line events count the lines
        sim = gpu.sim
        inflight.outstanding -= 1
        if inflight.outstanding:
            # Sequence numbers only grow, so on a tie this unit's key is
            # the larger.
            sequence = sim.reserve()
            if ready >= inflight.ready:
                inflight.ready = ready
                inflight.sequence = sequence
        elif ready >= inflight.ready:
            # The last unit is also the latest: its number is the next.
            sim.at(ready, ("wf.complete", self, inflight))
        else:
            sim.reserve()  # this unit's number, so later events keep theirs
            sim.at_reserved(
                inflight.ready, inflight.sequence, ("wf.complete", self, inflight)
            )

    def _line_complete(self, inflight: _InflightInstruction) -> None:
        """A queued controller returned one of the instruction's lines."""
        inflight.outstanding -= 1
        if not inflight.outstanding:
            self._instruction_complete(inflight)

    # ------------------------------------------------------------------
    # Retire
    # ------------------------------------------------------------------

    def _instruction_complete(self, inflight: _InflightInstruction) -> None:
        gpu = self._gpu
        record = inflight.record
        record.complete_time = now = gpu.sim._now
        tracer = gpu.tracer
        if tracer is not None and tracer.cat_job:
            tracer.job_retired(
                now, self.cu_id, record.instruction_id,
                record.wavefront_id, record.issue_time,
                record.walk_accesses, record.walk_requests, record.num_pages,
            )
        gpu.note_instruction_retired()
        self._outstanding -= 1
        if self._pc >= len(self._trace):
            if self._outstanding == 0:
                self._retire()
            return
        # A slot freed: the wavefront can issue again.
        self._set_blocked(False)
        self._schedule_issue(gpu.config.gpu.issue_gap_cycles)

    def _retire(self) -> None:
        self.done = True
        self._set_blocked(False)
        self._gpu.wavefront_finished(self)
