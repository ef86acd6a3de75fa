"""The top-level GPU model: CU array, shared L2 TLB, wavefront dispatch.

Wavefront traces are dispatched to CU slots round-robin; when a resident
wavefront retires, the next queued trace takes its slot (modelling the
hardware workgroup dispatcher keeping CUs occupied).  The simulation ends
when every trace has executed to completion.

The GPU owns the ``gpu.*`` / ``wf.*`` event kinds.  A ``wf.*`` event
carries its :class:`~repro.gpu.wavefront.Wavefront` as the first payload
item and is bound to the ``Wavefront`` method that handles it, so it
dispatches straight to the wavefront; a checkpoint pickles the
wavefronts together with the event queue that references them.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.config import SystemConfig
from repro.core.request import TranslationRequest
from repro.engine.simulator import Simulator
from repro.gpu.cu import ComputeUnit
from repro.gpu.wavefront import InstructionRecord, Wavefront
from repro.memory.subsystem import MemorySubsystem
from repro.mmu.iommu import IOMMU
from repro.mmu.tlb import TLB

#: Fig 12 epoch length: distinct wavefronts are counted per this many
#: GPU L2 TLB accesses.
L2_TLB_EPOCH_ACCESSES = 1024


class GPU:
    """The simulated GPU: compute side plus its shared L2 TLB."""

    def __init__(
        self,
        simulator: Simulator,
        config: SystemConfig,
        memory: MemorySubsystem,
        iommu: IOMMU,
        tracer=None,
    ) -> None:
        self.sim = simulator
        self.config = config
        self.memory = memory
        self.iommu = iommu
        #: The IOMMU's translation geometry, resolved once by the builder.
        self.geometry = iommu.geometry
        #: Set by the system builder; used only in perfect-translation
        #: (oracle MMU) runs.
        self.page_table = None
        #: Optional :class:`~repro.obs.trace.Tracer` (job spans, CU stalls).
        self.tracer = tracer
        self.cus: List[ComputeUnit] = [
            ComputeUnit(cu_id, simulator, config, tracer=tracer)
            for cu_id in range(config.gpu.num_cus)
        ]
        self.l2_tlb = TLB(
            config.gpu_l2_tlb, name="gpu_l2_tlb", tracer=tracer, clock=simulator
        )

        self.instruction_records: List[InstructionRecord] = []
        #: Dynamic instructions retired so far — the watchdog's
        #: forward-progress signal (a healthy run retires continuously).
        self.instructions_retired = 0
        self._instruction_counter = 0
        self._wavefront_counter = 0
        self._pending_traces: Deque = deque()
        self._running_wavefronts = 0
        self._app_remaining: Dict[int, int] = {}
        #: Cycle at which each application's last wavefront retired.
        self.app_completion_time: Dict[int, int] = {}

        # Fig 12: distinct wavefronts touching the L2 TLB per epoch.
        self._epoch_accesses = 0
        self._epoch_wavefronts: Set[int] = set()
        self.wavefronts_per_epoch: List[int] = []

        # The shared L2 TLB is a single ported structure: it serves
        # ``l2_tlb_lookups_per_cycle`` lookups per cycle.  Concurrent
        # wavefronts' request streams queue here and emerge
        # *multiplexed* — the source of the page-walk interleaving the
        # paper measures in Fig 5.  The port clock counts lookup slots,
        # ``rate`` to a cycle, so it stays an exact integer.
        self._l2_tlb_next_slot = 0

        self.completion_time: Optional[int] = None

        simulator.register("gpu.start", self._start_reserved)
        simulator.register("wf.issue", Wavefront._issue_now)
        simulator.register("wf.xlate", Wavefront._translate_page)
        simulator.register("wf.l2", Wavefront._l2_tlb_lookup)
        simulator.register("wf.data", Wavefront._data_phase)
        simulator.register("wf.install", Wavefront._install_and_access)
        simulator.register("wf.line", Wavefront._line_complete)
        simulator.register("wf.complete", Wavefront._instruction_complete)
        simulator.register("iommu.xlate", self._iommu_translate)
        # Translations without a per-request callback come back here.
        iommu.reply_to = self._translation_done

    def _iommu_translate(self, request: TranslationRequest) -> None:
        self.iommu.translate(request)

    def _translation_done(self, request: TranslationRequest, pfn: int) -> None:
        """IOMMU reply sink: the request's context names the wavefront
        and the instruction state the reply continues."""
        wavefront, lines, inflight = request.context
        wavefront._iommu_reply(request, pfn, lines, inflight)

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------

    def next_instruction_id(self) -> int:
        """Allocate the next global dynamic-instruction number."""
        uid = self._instruction_counter
        self._instruction_counter += 1
        return uid

    def dispatch(self, traces: Sequence, app_ids: Optional[Sequence[int]] = None) -> None:
        """Queue wavefront traces and fill every CU slot (staggered).

        ``app_ids`` optionally tags each trace with its owning
        application (multi-tenant runs); defaults to app 0 for all.
        """
        if not traces:
            raise ValueError("cannot dispatch an empty workload")
        if app_ids is None:
            app_ids = [0] * len(traces)
        if len(app_ids) != len(traces):
            raise ValueError("app_ids must match traces one-to-one")
        for trace, app_id in zip(traces, app_ids):
            self._pending_traces.append((trace, app_id))
            self._app_remaining[app_id] = self._app_remaining.get(app_id, 0) + 1
        slots = self.config.gpu.wavefront_slots_per_cu
        stagger = self.config.gpu.dispatch_stagger_cycles
        launch_index = 0
        for _ in range(slots):
            for cu in self.cus:
                if not self._pending_traces:
                    return
                trace, app_id = self._pending_traces.popleft()
                delay = launch_index * stagger
                launch_index += 1
                self._running_wavefronts += 1  # reserved before start
                self.sim.post(delay, "gpu.start", trace, cu.cu_id, app_id)

    def _start_reserved(self, trace, cu_id: int, app_id: int) -> None:
        """Launch a wavefront whose running-count slot was pre-reserved."""
        self._running_wavefronts -= 1
        self._launch(trace, cu_id, app_id)

    def _launch(self, trace, cu_id: int, app_id: int = 0) -> None:
        wavefront = Wavefront(
            self._wavefront_counter, cu_id, trace, self, app_id=app_id
        )
        self._wavefront_counter += 1
        self._running_wavefronts += 1
        self.cus[cu_id].wavefront_arrived(active=True)
        wavefront.start()

    def wavefront_finished(self, wavefront: Wavefront) -> None:
        """A wavefront retired its last instruction; backfill its slot."""
        cu_id = wavefront.cu_id
        self.cus[cu_id].wavefront_departed(was_active=not wavefront.blocked)
        self._running_wavefronts -= 1
        remaining = self._app_remaining.get(wavefront.app_id, 0) - 1
        self._app_remaining[wavefront.app_id] = remaining
        if remaining == 0:
            self.app_completion_time[wavefront.app_id] = self.sim.now
        if self._pending_traces:
            trace, app_id = self._pending_traces.popleft()
            self._launch(trace, cu_id, app_id)
        elif self._running_wavefronts == 0:
            self.completion_time = self.sim.now
            for cu in self.cus:
                cu.finalize()

    def note_instruction_retired(self) -> None:
        """Record one dynamic instruction retiring (watchdog heartbeat)."""
        self.instructions_retired += 1

    @property
    def finished(self) -> bool:
        return self.completion_time is not None

    @property
    def running_wavefronts(self) -> int:
        """Wavefronts currently resident (including reserved slots)."""
        return self._running_wavefronts

    @property
    def wavefronts_launched(self) -> int:
        return self._wavefront_counter

    # ------------------------------------------------------------------
    # Shared L2 TLB
    # ------------------------------------------------------------------

    def l2_tlb_port_delay(self) -> int:
        """Reserve the next free L2 TLB port slot; returns the extra wait.

        Models ``l2_tlb_lookups_per_cycle`` lookups per cycle: the caller
        should add the returned delay (0 when the port has a free slot
        this cycle) on top of the TLB's hit latency.
        """
        rate = self.config.gpu.l2_tlb_lookups_per_cycle
        now = self.sim._now
        slot = max(now * rate, self._l2_tlb_next_slot)
        self._l2_tlb_next_slot = slot + 1
        return slot // rate - now

    def l2_tlb_lookup(self, vpn: int, wavefront_id: int) -> Optional[int]:
        """Look up the shared L2 TLB, recording epoch statistics (Fig 12)."""
        self._epoch_wavefronts.add(wavefront_id)
        self._epoch_accesses += 1
        if self._epoch_accesses >= L2_TLB_EPOCH_ACCESSES:
            self.wavefronts_per_epoch.append(len(self._epoch_wavefronts))
            self._epoch_wavefronts.clear()
            self._epoch_accesses = 0
        return self.l2_tlb.lookup(vpn)

    def oracle_translate(self, vpn: int) -> int:
        """Zero-latency translation for perfect-translation runs."""
        if self.page_table is None:
            raise RuntimeError(
                "perfect_translation requires the system builder to attach "
                "a page table to the GPU"
            )
        return self.page_table.translate(vpn)

    # ------------------------------------------------------------------
    # Aggregate statistics
    # ------------------------------------------------------------------

    @property
    def total_stall_cycles(self) -> int:
        return sum(cu.stall_cycles for cu in self.cus)

    @property
    def mean_wavefronts_per_epoch(self) -> float:
        epochs = self.wavefronts_per_epoch
        if not epochs:
            # Fewer than one full epoch of accesses: fall back to the
            # partial epoch so short runs still report a value.
            return float(len(self._epoch_wavefronts)) if self._epoch_wavefronts else 0.0
        return sum(epochs) / len(epochs)
