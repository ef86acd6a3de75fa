"""The top-level GPU model: CU array, shared L2 TLB, wavefront dispatch.

Wavefront traces are dispatched to CU slots round-robin; when a resident
wavefront retires, the next queued trace takes its slot (modelling the
hardware workgroup dispatcher keeping CUs occupied).  The simulation ends
when every trace has executed to completion.

The GPU owns the ``gpu.*`` / ``wf.*`` event kinds: wavefront events carry
a wavefront id and are routed through the live-wavefront registry, so
event payloads stay plain data and the whole event queue can be pickled
into a checkpoint.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, List, Optional, Sequence, Set

from repro.config import SystemConfig
from repro.core.request import TranslationRequest
from repro.engine.simulator import Simulator
from repro.gpu.cu import ComputeUnit
from repro.gpu.wavefront import InstructionRecord, Wavefront, _InflightInstruction
from repro.memory.subsystem import MemorySubsystem
from repro.mmu.geometry import geometry_by_name
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
        self.geometry = geometry_by_name(config.page_size)
        #: Set by the system builder; used only in perfect-translation
        #: (oracle MMU) runs.
        self.page_table = None
        #: Optional :class:`~repro.obs.trace.Tracer` (job spans, CU stalls).
        self.tracer = tracer
        self.cus: List[ComputeUnit] = [
            ComputeUnit(cu_id, simulator, config, tracer=tracer)
            for cu_id in range(config.gpu.num_cus)
        ]
        self.l2_tlb = TLB(config.gpu_l2_tlb, name="gpu_l2_tlb")
        if tracer is not None:
            now = lambda: simulator.now  # noqa: E731 - tiny clock closure
            self.l2_tlb.attach_tracer(tracer, now)
            for cu in self.cus:
                cu.l1_tlb.attach_tracer(tracer, now)

        self.instruction_records: List[InstructionRecord] = []
        #: Dynamic instructions retired so far — the watchdog's
        #: forward-progress signal (a healthy run retires continuously).
        self.instructions_retired = 0
        self._instruction_counter = 0
        self._wavefront_counter = 0
        self._pending_traces: Deque = deque()
        self._running_wavefronts = 0
        self._wavefront_cu: Dict[int, int] = {}
        self._app_remaining: Dict[int, int] = {}
        #: Cycle at which each application's last wavefront retired.
        self.app_completion_time: Dict[int, int] = {}
        #: Live (launched, unretired) wavefronts, routing target for
        #: ``wf.*`` events.
        self._wavefronts: Dict[int, Wavefront] = {}

        # Fig 12: distinct wavefronts touching the L2 TLB per epoch.
        self._epoch_accesses = 0
        self._epoch_wavefronts: Set[int] = set()
        self.wavefronts_per_epoch: List[int] = []

        # The shared L2 TLB is a single ported structure: it serves one
        # lookup per cycle.  Concurrent wavefronts' request streams queue
        # here and emerge *multiplexed* — the source of the page-walk
        # interleaving the paper measures in Fig 5.
        self._l2_tlb_next_free = 0

        self.completion_time: Optional[int] = None

        simulator.register("gpu.start", self._start_reserved)
        simulator.register("wf.issue", self._wf_issue)
        simulator.register("wf.xlate", self._wf_translate)
        simulator.register("wf.l2", self._wf_l2_lookup)
        simulator.register("wf.data", self._wf_data)
        simulator.register("wf.install", self._wf_install)
        simulator.register("wf.line", self._wf_line)
        simulator.register("iommu.xlate", self._iommu_translate)
        # Translations without a per-request callback come back here.
        iommu.reply_to = self._translation_done

    # ------------------------------------------------------------------
    # Event routing (wf.* kinds → live wavefront objects)
    # ------------------------------------------------------------------

    def _wf_issue(self, wavefront_id: int) -> None:
        self._wavefronts[wavefront_id]._issue_now()

    def _wf_translate(
        self, wavefront_id: int, vpn: int, lines, inflight: _InflightInstruction
    ) -> None:
        self._wavefronts[wavefront_id]._translate_page(vpn, lines, inflight)

    def _wf_l2_lookup(
        self, wavefront_id: int, vpn: int, lines, inflight: _InflightInstruction
    ) -> None:
        self._wavefronts[wavefront_id]._l2_tlb_lookup(vpn, lines, inflight)

    def _wf_data(
        self, wavefront_id: int, pfn: int, lines, inflight: _InflightInstruction
    ) -> None:
        self._wavefronts[wavefront_id]._data_phase(pfn, lines, inflight)

    def _wf_install(
        self,
        wavefront_id: int,
        vpn: int,
        pfn: int,
        lines,
        inflight: _InflightInstruction,
    ) -> None:
        self._wavefronts[wavefront_id]._install_and_access(
            vpn, pfn, lines, inflight
        )

    def _wf_line(self, wavefront_id: int, inflight: _InflightInstruction) -> None:
        self._wavefronts[wavefront_id]._line_complete(inflight)

    def _iommu_translate(self, request: TranslationRequest) -> None:
        self.iommu.translate(request)

    def _translation_done(self, request: TranslationRequest, pfn: int) -> None:
        """IOMMU reply sink for requests carrying plain-data context."""
        lines, inflight = request.context
        self._wavefronts[request.wavefront_id]._iommu_reply(
            request, pfn, lines, inflight
        )

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
        self._wavefront_cu[wavefront.wavefront_id] = cu_id
        self._wavefronts[wavefront.wavefront_id] = wavefront
        self._running_wavefronts += 1
        self.cus[cu_id].wavefront_arrived(active=True)
        wavefront.start()

    def wavefront_finished(self, wavefront: Wavefront) -> None:
        """A wavefront retired its last instruction; backfill its slot."""
        cu_id = wavefront.cu_id
        self.cus[cu_id].wavefront_departed(was_active=not wavefront.blocked)
        self._running_wavefronts -= 1
        self._wavefronts.pop(wavefront.wavefront_id, None)
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

        Models single-lookup-per-cycle throughput: the caller should add
        the returned delay (0 when the port is idle) on top of the TLB's
        hit latency.
        """
        now = self.sim.now
        start = max(now, self._l2_tlb_next_free)
        self._l2_tlb_next_free = start + 1.0 / self.config.gpu.l2_tlb_lookups_per_cycle
        return int(start) - now

    def l2_tlb_lookup(self, vpn: int, wavefront_id: int) -> Optional[int]:
        """Look up the shared L2 TLB, recording epoch statistics (Fig 12)."""
        self._epoch_wavefronts.add(wavefront_id)
        self._epoch_accesses += 1
        if self._epoch_accesses >= L2_TLB_EPOCH_ACCESSES:
            self.wavefronts_per_epoch.append(len(self._epoch_wavefronts))
            self._epoch_wavefronts.clear()
            self._epoch_accesses = 0
        return self.l2_tlb.lookup(vpn)

    def l2_tlb_fill(self, vpn: int, pfn: int) -> None:
        """Install a translation returned by the IOMMU."""
        self.l2_tlb.insert(vpn, pfn)

    def oracle_translate(self, vpn: int) -> int:
        """Zero-latency translation for perfect-translation runs."""
        if self.page_table is None:
            raise RuntimeError(
                "perfect_translation requires the system builder to attach "
                "a page table to the GPU"
            )
        return self.page_table.translate(vpn)

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> dict:
        """Full compute-side state.

        Instruction records and in-flight contexts are pickled as the
        objects themselves (they are plain slotted data); the combined
        checkpoint pickle keeps their identity shared with the event
        payloads that reference them.
        """
        return {
            "instruction_records": list(self.instruction_records),
            "instructions_retired": self.instructions_retired,
            "instruction_counter": self._instruction_counter,
            "wavefront_counter": self._wavefront_counter,
            "pending_traces": list(self._pending_traces),
            "running_wavefronts": self._running_wavefronts,
            "wavefront_cu": dict(self._wavefront_cu),
            "app_remaining": dict(self._app_remaining),
            "app_completion_time": dict(self.app_completion_time),
            "epoch_accesses": self._epoch_accesses,
            "epoch_wavefronts": list(self._epoch_wavefronts),
            "wavefronts_per_epoch": list(self.wavefronts_per_epoch),
            "l2_tlb_next_free": self._l2_tlb_next_free,
            "completion_time": self.completion_time,
            "l2_tlb": self.l2_tlb.snapshot(),
            "cus": [cu.snapshot() for cu in self.cus],
            "wavefronts": [wf.snapshot() for wf in self._wavefronts.values()],
        }

    def restore(self, state: dict) -> None:
        self.instruction_records = list(state["instruction_records"])
        self.instructions_retired = state["instructions_retired"]
        self._instruction_counter = state["instruction_counter"]
        self._wavefront_counter = state["wavefront_counter"]
        self._pending_traces = deque(state["pending_traces"])
        self._running_wavefronts = state["running_wavefronts"]
        self._wavefront_cu = dict(state["wavefront_cu"])
        self._app_remaining = dict(state["app_remaining"])
        self.app_completion_time = dict(state["app_completion_time"])
        self._epoch_accesses = state["epoch_accesses"]
        self._epoch_wavefronts = set(state["epoch_wavefronts"])
        self.wavefronts_per_epoch = list(state["wavefronts_per_epoch"])
        self._l2_tlb_next_free = state["l2_tlb_next_free"]
        self.completion_time = state["completion_time"]
        self.l2_tlb.restore(state["l2_tlb"])
        for cu, dump in zip(self.cus, state["cus"]):
            cu.restore(dump)
        self._wavefronts = {}
        for dump in state["wavefronts"]:
            wavefront = Wavefront(
                dump["wavefront_id"],
                dump["cu_id"],
                dump["trace"],
                self,
                app_id=dump["app_id"],
            )
            wavefront.restore(dump)
            self._wavefronts[wavefront.wavefront_id] = wavefront

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
