"""A compute unit: wavefront slots, a private L1 TLB, stall accounting.

The paper's Fig 9 metric is "GPU stall cycles in the execution stage":
cycles during which a CU cannot execute any instruction because none are
ready.  We track it by counting, per CU, the time intervals in which
every resident wavefront is blocked waiting on memory.
"""

from __future__ import annotations

from typing import Dict

from repro.config import SystemConfig
from repro.engine.simulator import Simulator
from repro.mmu.tlb import TLB


class ComputeUnit:
    """One CU: a private L1 TLB and stall bookkeeping for its wavefronts."""

    def __init__(
        self,
        cu_id: int,
        simulator: Simulator,
        config: SystemConfig,
        tracer=None,
    ) -> None:
        self.cu_id = cu_id
        self._sim = simulator
        self.l1_tlb = TLB(
            config.gpu_l1_tlb, name=f"gpu_l1_tlb[{cu_id}]",
            tracer=tracer, clock=simulator,
        )
        #: Optional :class:`~repro.obs.trace.Tracer` (stall-interval spans).
        self.tracer = tracer
        self._resident = 0
        self._active = 0
        self._last_change = 0
        self.stall_cycles = 0

    @property
    def resident_wavefronts(self) -> int:
        return self._resident

    @property
    def active_wavefronts(self) -> int:
        return self._active

    def _accumulate(self) -> None:
        now = self._sim._now
        if self._resident > 0 and self._active == 0:
            self.stall_cycles += now - self._last_change
            if (
                self.tracer is not None
                and self.tracer.cat_cu
                and now > self._last_change
            ):
                self.tracer.cu_stall(self.cu_id, self._last_change, now)
        self._last_change = now

    def wavefront_arrived(self, active: bool = True) -> None:
        """A wavefront became resident on this CU."""
        self._accumulate()
        self._resident += 1
        if active:
            self._active += 1

    def wavefront_departed(self, was_active: bool) -> None:
        """A resident wavefront retired its last instruction."""
        self._accumulate()
        self._resident -= 1
        if was_active:
            self._active -= 1
        if self._resident < 0 or self._active < 0:
            raise RuntimeError(f"CU {self.cu_id} wavefront accounting underflow")

    def wavefront_blocked(self) -> None:
        """A resident wavefront started waiting on memory."""
        self._accumulate()
        self._active -= 1
        if self._active < 0:
            raise RuntimeError(f"CU {self.cu_id} active-count underflow")

    def wavefront_unblocked(self) -> None:
        """A resident wavefront's memory instruction completed."""
        self._accumulate()
        self._active += 1
        if self._active > self._resident:
            raise RuntimeError(f"CU {self.cu_id} active-count overflow")

    def finalize(self) -> None:
        """Close the last accounting interval at end of simulation."""
        self._accumulate()

    def stats(self) -> Dict[str, float]:
        return {
            "stall_cycles": self.stall_cycles,
            "l1_tlb": self.l1_tlb.stats(),
        }
