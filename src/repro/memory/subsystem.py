"""The data-side memory hierarchy: per-CU L1s → shared L2 → DRAM.

Modern GPUs use physically-tagged caches, so a data access can only start
after its address translation completes — this module is therefore always
invoked with *physical* addresses, downstream of the MMU.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.config import LINE_SIZE, SystemConfig
from repro.engine.simulator import Simulator
from repro.memory.cache import SetAssociativeCache
from repro.memory.controller import SOURCE_WALK, QueuedMemoryController
from repro.memory.dram import DRAM


class MemorySubsystem:
    """Glues caches and DRAM together behind two entry points.

    ``data_access``
        A coalesced lane access from a CU: L1 → L2 → DRAM, with a
        completion callback.

    ``page_table_access``
        A page-table read from an IOMMU walker.  Walkers sit in the CPU
        complex and read the page table from DRAM directly (they have the
        PWCs instead of a slice of the data-cache hierarchy), so this
        bypasses the GPU caches.
    """

    def __init__(
        self,
        simulator: Simulator,
        config: SystemConfig,
        injector=None,
        tracer=None,
    ) -> None:
        self._sim = simulator
        self._config = config
        #: Optional fault injector; supplies DRAM latency spikes.
        self._injector = injector
        padding = injector.dram_padding if injector is not None else None
        self.l1_caches: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1_cache, name=f"l1d[{cu}]")
            for cu in range(config.gpu.num_cus)
        ]
        self.l2_cache = SetAssociativeCache(config.l2_cache, name="l2d")
        if config.dram.controller == "reservation":
            self.dram: Optional[DRAM] = DRAM(config.dram)
            self.controller: Optional[QueuedMemoryController] = None
            self.dram.tracer = tracer
        else:
            self.dram = None
            self.controller = QueuedMemoryController(
                simulator,
                config.dram,
                policy=config.dram.controller,
                latency_padding=padding,
            )
            self.controller.tracer = tracer
        self.data_accesses = 0
        self.page_table_reads = 0
        #: Always-on stage accounting for page-table reads (reservation
        #: model only; the queued controller resolves asynchronously and
        #: leaves these at zero).  ``pt_read_cycles`` is issue → padded
        #: completion, of which ``pt_queue_cycles`` were spent waiting
        #: on a busy bank and ``pt_pad_cycles`` were fault-injected
        #: padding — the remainder is row access.  These feed the
        #: ``walk.stage.*`` metrics counters so blame summaries exist
        #: even when tracing is off.
        self.pt_read_cycles = 0
        self.pt_queue_cycles = 0
        self.pt_pad_cycles = 0
        simulator.register("mem.ctrl_read", self._controller_read)
        # Bind the entry points straight to their implementations, so
        # hot-path calls skip the forwarding frame of the methods below.
        self.data_access = self._data_access  # type: ignore[method-assign]
        self.page_table_read = self._page_table_read  # type: ignore[method-assign]

    def _controller_read(self, physical_address: int, on_complete: Any) -> None:
        self.controller.read(physical_address, on_complete)

    def data_access(
        self, cu_id: int, physical_address: int, on_complete: Any
    ) -> None:
        """Issue one coalesced data access; the ``on_complete`` target
        (an event tuple, or a callable for legacy callers) fires when
        the data returns."""
        self._data_access(cu_id, physical_address, on_complete)

    def _data_access(
        self, cu_id: int, physical_address: int, on_complete: Any
    ) -> None:
        self.data_accesses += 1
        line = physical_address // LINE_SIZE
        l1 = self.l1_caches[cu_id]
        if l1.access(line):
            self._sim.after(self._config.l1_cache.hit_latency, on_complete)
            return
        l2_latency = self._config.l1_cache.hit_latency + self._config.l2_cache.hit_latency
        if self.l2_cache.access(line):
            l1.fill(line)
            self._sim.after(l2_latency, on_complete)
            return
        self.l2_cache.fill(line)
        l1.fill(line)
        if self.dram is not None:
            start = self._sim.now + l2_latency
            done = self.dram.access(physical_address, start)
            if self._injector is not None:
                done += self._injector.dram_padding(start)
            self._sim.at(done, on_complete)
        else:
            assert self.controller is not None
            self._sim.post(
                l2_latency, "mem.ctrl_read", physical_address, on_complete
            )

    def data_access_batch(
        self, cu_id: int, physical_addresses: Sequence[int], on_complete: Any
    ) -> None:
        """Issue one :meth:`data_access` per address, in list order.

        No model component calls this; it stays for callers written
        against it (perfbench wraps it).
        """
        for physical_address in physical_addresses:
            self._data_access(cu_id, physical_address, on_complete)

    def page_table_read(
        self, physical_address: int, on_complete: Any
    ) -> None:
        """One sequential page-table read; ``on_complete`` fires when done.

        Walkers chain these: the next level's read is issued only from
        the previous one's completion callback.
        """
        self._page_table_read(physical_address, on_complete)

    def _page_table_read(
        self, physical_address: int, on_complete: Any
    ) -> None:
        self.page_table_reads += 1
        if self.dram is not None:
            now = self._sim.now
            queue_before = self.dram.total_queue_delay
            done = self.dram.access(physical_address, now)
            self.pt_queue_cycles += self.dram.total_queue_delay - queue_before
            if self._injector is not None:
                pad = self._injector.dram_padding(now)
                if pad:
                    done += pad
                    self.pt_pad_cycles += pad
            self.pt_read_cycles += done - now
            self._sim.at(done, on_complete)
        else:
            assert self.controller is not None
            # Tagged so the SMS batch former can QoS-prioritise walk
            # traffic; the other policies ignore the tag.
            self.controller.read(
                physical_address, on_complete, source=SOURCE_WALK
            )

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------

    def snapshot(self) -> Dict[str, object]:
        state: Dict[str, object] = {
            "data_accesses": self.data_accesses,
            "page_table_reads": self.page_table_reads,
            "pt_read_cycles": self.pt_read_cycles,
            "pt_queue_cycles": self.pt_queue_cycles,
            "pt_pad_cycles": self.pt_pad_cycles,
            "l1_caches": [cache.snapshot() for cache in self.l1_caches],
            "l2_cache": self.l2_cache.snapshot(),
        }
        if self.dram is not None:
            state["dram"] = self.dram.snapshot()
        if self.controller is not None:
            state["controller"] = self.controller.snapshot()
        return state

    def restore(self, state: Dict[str, object]) -> None:
        self.data_accesses = state["data_accesses"]
        self.page_table_reads = state["page_table_reads"]
        self.pt_read_cycles = state.get("pt_read_cycles", 0)
        self.pt_queue_cycles = state.get("pt_queue_cycles", 0)
        self.pt_pad_cycles = state.get("pt_pad_cycles", 0)
        for cache, dump in zip(self.l1_caches, state["l1_caches"]):
            cache.restore(dump)
        self.l2_cache.restore(state["l2_cache"])
        if self.dram is not None:
            self.dram.restore(state["dram"])
        if self.controller is not None:
            self.controller.restore(state["controller"])

    def stats(self) -> Dict[str, object]:
        dram_stats = (
            self.dram.stats() if self.dram is not None else self.controller.stats()
        )
        return {
            "data_accesses": self.data_accesses,
            "page_table_reads": self.page_table_reads,
            "l1_hit_rate": (
                sum(c.hits for c in self.l1_caches)
                / max(1, sum(c.accesses for c in self.l1_caches))
            ),
            "l2": self.l2_cache.stats(),
            "dram": dram_stats,
        }
