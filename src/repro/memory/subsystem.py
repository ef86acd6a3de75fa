"""The data-side memory hierarchy: per-CU L1s → shared L2 → DRAM.

Modern GPUs use physically-tagged caches, so a data access can only start
after its address translation completes — this module is therefore always
invoked with *physical* addresses, downstream of the MMU.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.config import LINE_SIZE, SystemConfig
from repro.engine.simulator import Simulator
from repro.memory.cache import SetAssociativeCache
from repro.memory.controller import SOURCE_WALK, QueuedMemoryController
from repro.memory.dram import DRAM


class MemorySubsystem:
    """Glues caches and DRAM together behind these entry points.

    ``data_access``
        A coalesced lane access from a CU: L1 → L2 → DRAM, with a
        completion event.

    ``data_access_batch``
        The accesses of one page, in order (wavefronts use this).  On
        the reservation DRAM model it returns when the last of them is
        ready and posts nothing; the queued controller completes each
        access on its own.

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
        #: Optional fault injector; supplies DRAM latency spikes.
        self._injector = injector
        padding = injector.dram_padding if injector is not None else None
        self.l1_caches: List[SetAssociativeCache] = [
            SetAssociativeCache(config.l1_cache, name=f"l1d[{cu}]")
            for cu in range(config.gpu.num_cus)
        ]
        self.l2_cache = SetAssociativeCache(config.l2_cache, name="l2d")
        if config.dram.controller == "reservation":
            self.dram: Optional[DRAM] = DRAM(config.dram, tracer=tracer)
            self.controller: Optional[QueuedMemoryController] = None
        else:
            self.dram = None
            self.controller = QueuedMemoryController(
                simulator,
                config.dram,
                latency_padding=padding,
                tracer=tracer,
            )
            # A data line that misses L2 reaches the controller through
            # this event, after the cache latency.
            simulator.register("mem.ctrl_read", self.controller.read)
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
        #: Cycles from issue until an L1 hit, and an L2 hit, is ready.
        self._l1_latency = config.l1_cache.hit_latency
        self._l2_latency = self._l1_latency + config.l2_cache.hit_latency
        # Bind the entry points straight to their implementations, so
        # hot-path calls skip the forwarding frame of the methods below.
        self.data_access = self._data_access  # type: ignore[method-assign]
        self.page_table_read = self._page_table_read  # type: ignore[method-assign]

    def data_access(
        self, cu_id: int, physical_address: int, on_complete: tuple
    ) -> None:
        """Issue one coalesced data access; the ``on_complete`` event
        tuple fires when the data returns."""
        self._data_access(cu_id, physical_address, on_complete)

    def _data_access(
        self, cu_id: int, physical_address: int, on_complete: tuple
    ) -> None:
        ready = self.data_access_batch(cu_id, (physical_address,), on_complete)
        if ready >= 0:
            self._sim.at(ready, on_complete)

    def data_access_batch(
        self, cu_id: int, physical_addresses: Sequence[int], on_complete: tuple
    ) -> int:
        """Look each address up through L1 → L2 → DRAM, in list order.

        The reservation DRAM model knows every access's ready time at
        issue, so it returns the cycle the last of them is ready (-1
        for no addresses) and posts nothing: the caller schedules the
        one completion it needs.  The queued controller resolves reads
        later, so there ``on_complete``, an event tuple
        ``(kind, *payload)``, fires once per access, at its ready cycle
        for a cache hit and when the controller serves it for a DRAM
        read, and the call returns -1.
        """
        self.data_accesses += len(physical_addresses)
        sim = self._sim
        l1 = self.l1_caches[cu_id]
        l2 = self.l2_cache
        dram = self.dram
        l2_latency = self._l2_latency
        l1_ready = sim._now + self._l1_latency
        l2_ready = sim._now + l2_latency
        latest = -1
        for physical_address in physical_addresses:
            line = physical_address // LINE_SIZE
            if l1.access(line):
                ready = l1_ready
            elif l2.access(line):
                l1.fill(line)
                ready = l2_ready
            else:
                l2.fill(line)
                l1.fill(line)
                if dram is None:
                    sim.post(
                        l2_latency, "mem.ctrl_read", physical_address, on_complete
                    )
                    continue
                ready = dram.access(physical_address, l2_ready)
                if self._injector is not None:
                    ready += self._injector.dram_padding(l2_ready)
            if dram is None:
                sim.at(ready, on_complete)
            elif ready > latest:
                latest = ready
        return latest

    def page_table_read(
        self, physical_address: int, on_complete: tuple
    ) -> None:
        """One sequential page-table read; ``on_complete`` fires when done.

        Walkers chain these: the next level's read is issued only from
        the previous one's completion event.
        """
        self._page_table_read(physical_address, on_complete)

    def _page_table_read(
        self, physical_address: int, on_complete: tuple
    ) -> None:
        self.page_table_reads += 1
        if self.dram is not None:
            now = self._sim._now
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
            self.controller.read(physical_address, on_complete, SOURCE_WALK)

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
