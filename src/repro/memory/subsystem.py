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
        The accesses of one page, in order, counted off by completions
        that carry how many accesses they finish (wavefronts use this).

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

    def _controller_read(self, physical_address: int, on_complete: tuple) -> None:
        self.controller.read(physical_address, on_complete)

    def data_access(
        self, cu_id: int, physical_address: int, on_complete: tuple
    ) -> None:
        """Issue one coalesced data access; the ``on_complete`` event
        tuple fires when the data returns."""
        self._data_access(cu_id, physical_address, on_complete)

    def _data_access(
        self, cu_id: int, physical_address: int, on_complete: tuple
    ) -> None:
        ready = self._line_ready(cu_id, physical_address, on_complete)
        if ready is not None:
            self._sim.at(ready, on_complete)

    def data_access_batch(
        self, cu_id: int, physical_addresses: Sequence[int], on_complete: tuple
    ) -> None:
        """Issue one coalesced data access per address, in list order.

        ``on_complete`` is an event tuple ``(kind, *payload)``; it fires
        with one more argument, the number of the accesses it completes.
        The reservation DRAM model knows every access's ready time at
        issue, so the batch posts one completion, at the latest of them,
        carrying ``len(physical_addresses)``.  That event takes the
        first of the sequence numbers the per-access events would have
        taken back to back, so it fires at the place in (time, sequence)
        order where the last of them would have fired.  The queued
        controller resolves reads later, so there every access completes
        on its own, carrying 1.
        """
        if self.dram is None:
            target = on_complete + (1,)
            for physical_address in physical_addresses:
                self._data_access(cu_id, physical_address, target)
            return
        latest = -1
        for physical_address in physical_addresses:
            ready = self._line_ready(cu_id, physical_address, on_complete)
            if ready > latest:
                latest = ready
        if latest >= 0:
            self._sim.at(latest, on_complete + (len(physical_addresses),))

    def _line_ready(
        self, cu_id: int, physical_address: int, on_complete: tuple
    ) -> Optional[int]:
        """Look one line up through L1 → L2 → DRAM.  Returns the cycle
        its data is ready, or None when the queued controller will fire
        ``on_complete`` itself once the read is served."""
        self.data_accesses += 1
        line = physical_address // LINE_SIZE
        config = self._config
        now = self._sim._now
        l1 = self.l1_caches[cu_id]
        if l1.access(line):
            return now + config.l1_cache.hit_latency
        l2_latency = config.l1_cache.hit_latency + config.l2_cache.hit_latency
        if self.l2_cache.access(line):
            l1.fill(line)
            return now + l2_latency
        self.l2_cache.fill(line)
        l1.fill(line)
        if self.dram is not None:
            start = now + l2_latency
            done = self.dram.access(physical_address, start)
            if self._injector is not None:
                done += self._injector.dram_padding(start)
            return done
        self._sim.post(l2_latency, "mem.ctrl_read", physical_address, on_complete)
        return None

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
            self.controller.read(
                physical_address, on_complete, source=SOURCE_WALK
            )

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
