"""A simplified DDR3-style DRAM timing model.

Accuracy target: enough realism that (a) page-table walk accesses have
variable, contention-dependent latency, and (b) heavy translation traffic
queues up on banks — the effects the paper's scheduler interacts with.
Each bank serialises its accesses and keeps an open row; a row-buffer hit
costs ``t_cas``, a conflict adds precharge + activate.

The model is *reservation-based* rather than event-based: ``access``
immediately computes the access's completion time given current bank
state, and the caller schedules its own completion event.  This keeps the
event count (and hence Python runtime) low while preserving per-bank
queueing behaviour.

Bank state is two plain lists indexed by bank: busy-until cycle and
open row.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.config import LINE_SIZE, DRAMConfig

#: The batch size at which :meth:`DRAM.access_batch` once switched to a
#: vectorised path.  Nothing here depends on it any more; perfbench
#: reads it to size its batched-read counter.
_VECTOR_MIN_BATCH = 12


class DRAM:
    """Channel/rank/bank DRAM with open-row policy."""

    def __init__(self, config: DRAMConfig, tracer=None) -> None:
        self.config = config
        total_banks = config.total_banks
        #: Per-bank state: the cycle the bank frees, and its open row.
        self._busy_until = [0] * total_banks
        self._open_row = [-1] * total_banks
        # Address-mapping and timing constants, hoisted once.
        self._channels = config.channels
        self._banks_per_channel = config.ranks_per_channel * config.banks_per_rank
        self._row_stride = config.row_size_bytes * total_banks
        self._t_cas = config.t_cas
        self._t_miss = config.t_rp + config.t_rcd + config.t_cas
        self._t_burst = config.t_burst
        self.accesses = 0
        self.row_hits = 0
        self.row_conflicts = 0
        self.total_latency = 0
        self.total_queue_delay = 0
        #: Optional :class:`~repro.obs.trace.Tracer` (access spans).
        self.tracer = tracer

    def access(self, address: int, now: int) -> int:
        """Perform one read at ``address`` starting no earlier than ``now``.

        Returns the absolute completion time.  Updates bank occupancy and
        the open row, so issue order is service order within a bank.
        """
        if now < 0:
            raise ValueError("time must be non-negative")
        # Address map: low-order line bits pick the channel (striping
        # consecutive lines across channels), the next bits the bank,
        # the rest the row — a common baseline interleaving.
        line = address // LINE_SIZE
        channels = self._channels
        banks_per_channel = self._banks_per_channel
        bank_index = (line % channels) * banks_per_channel + (
            line // channels
        ) % banks_per_channel
        row = address // self._row_stride

        start = self._busy_until[bank_index]
        if start < now:
            start = now
        row_hit = self._open_row[bank_index] == row
        if row_hit:
            latency = self._t_cas
            self.row_hits += 1
        else:
            latency = self._t_miss
            self.row_conflicts += 1
            self._open_row[bank_index] = row
        done = start + latency
        self._busy_until[bank_index] = done + self._t_burst

        self.accesses += 1
        self.total_latency += done - now
        self.total_queue_delay += start - now
        tracer = self.tracer
        if tracer is not None:
            if tracer.cat_memory:
                tracer.dram_access(
                    start, done, address, start - now, row_hit, bank_index
                )
            if tracer.cat_walk:
                # Timing receipt for the walker issuing this read in the
                # same call stack (see Tracer.last_dram_access): lets
                # walk_read spans split bank-queue vs row-access cycles
                # without recording the whole memory category.
                tracer.last_dram_access = (start, done, bank_index, row_hit)
        return done

    def access_batch(self, addresses: Sequence[int], now: int) -> List[int]:
        """One :meth:`access` per address, all starting no earlier than
        ``now``; returns the completion times in address order.

        No model component calls this; it stays for callers written
        against it (perfbench wraps it).
        """
        return [self.access(address, now) for address in addresses]

    @property
    def average_latency(self) -> float:
        return self.total_latency / self.accesses if self.accesses else 0.0

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.accesses if self.accesses else 0.0

    def stats(self) -> Dict[str, float]:
        return {
            "accesses": self.accesses,
            "row_hits": self.row_hits,
            "row_conflicts": self.row_conflicts,
            "row_hit_rate": self.row_hit_rate,
            "average_latency": self.average_latency,
        }
