"""A queued DRAM controller with pluggable request scheduling.

The paper motivates page-walk scheduling by analogy to the rich body of
memory-controller scheduling work (FR-FCFS, ATLAS, PAR-BS...).  The
default DRAM model (:mod:`repro.memory.dram`) serves each bank in
arrival order; this controller adds real request queues and two classic
policies:

``fcfs``
    Oldest request whose bank is free.

``frfcfs``
    First-ready FCFS (Rixner et al., ISCA 2000): among requests whose
    bank is free, prefer row-buffer *hits* (oldest first), falling back
    to the oldest request.

``sms``
    A staged batch-former/QoS split in the spirit of SMS
    (Ausavarungnirun et al., ISCA 2012), simplified to this model's
    read-only traffic: each bank serves up to ``sms_batch_cap``
    consecutive requests from one *source* (page-walk vs data) before
    re-arbitrating, and arbitration prefers a waiting page-walk batch —
    walks are the latency-critical minority the GPU's data firehose
    otherwise drowns out.  Within a batch, first-ready then oldest.

The controller exposes a completion-target API (``read(address, done)``
where ``done`` is a ``(kind, *payload)`` event tuple), so it can stand
in wherever the reservation-based model is used.  Bank service and
release advance through registered event kinds, and each bank holds its
own queue and the request it serves, so queued and in-flight reads
serialise into checkpoints.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.config import DRAM_CONTROLLERS, LINE_SIZE, DRAMConfig
from repro.engine.simulator import Simulator
from repro.obs.trace import PID_MEMORY

#: Request sources the SMS batch former arbitrates between.
SOURCE_DATA = 0
SOURCE_WALK = 1


class _Request:
    __slots__ = (
        "address", "bank", "row", "arrival_time", "row_hit",
        "service_start", "on_complete", "source",
    )

    def __init__(
        self, address, bank, row, arrival_time, on_complete,
        source=SOURCE_DATA,
    ) -> None:
        self.address = address
        self.bank = bank
        self.row = row
        self.arrival_time = arrival_time
        self.row_hit = False
        #: Cycle the bank started serving this request (-1 while queued);
        #: ``service_start - arrival_time`` is the bank-queueing delay.
        self.service_start = -1
        self.on_complete = on_complete
        #: SOURCE_DATA or SOURCE_WALK (the SMS QoS dimension).
        self.source = source


class _Bank:
    """One bank's state: open row, waiting requests, the one in service."""

    __slots__ = (
        "busy", "open_row", "queue", "row_waiting", "serving",
        "batch_source", "batch_credits",
    )

    def __init__(self) -> None:
        #: Set from issue until the data burst ends.
        self.busy = False
        self.open_row = -1
        #: Requests waiting for this bank, oldest first.
        self.queue: List[_Request] = []
        #: Row -> how many queued requests want it, so a select scans
        #: the queue only when a row hit is waiting.
        self.row_waiting: Dict[int, int] = {}
        #: The request the bank serves until its data returns.
        self.serving: Optional[_Request] = None
        #: SMS batch former: the source this bank is committed to, and
        #: how many more requests it may take from that source.
        self.batch_source = SOURCE_DATA
        self.batch_credits = 0


class QueuedMemoryController:
    """Event-driven DRAM front end: queues, banks, a scheduling policy
    (``config.controller``: "fcfs", "frfcfs" or "sms")."""

    def __init__(
        self,
        simulator: Simulator,
        config: DRAMConfig,
        latency_padding: Optional[Callable[[int], int]] = None,
        tracer=None,
    ) -> None:
        if config.controller not in DRAM_CONTROLLERS[1:]:
            raise ValueError(
                f"a queued controller needs controller in "
                f"{DRAM_CONTROLLERS[1:]}, got {config.controller!r}"
            )
        self._sim = simulator
        self.config = config
        self.policy = config.controller
        #: Optional ``f(now) -> extra_cycles`` hook; fault injection uses
        #: it to spike access latency inside chosen cycle windows.
        self._latency_padding = latency_padding
        #: Optional :class:`~repro.obs.trace.Tracer` (read spans + queue
        #: depth counter track).
        self.tracer = tracer
        total_banks = config.total_banks
        self._banks: List[_Bank] = [_Bank() for _ in range(total_banks)]
        # Address-mapping and timing constants, hoisted once.
        self._channels = config.channels
        self._banks_per_channel = config.ranks_per_channel * config.banks_per_rank
        self._row_stride = config.row_size_bytes * total_banks
        self._t_cas = config.t_cas
        self._t_miss = config.t_rp + config.t_rcd + config.t_cas
        self._t_burst = config.t_burst
        #: Requests waiting in any bank queue: one added per enqueue, one
        #: taken per issue, so the depth reads in O(1).
        self._waiting = 0
        self.reads = 0
        self.walk_reads = 0
        self.row_hits = 0
        self.row_conflicts = 0
        self.peak_queue_depth = 0
        simulator.register("dram.complete", self._complete)
        simulator.register("dram.release", self._release)

    @property
    def queued_requests(self) -> int:
        return self._waiting

    def read(
        self, address: int, on_complete: tuple, source: int = SOURCE_DATA
    ) -> None:
        """Enqueue one read; the ``on_complete`` event tuple fires when
        data returns.  ``source`` tags the request for the SMS batch former (page-walk
        reads pass :data:`SOURCE_WALK`); other policies ignore it."""
        # Low-order line bits pick the channel, the next bits the bank,
        # the rest the row (the reservation model's interleaving).
        line = address // LINE_SIZE
        channels = self._channels
        banks_per_channel = self._banks_per_channel
        bank_index = (line % channels) * banks_per_channel + (
            line // channels
        ) % banks_per_channel
        row = address // self._row_stride
        now = self._sim._now
        request = _Request(address, bank_index, row, now, on_complete, source)
        if source == SOURCE_WALK:
            self.walk_reads += 1
        bank = self._banks[bank_index]
        bank.queue.append(request)
        row_waiting = bank.row_waiting
        row_waiting[row] = row_waiting.get(row, 0) + 1
        waiting = self._waiting = self._waiting + 1
        if waiting > self.peak_queue_depth:
            self.peak_queue_depth = waiting
        tracer = self.tracer
        if tracer is not None and tracer.cat_counter:
            tracer.counter(now, "dram_queue_depth", waiting, pid=PID_MEMORY)
        if not bank.busy:
            self._issue(bank_index, bank)

    def _select_sms(self, queue: List[_Request], bank: _Bank) -> _Request:
        """Stage 1: stick with the bank's formed batch while it has
        credits and matching requests.  Stage 2: re-arbitrate, giving a
        waiting page-walk batch priority over data.  Within either
        stage, first-ready (open-row) wins, then the oldest."""
        if bank.batch_credits > 0:
            choice = self._first_ready_of(queue, bank, bank.batch_source)
            if choice is not None:
                bank.batch_credits -= 1
                return choice
        choice = self._first_ready_of(queue, bank, SOURCE_WALK)
        if choice is None:
            choice = self._first_ready(queue, bank)
        bank.batch_source = choice.source
        bank.batch_credits = self.config.sms_batch_cap - 1
        return choice

    @staticmethod
    def _first_ready(queue: List[_Request], bank: _Bank) -> _Request:
        """The oldest request in the bank's queue that hits the open
        row, else the oldest.  The queue is scanned only when the bank's
        row counts say a hit waits in it."""
        open_row = bank.open_row
        if open_row in bank.row_waiting:
            for request in queue:
                if request.row == open_row:
                    return request
        return queue[0]

    @staticmethod
    def _first_ready_of(
        queue: List[_Request], bank: _Bank, source: int
    ) -> Optional[_Request]:
        """:meth:`_first_ready` among the requests from ``source`` only,
        in one pass that copies nothing; None when none of them waits."""
        open_row = bank.open_row
        hit_waiting = open_row in bank.row_waiting
        oldest = None
        for request in queue:
            if request.source == source:
                if not hit_waiting or request.row == open_row:
                    return request
                if oldest is None:
                    oldest = request
        return oldest

    def _issue(self, bank_index: int, bank: _Bank) -> None:
        """Start serving the idle bank's next request (its queue is not
        empty), chosen by the policy."""
        queue = bank.queue
        policy = self.policy
        if policy == "frfcfs":
            request = self._first_ready(queue, bank)
        elif policy == "sms":
            request = self._select_sms(queue, bank)
        else:
            request = queue[0]
        queue.remove(request)
        row = request.row
        row_waiting = bank.row_waiting
        left = row_waiting[row] - 1
        if left:
            row_waiting[row] = left
        else:
            del row_waiting[row]
        self._waiting -= 1
        if row == bank.open_row:
            latency = self._t_cas
            self.row_hits += 1
            request.row_hit = True
        else:
            latency = self._t_miss
            self.row_conflicts += 1
            bank.open_row = row
        now = self._sim._now
        if self._latency_padding is not None:
            latency += self._latency_padding(now)
        bank.busy = True
        self.reads += 1
        request.service_start = now
        bank.serving = request
        self._sim.post(latency, "dram.complete", bank_index)

    def _complete(self, bank_index: int) -> None:
        bank = self._banks[bank_index]
        request = bank.serving
        bank.serving = None
        tracer = self.tracer
        if tracer is not None:
            now = self._sim._now
            if tracer.cat_memory:
                tracer.dram_read_span(
                    request.arrival_time, now, request.bank,
                    request.address, request.row_hit,
                )
                tracer.dram_service(
                    request.service_start, now, request.bank,
                    request.address, request.row_hit,
                )
            if tracer.cat_walk:
                # Timing receipt for a walker completing this read in
                # the dispatch below (see Tracer.last_dram_access).
                tracer.last_dram_access = (
                    request.service_start, now, request.bank,
                    request.row_hit,
                )
        self._sim.dispatch(request.on_complete)
        # The bank stays occupied for the data burst before accepting
        # its next request.
        self._sim.post(self._t_burst, "dram.release", bank_index)

    def _release(self, bank_index: int) -> None:
        bank = self._banks[bank_index]
        bank.busy = False
        if bank.queue:
            self._issue(bank_index, bank)

    @property
    def row_hit_rate(self) -> float:
        return self.row_hits / self.reads if self.reads else 0.0

    def stats(self) -> Dict[str, float]:
        data = {
            "reads": self.reads,
            "row_hits": self.row_hits,
            "row_conflicts": self.row_conflicts,
            "row_hit_rate": self.row_hit_rate,
            "peak_queue_depth": self.peak_queue_depth,
            "policy": self.policy,
        }
        if self.policy == "sms":
            data["walk_reads"] = self.walk_reads
        return data
