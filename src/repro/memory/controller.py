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
in wherever the reservation-based model is used.  Bank service and release advance through registered event kinds
with the in-service request held as controller state, so queued and
in-flight reads serialise into checkpoints.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.config import LINE_SIZE, DRAMConfig
from repro.engine.simulator import Simulator
from repro.obs.trace import PID_MEMORY

#: Request sources the SMS batch former arbitrates between.
SOURCE_DATA = 0
SOURCE_WALK = 1


class _Request:
    __slots__ = (
        "address", "bank", "row", "arrival_seq", "arrival_time",
        "row_hit", "service_start", "on_complete", "source",
    )

    def __init__(
        self, address, bank, row, arrival_seq, arrival_time, on_complete,
        source=SOURCE_DATA,
    ) -> None:
        self.address = address
        self.bank = bank
        self.row = row
        self.arrival_seq = arrival_seq
        self.arrival_time = arrival_time
        self.row_hit = False
        #: Cycle the bank started serving this request (-1 while queued);
        #: ``service_start - arrival_time`` is the bank-queueing delay.
        self.service_start = -1
        self.on_complete = on_complete
        #: SOURCE_DATA or SOURCE_WALK (the SMS QoS dimension).
        self.source = source


class _Bank:
    __slots__ = ("busy", "open_row")

    def __init__(self) -> None:
        self.busy = False
        self.open_row = -1


class QueuedMemoryController:
    """Event-driven DRAM front end: queues, banks, a scheduling policy."""

    POLICIES = ("fcfs", "frfcfs", "sms")

    def __init__(
        self,
        simulator: Simulator,
        config: DRAMConfig,
        policy: str = "frfcfs",
        latency_padding: Optional[Callable[[int], int]] = None,
    ) -> None:
        if policy not in self.POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; one of {self.POLICIES}"
            )
        self._sim = simulator
        self.config = config
        self.policy = policy
        #: Optional ``f(now) -> extra_cycles`` hook; fault injection uses
        #: it to spike access latency inside chosen cycle windows.
        self._latency_padding = latency_padding
        self.padded_accesses = 0
        #: Optional :class:`~repro.obs.trace.Tracer` (read spans + queue
        #: depth counter track).
        self.tracer = None
        self._banks: List[_Bank] = [_Bank() for _ in range(config.total_banks)]
        self._queues: Dict[int, List[_Request]] = {}
        #: The request each busy bank is serving (by bank index) until
        #: its data returns — checkpointable in-flight state.
        self._in_service: Dict[int, _Request] = {}
        self._arrival_seq = 0
        #: Requests waiting in any bank queue: one added per enqueue, one
        #: taken per issue, so the depth reads in O(1).
        self._waiting = 0
        #: SMS batch former: bank index -> [source, remaining credits]
        #: for the batch that bank is currently committed to.
        self._sms_batch: Dict[int, List[int]] = {}
        self.reads = 0
        self.walk_reads = 0
        self.row_hits = 0
        self.row_conflicts = 0
        self.peak_queue_depth = 0
        simulator.register("dram.complete", self._complete)
        simulator.register("dram.release", self._release)

    def _map(self, address: int) -> Tuple[int, int]:
        line = address // LINE_SIZE
        cfg = self.config
        channel = line % cfg.channels
        banks_per_channel = cfg.ranks_per_channel * cfg.banks_per_rank
        bank_in_channel = (line // cfg.channels) % banks_per_channel
        bank_index = channel * banks_per_channel + bank_in_channel
        row = address // (cfg.row_size_bytes * cfg.total_banks)
        return bank_index, row

    @property
    def queued_requests(self) -> int:
        return self._waiting

    def read(
        self, address: int, on_complete: tuple, source: int = SOURCE_DATA
    ) -> None:
        """Enqueue one read; the ``on_complete`` event tuple fires when
        data returns.  ``source`` tags the request for the SMS batch former (page-walk
        reads pass :data:`SOURCE_WALK`); other policies ignore it."""
        bank, row = self._map(address)
        now = self._sim._now
        request = _Request(
            address, bank, row, self._arrival_seq, now, on_complete, source,
        )
        self._arrival_seq += 1
        if source == SOURCE_WALK:
            self.walk_reads += 1
        self._queues.setdefault(bank, []).append(request)
        waiting = self._waiting = self._waiting + 1
        if waiting > self.peak_queue_depth:
            self.peak_queue_depth = waiting
        tracer = self.tracer
        if tracer is not None and tracer.cat_counter:
            tracer.counter(now, "dram_queue_depth", waiting, pid=PID_MEMORY)
        self._try_issue(bank)

    def _select(
        self, queue: List[_Request], bank: _Bank, bank_index: int
    ) -> _Request:
        if self.policy == "frfcfs":
            for request in queue:  # oldest row-hit first
                if request.row == bank.open_row:
                    return request
        elif self.policy == "sms":
            return self._select_sms(queue, bank, bank_index)
        return queue[0]  # fcfs fallback: the oldest

    def _select_sms(
        self, queue: List[_Request], bank: _Bank, bank_index: int
    ) -> _Request:
        """Stage 1: stick with the bank's formed batch while it has
        credits and matching requests.  Stage 2: re-arbitrate, giving a
        waiting page-walk batch priority over data.  Within either
        stage, first-ready (open-row) wins, then the oldest."""
        batch = self._sms_batch.get(bank_index)
        if batch is not None and batch[1] > 0:
            pool = [r for r in queue if r.source == batch[0]]
            if pool:
                batch[1] -= 1
                return self._first_ready(pool, bank)
        walks = [r for r in queue if r.source == SOURCE_WALK]
        pool = walks or queue
        choice = self._first_ready(pool, bank)
        self._sms_batch[bank_index] = [
            choice.source, self.config.sms_batch_cap - 1
        ]
        return choice

    @staticmethod
    def _first_ready(pool: List[_Request], bank: _Bank) -> _Request:
        for request in pool:  # oldest row-hit first
            if request.row == bank.open_row:
                return request
        return pool[0]

    def _try_issue(self, bank_index: int) -> None:
        bank = self._banks[bank_index]
        queue = self._queues.get(bank_index)
        if bank.busy or not queue:
            return
        request = self._select(queue, bank, bank_index)
        queue.remove(request)
        self._waiting -= 1
        cfg = self.config
        if request.row == bank.open_row:
            latency = cfg.t_cas
            self.row_hits += 1
            request.row_hit = True
        else:
            latency = cfg.t_rp + cfg.t_rcd + cfg.t_cas
            self.row_conflicts += 1
            bank.open_row = request.row
        now = self._sim._now
        if self._latency_padding is not None:
            extra = self._latency_padding(now)
            if extra > 0:
                latency += extra
                self.padded_accesses += 1
        bank.busy = True
        self.reads += 1
        request.service_start = now
        self._in_service[bank_index] = request
        self._sim.post(latency, "dram.complete", bank_index)

    def _complete(self, bank_index: int) -> None:
        request = self._in_service.pop(bank_index)
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
        self._sim.post(self.config.t_burst, "dram.release", bank_index)

    def _release(self, bank_index: int) -> None:
        self._banks[bank_index].busy = False
        self._try_issue(bank_index)

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
