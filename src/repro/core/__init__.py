"""The paper's contribution: SIMT-aware scheduling of page table walks.

This package is deliberately independent of the GPU/memory substrates:
schedulers operate on :class:`~repro.core.buffer.PendingWalkBuffer`
entries and nothing else, so they can be unit-tested (and reused) without
spinning up a full simulation.
"""

from repro.core.request import TranslationRequest, WalkBufferEntry
from repro.core.buffer import PendingWalkBuffer
from repro.core.scoring import ScoreTable
from repro.core.aging import AgingPolicy
from repro.core.schedulers import (
    BatchScheduler,
    FCFSScheduler,
    FairShareScheduler,
    RandomScheduler,
    SJFScheduler,
    SIMTAwareScheduler,
    WalkScheduler,
    available_schedulers,
    make_scheduler,
)
# Registers the zoo's three policies with ``make_scheduler``.
from repro.core.zoo import IRUScheduler, MosaicScheduler, WaSPScheduler

__all__ = [
    "AgingPolicy",
    "BatchScheduler",
    "FCFSScheduler",
    "FairShareScheduler",
    "IRUScheduler",
    "MosaicScheduler",
    "PendingWalkBuffer",
    "RandomScheduler",
    "SJFScheduler",
    "SIMTAwareScheduler",
    "ScoreTable",
    "TranslationRequest",
    "WaSPScheduler",
    "WalkBufferEntry",
    "WalkScheduler",
    "available_schedulers",
    "make_scheduler",
]
