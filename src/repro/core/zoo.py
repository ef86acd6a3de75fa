"""The scheduler zoo: policy families transplanted from related work.

The paper closes by framing page-walk scheduling as an open design
space.  This module populates it with three families the related-work
section points at, each expressed as a pluggable
:class:`~repro.core.schedulers.WalkScheduler` so the registry, CLI,
fleet sweeps and checkpointing treat them exactly like the paper's own
policies:

``wasp``
    Distance-ahead walk prefetching in the spirit of WASP/inter-core
    cooperative TLB prefetchers: SIMT-aware selection, plus the IOMMU
    walk-prefetches the next ``prefetch_distance`` pages of every
    completed demand walk on otherwise-idle walkers.  Demand traffic
    always wins — prefetches only consume walkers that would idle.

``iru``
    An IRU-style irregular-access reorder unit (Segura et al.): TLB
    misses stage in a small window *before* the pending buffer, are
    admitted sorted by (instruction, page), and same-page requests
    coalesce against pending walks.  Divergent bursts therefore enter
    the buffer as contiguous, smaller jobs — which shortest-job-first
    then schedules; selection itself is plain SJF.

``mosaic``
    Mosaic-style dynamic large-page promotion (Ausavarungnirun et
    al.): the IOMMU counts distinct base pages walked per 2 MB region;
    a region crossing ``promote_threshold`` is promoted into a small
    region TLB whose hits bypass the walk machinery entirely.  LRU
    capacity evictions are demotions, so promotion adapts under
    contention.  Selection is SIMT-aware.

The fourth family named by the issue — SMS-style staged batching/QoS
(Ausavarungnirun et al., ISCA 2012) — schedules the *DRAM channel*,
not the walk buffer, so it lives in :mod:`repro.memory.controller` as
memory-controller policy ``"sms"`` (``DRAMConfig.controller``).

All knobs are class attributes read by the IOMMU at construction
(see ``mmu/iommu.py``); they are configuration, not run state, and a
checkpoint carries them with the pickled scheduler instance.
"""

from __future__ import annotations

from typing import Optional

from repro.core.schedulers import (
    _FACTORIES,
    SIMTAwareScheduler,
    SJFScheduler,
)


class WaSPScheduler(SIMTAwareScheduler):
    """SIMT-aware selection + distance-ahead walk prefetch (``wasp``)."""

    name = "wasp"
    prefetch_distance = 4

    def __init__(
        self,
        aging_threshold: int = 2_000_000,
        prefetch_distance: Optional[int] = None,
    ) -> None:
        super().__init__(aging_threshold)
        if prefetch_distance is not None:
            if prefetch_distance < 0:
                raise ValueError("prefetch distance must be non-negative")
            self.prefetch_distance = prefetch_distance


class IRUScheduler(SJFScheduler):
    """Pre-buffer reorder/coalesce unit feeding plain SJF (``iru``)."""

    name = "iru"
    reorder_window_cycles = 8
    coalesce_pending = True

    def __init__(
        self,
        aging_threshold: int = 2_000_000,
        reorder_window: Optional[int] = None,
    ) -> None:
        super().__init__(aging_threshold)
        if reorder_window is not None:
            if reorder_window <= 0:
                raise ValueError("reorder window must be positive")
            self.reorder_window_cycles = reorder_window


class MosaicScheduler(SIMTAwareScheduler):
    """SIMT-aware selection + dynamic 2 MB promotion (``mosaic``)."""

    name = "mosaic"
    promote_threshold = 8
    region_tlb_entries = 16

    def __init__(
        self,
        aging_threshold: int = 2_000_000,
        promote_threshold: Optional[int] = None,
        region_tlb_entries: Optional[int] = None,
    ) -> None:
        super().__init__(aging_threshold)
        if promote_threshold is not None:
            if promote_threshold <= 0:
                raise ValueError("promotion threshold must be positive")
            self.promote_threshold = promote_threshold
        if region_tlb_entries is not None:
            if region_tlb_entries <= 0:
                raise ValueError("region TLB needs at least one entry")
            self.region_tlb_entries = region_tlb_entries


ZOO_FACTORIES = {
    "wasp": lambda **kw: WaSPScheduler(
        aging_threshold=kw.get("aging_threshold", 2_000_000),
        prefetch_distance=kw.get("prefetch_distance"),
    ),
    "iru": lambda **kw: IRUScheduler(
        aging_threshold=kw.get("aging_threshold", 2_000_000),
        reorder_window=kw.get("reorder_window"),
    ),
    "mosaic": lambda **kw: MosaicScheduler(
        aging_threshold=kw.get("aging_threshold", 2_000_000),
        promote_threshold=kw.get("promote_threshold"),
        region_tlb_entries=kw.get("region_tlb_entries"),
    ),
}

# Self-registration: importing this module (which
# ``schedulers._ensure_zoo`` does on every registry access) makes the
# zoo selectable by name everywhere a baseline policy is.
_FACTORIES.update(ZOO_FACTORIES)
