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

All knobs are fixed class attributes read by the IOMMU at construction
(see ``mmu/iommu.py``), and the naive twins in ``core/reference.py``
read theirs from these classes; they are configuration, not run state.
"""

from __future__ import annotations

from repro.core.schedulers import _REGISTRY, SIMTAwareScheduler, SJFScheduler


class WaSPScheduler(SIMTAwareScheduler):
    """SIMT-aware selection + distance-ahead walk prefetch (``wasp``)."""

    name = "wasp"
    prefetch_distance = 4


class IRUScheduler(SJFScheduler):
    """Pre-buffer reorder/coalesce unit feeding plain SJF (``iru``)."""

    name = "iru"
    reorder_window_cycles = 8
    coalesce_pending = True


class MosaicScheduler(SIMTAwareScheduler):
    """SIMT-aware selection + dynamic 2 MB promotion (``mosaic``)."""

    name = "mosaic"
    promote_threshold = 8
    region_tlb_entries = 16


# Importing this module, which :mod:`repro.core` does, makes the zoo
# selectable by name everywhere a baseline policy is.
_REGISTRY.update(
    (cls.name, cls) for cls in (WaSPScheduler, IRUScheduler, MosaicScheduler)
)
