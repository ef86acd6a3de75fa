"""Request types flowing through the translation machinery.

A :class:`TranslationRequest` is one coalesced address-translation need —
"SIMD instruction *i* needs page *p* translated".  When it misses the
whole TLB hierarchy it becomes (or joins) a :class:`WalkBufferEntry`
pending in the IOMMU buffer; the paper's schedulers pick among those
entries.
"""

from __future__ import annotations

from typing import List, Optional

from repro.config import INSTRUCTION_ID_BITS

#: Instruction IDs are tagged with this many bits in hardware (paper §IV).
INSTRUCTION_ID_SPACE = 1 << INSTRUCTION_ID_BITS


class TranslationRequest:
    """One page-translation need of one SIMD memory instruction."""

    __slots__ = (
        "vpn",
        "instruction_id",
        "wavefront_id",
        "cu_id",
        "app_id",
        "issue_time",
        "iommu_arrival_time",
        "complete_time",
        "walk_accesses",
        "context",
    )

    def __init__(
        self,
        vpn: int,
        instruction_id: int,
        wavefront_id: int,
        cu_id: int,
        issue_time: int,
        app_id: int = 0,
    ) -> None:
        self.vpn = vpn
        #: The global dynamic-instruction number folded into the 20-bit
        #: tag space.
        self.instruction_id = instruction_id % INSTRUCTION_ID_SPACE
        self.wavefront_id = wavefront_id
        self.cu_id = cu_id
        #: Owning application in multi-tenant runs (0 when single-app).
        self.app_id = app_id
        self.issue_time = issue_time
        self.iommu_arrival_time: Optional[int] = None
        self.complete_time: Optional[int] = None
        #: Page-table memory accesses the serving walk performed (0 when
        #: the translation was satisfied by a TLB instead of a walk).
        self.walk_accesses = 0
        #: Opaque requester-owned data carried through the translation
        #: round trip to the IOMMU's ``reply_to`` sink (the GPU stores
        #: ``(wavefront, lines, inflight)`` here).  Must pickle with the
        #: system for the request to be checkpointable: plain data or
        #: model objects, no closures.
        self.context: tuple = ()

    @property
    def latency(self) -> Optional[int]:
        """End-to-end translation latency, once complete."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.issue_time

    def __repr__(self) -> str:
        return (
            f"TranslationRequest(vpn={self.vpn:#x}, "
            f"instr={self.instruction_id}, wf={self.wavefront_id})"
        )


class WalkBufferEntry:
    """A pending page-table walk in the IOMMU buffer.

    Multiple :class:`TranslationRequest` objects for the same virtual page
    can share one entry (walk coalescing): a single walk then satisfies
    all of them.
    """

    __slots__ = (
        "vpn",
        "instruction_id",
        "app_id",
        "arrival_seq",
        "arrival_time",
        "requests",
        "bypass_count",
        "estimated_accesses",
        "pinned_levels",
        "dispatch_time",
        "dispatch_seq",
        "is_prefetch",
    )

    def __init__(
        self,
        request: TranslationRequest,
        arrival_seq: int,
        arrival_time: int,
        estimated_accesses: int = 0,
    ) -> None:
        self.vpn = request.vpn
        self.instruction_id = request.instruction_id
        self.app_id = request.app_id
        self.arrival_seq = arrival_seq
        self.arrival_time = arrival_time
        self.requests: List[TranslationRequest] = [request]
        #: Number of younger entries dispatched ahead of this one (aging).
        self.bypass_count = 0
        #: PWC-probe estimate of memory accesses for this walk alone.
        self.estimated_accesses = estimated_accesses
        #: PWC levels counter-pinned when this entry was scored, recorded
        #: so the walk unpins exactly those levels — not whatever depth
        #: the walk happens to hit after intervening fills/evictions.
        self.pinned_levels: tuple = ()
        self.dispatch_time: Optional[int] = None
        self.dispatch_seq: Optional[int] = None
        #: True for walks issued by the IOMMU's prefetcher, not the GPU
        #: (fixed by the first request; attached ones never change it).
        self.is_prefetch = request.wavefront_id == PREFETCH_WAVEFRONT

    def attach(self, request: TranslationRequest) -> None:
        """Coalesce another same-page request onto this pending walk."""
        if request.vpn != self.vpn:
            raise ValueError(
                f"cannot coalesce vpn {request.vpn:#x} onto entry "
                f"for vpn {self.vpn:#x}"
            )
        self.requests.append(request)

    def __repr__(self) -> str:
        return (
            f"WalkBufferEntry(vpn={self.vpn:#x}, instr={self.instruction_id}, "
            f"seq={self.arrival_seq}, reqs={len(self.requests)})"
        )


#: Sentinel wavefront id marking prefetch-generated requests.
PREFETCH_WAVEFRONT = -1
