"""Address-translation substrate: page tables, TLBs, PWCs, walkers, IOMMU."""

from repro.mmu.page_table import FrameAllocator, PageTable
from repro.mmu.tlb import TLB
from repro.mmu.pwc import PageWalkCache
from repro.mmu.walker import PageTableWalker
from repro.mmu.iommu import IOMMU

__all__ = [
    "FrameAllocator",
    "IOMMU",
    "PageTable",
    "PageTableWalker",
    "PageWalkCache",
    "TLB",
]
