"""The hardware coalescer.

When a wavefront executes a SIMD memory instruction, each active lane
produces a virtual address.  The coalescer merges lane accesses that fall
on the same cache line into one cache access, and accesses that fall on
the same page into one address-translation request (paper steps 1–2).

For a regular, unit-stride instruction all 64 lanes collapse to a handful
of lines on one page; for a fully divergent instruction nothing merges
and a single instruction needs up to 64 translations — the divergence the
paper's scheduler exists to manage.
"""

from __future__ import annotations

from typing import Dict, Iterable, List

from repro.config import LINE_SIZE
from repro.mmu.address import vpn_of


class CoalescedInstruction:
    """The coalescer's output for one SIMD memory instruction."""

    __slots__ = ("lines_by_page", "num_lanes")

    def __init__(self, lines_by_page: Dict[int, List[int]], num_lanes: int) -> None:
        #: vpn -> unique line-aligned virtual addresses on that page,
        #: in first-touch lane order.
        self.lines_by_page = lines_by_page
        self.num_lanes = num_lanes

    @property
    def num_pages(self) -> int:
        """Distinct pages touched — the instruction's translation demand."""
        return len(self.lines_by_page)

    @property
    def num_lines(self) -> int:
        """Distinct cache lines touched — the instruction's access count."""
        return sum(map(len, self.lines_by_page.values()))


def coalesce(lane_addresses: Iterable[int]) -> CoalescedInstruction:
    """Merge per-lane addresses into per-page, per-line unique accesses."""
    lines_by_page: Dict[int, List[int]] = {}
    seen_lines: Dict[int, None] = {}
    num_lanes = 0
    for address in lane_addresses:
        num_lanes += 1
        line_address = (address // LINE_SIZE) * LINE_SIZE
        if line_address in seen_lines:
            continue
        seen_lines[line_address] = None
        lines_by_page.setdefault(vpn_of(address), []).append(line_address)
    return CoalescedInstruction(lines_by_page, num_lanes)
