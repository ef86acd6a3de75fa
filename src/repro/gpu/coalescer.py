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
from repro.mmu.geometry import PAGE_SHIFT

#: ``address & LINE_MASK`` is the address of the line holding ``address``.
LINE_MASK = -LINE_SIZE


class CoalescedInstruction:
    """The coalescer's output for one SIMD memory instruction."""

    __slots__ = ("lines_by_page", "num_lanes", "num_lines")

    def __init__(
        self, lines_by_page: Dict[int, List[int]], num_lanes: int, num_lines: int
    ) -> None:
        #: vpn -> unique line-aligned virtual addresses on that page,
        #: in first-touch lane order.
        self.lines_by_page = lines_by_page
        self.num_lanes = num_lanes
        #: Distinct cache lines touched — the instruction's access count.
        self.num_lines = num_lines

    @property
    def num_pages(self) -> int:
        """Distinct pages touched — the instruction's translation demand."""
        return len(self.lines_by_page)


def coalesce(lane_addresses: Iterable[int]) -> CoalescedInstruction:
    """Merge per-lane addresses into per-page, per-line unique accesses.

    One pass keeps each line's first touch (``dict.fromkeys``); a second
    groups those unique lines by page.  A negative address raises
    ``ValueError``.
    """
    lane_lines = [address & LINE_MASK for address in lane_addresses]
    lines = dict.fromkeys(lane_lines)
    if lines and min(lines) < 0:
        raise ValueError("virtual address must be non-negative")
    lines_by_page: Dict[int, List[int]] = {}
    for line in lines:
        page = line >> PAGE_SHIFT
        if page in lines_by_page:
            lines_by_page[page].append(line)
        else:
            lines_by_page[page] = [line]
    return CoalescedInstruction(lines_by_page, len(lane_lines), len(lines))
