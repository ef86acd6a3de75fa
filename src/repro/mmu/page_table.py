"""A software model of a 4-level radix page table.

The table is populated lazily: the first translation of a virtual page
allocates a physical frame (and any missing interior nodes).  This mirrors
how our synthetic workloads behave — every virtual page they touch is
backed — while letting us build page tables for multi-hundred-megabyte
footprints in microseconds.

Interior nodes are real objects with physical addresses, so a page-table
walker can compute the exact DRAM address of every PTE it fetches; those
addresses then exercise the DRAM bank/row model just like data accesses.

Every page under one leaf table (the 512 consecutive units one
lowest-level table maps) shares the walk's upper ``(level, address)``
pairs, so the table descends from the root once per leaf table, not
once per page: the first page of a leaf table creates the missing
nodes, root first, and records the pairs beside the leaf table's base
address.  A walk's path is then those pairs plus one leaf entry.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.config import BITS_PER_LEVEL, PAGE_SIZE, PAGE_TABLE_LEVELS, PTE_SIZE
from repro.mmu.geometry import BASE_4K, LEVEL_MASK, PAGE_SHIFT, PageGeometry


class FrameAllocator:
    """Hands out physical frame numbers.

    Frames are allocated with a large deterministic stride pattern so that
    consecutive virtual pages do not map to adjacent physical frames —
    spreading page-table and data traffic across DRAM banks the way a
    long-running system's fragmented physical memory would.
    """

    def __init__(self, start_frame: int = 1, stride: int = 97) -> None:
        if start_frame < 1:
            raise ValueError("frame 0 is reserved")
        self._next = start_frame
        self._stride = stride
        self._allocated = 0

    def allocate(self) -> int:
        """Return a fresh physical frame number."""
        frame = self._next
        self._next += self._stride
        self._allocated += 1
        return frame

    @property
    def allocated_frames(self) -> int:
        return self._allocated

    @property
    def allocated_bytes(self) -> int:
        return self._allocated * PAGE_SIZE


class _Node:
    """One interior page-table page: 512 slots of children."""

    __slots__ = ("base_address", "children")

    def __init__(self, base_address: int) -> None:
        self.base_address = base_address
        self.children: Dict[int, "_Node"] = {}


class PageTable:
    """A 4-level radix page table with lazy population.

    ``geometry`` selects the mapping granularity: with
    :data:`~repro.mmu.geometry.LARGE_2M` the level-2 entries are leaves
    (2 MB frames) and walks touch three levels instead of four.
    """

    def __init__(
        self,
        allocator: Optional[FrameAllocator] = None,
        geometry: PageGeometry = BASE_4K,
    ) -> None:
        self._allocator = allocator or FrameAllocator()
        self.geometry = geometry
        self._root = _Node(self._allocate_node_address())
        #: Leaf mappings: unit number -> pfn (unit-sized frame number).
        self._mappings: Dict[int, int] = {}
        self._interior_nodes = 1
        #: Leaf table number (unit >> 9) -> the walk's upper ``(level,
        #: address)`` pairs and the leaf table's base address.  Interior
        #: nodes are only ever added, so both are fixed once recorded.
        self._leaf_tables: Dict[int, Tuple[Tuple[Tuple[int, int], ...], int]] = {}

    def _allocate_node_address(self) -> int:
        return self._allocator.allocate() << PAGE_SHIFT

    @property
    def root_address(self) -> int:
        return self._root.base_address

    @property
    def mapped_pages(self) -> int:
        return len(self._mappings)

    @property
    def interior_nodes(self) -> int:
        return self._interior_nodes

    def translate(self, vpn: int) -> int:
        """Return the physical frame number for ``vpn``, mapping on demand."""
        pfn = self._mappings.get(vpn)
        if pfn is None:
            if vpn >> BITS_PER_LEVEL not in self._leaf_tables:
                self._descend(vpn >> BITS_PER_LEVEL)
            pfn = self._mappings[vpn] = self._allocator.allocate()
        return pfn

    def lookup(self, vpn: int) -> Optional[int]:
        """Return the PFN for ``vpn`` or None if unmapped (no side effects)."""
        return self._mappings.get(vpn)

    def _descend(self, table: int) -> Tuple[Tuple[Tuple[int, int], ...], int]:
        """Walk from the root to leaf table ``table``, creating missing
        nodes root first; record and return its upper pairs and base."""
        leaf = self.geometry.leaf_level
        upper: List[Tuple[int, int]] = []
        node = self._root
        for level in range(PAGE_TABLE_LEVELS, leaf, -1):
            index = (table >> (BITS_PER_LEVEL * (level - leaf - 1))) & LEVEL_MASK
            upper.append((level, node.base_address + index * PTE_SIZE))
            child = node.children.get(index)
            if child is None:
                child = _Node(self._allocate_node_address())
                node.children[index] = child
                self._interior_nodes += 1
            node = child
        found = self._leaf_tables[table] = (tuple(upper), node.base_address)
        return found

    def walk_addresses(self, vpn: int) -> Tuple[Tuple[int, int], ...]:
        """The ``(level, pte_physical_address)`` pairs a full walk touches.

        Ordered root-first: level 4 down to the geometry's leaf level.
        Ensures the mapping exists (allocating if needed, in the order
        :meth:`translate` would) so that the addresses are defined.
        """
        found = self._leaf_tables.get(vpn >> BITS_PER_LEVEL)
        if found is None:
            found = self._descend(vpn >> BITS_PER_LEVEL)
        if vpn not in self._mappings:
            self._mappings[vpn] = self._allocator.allocate()
        upper, base = found
        return upper + (
            (self.geometry.leaf_level, base + (vpn & LEVEL_MASK) * PTE_SIZE),
        )
