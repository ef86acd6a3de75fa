"""Unit tests for the radix page table and frame allocator."""

import random

import pytest

from repro.config import BITS_PER_LEVEL, PAGE_SIZE, PAGE_TABLE_LEVELS, PTE_SIZE
from repro.mmu.geometry import BASE_4K, LARGE_2M, LEVEL_MASK, PAGE_SHIFT
from repro.mmu.page_table import FrameAllocator, PageTable


class TestFrameAllocator:
    def test_frames_are_unique(self):
        alloc = FrameAllocator()
        frames = [alloc.allocate() for _ in range(100)]
        assert len(set(frames)) == 100

    def test_frame_zero_reserved(self):
        with pytest.raises(ValueError):
            FrameAllocator(start_frame=0)
        assert FrameAllocator().allocate() >= 1

    def test_accounting(self):
        alloc = FrameAllocator()
        for _ in range(5):
            alloc.allocate()
        assert alloc.allocated_frames == 5
        assert alloc.allocated_bytes == 5 * PAGE_SIZE


class TestPageTable:
    def test_translate_allocates_lazily(self):
        table = PageTable()
        assert table.mapped_pages == 0
        pfn = table.translate(0x42)
        assert pfn >= 1
        assert table.mapped_pages == 1

    def test_translate_is_stable(self):
        table = PageTable()
        assert table.translate(0x42) == table.translate(0x42)
        assert table.mapped_pages == 1

    def test_distinct_vpns_get_distinct_frames(self):
        table = PageTable()
        pfns = {table.translate(vpn) for vpn in range(64)}
        assert len(pfns) == 64

    def test_lookup_has_no_side_effects(self):
        table = PageTable()
        assert table.lookup(0x99) is None
        assert table.mapped_pages == 0
        table.translate(0x99)
        assert table.lookup(0x99) is not None

    def test_walk_addresses_has_four_levels(self):
        table = PageTable()
        path = table.walk_addresses(0x1234)
        assert len(path) == PAGE_TABLE_LEVELS
        levels = [level for level, _ in path]
        assert levels == [4, 3, 2, 1]

    def test_walk_addresses_are_page_table_entries(self):
        table = PageTable()
        for _, address in table.walk_addresses(0xABCDE):
            assert address % 8 == 0  # PTE-aligned

    def test_same_region_shares_upper_levels(self):
        table = PageTable()
        # Adjacent vpns share all interior nodes; only the leaf index
        # (within the same level-1 table page) differs.
        path_a = table.walk_addresses(0x1000)
        path_b = table.walk_addresses(0x1001)
        for (la, aa), (lb, ab) in zip(path_a[:-1], path_b[:-1]):
            assert la == lb
            assert aa == ab
        # Leaf entries live in the same table page, different slots.
        assert path_a[-1][1] != path_b[-1][1]
        assert path_a[-1][1] // PAGE_SIZE == path_b[-1][1] // PAGE_SIZE

    def test_far_apart_vpns_use_different_interior_nodes(self):
        table = PageTable()
        path_a = table.walk_addresses(0)
        path_b = table.walk_addresses(1 << 27)  # different level-4 index
        # Root access address is the same table page (the root), but the
        # level-3 tables differ.
        assert path_a[0][1] // PAGE_SIZE == path_b[0][1] // PAGE_SIZE
        assert path_a[1][1] // PAGE_SIZE != path_b[1][1] // PAGE_SIZE

    def test_interior_node_count_grows_with_spread(self):
        table = PageTable()
        before = table.interior_nodes
        table.translate(0)
        table.translate(1 << 27)
        assert table.interior_nodes > before

    def test_walk_addresses_maps_on_demand(self):
        table = PageTable()
        table.walk_addresses(0x777)
        assert table.lookup(0x777) is not None

    def test_root_address_is_page_aligned(self):
        assert PageTable().root_address % PAGE_SIZE == 0


class _PerPageTwin:
    """A page table that descends from the root for every page: on the
    first translation of a page, and again on every walk."""

    def __init__(self, geometry):
        self.geometry = geometry
        self.allocator = FrameAllocator()
        # A node is (base address, {index: child node}).
        self.root = (self.allocator.allocate() << PAGE_SHIFT, {})
        self.mappings = {}
        self.interior_nodes = 1

    def _indexes(self, vpn):
        leaf = self.geometry.leaf_level
        for level in range(PAGE_TABLE_LEVELS, leaf, -1):
            yield level, (vpn >> (BITS_PER_LEVEL * (level - leaf))) & LEVEL_MASK

    def translate(self, vpn):
        if vpn not in self.mappings:
            node = self.root
            for _, index in self._indexes(vpn):
                if index not in node[1]:
                    node[1][index] = (self.allocator.allocate() << PAGE_SHIFT, {})
                    self.interior_nodes += 1
                node = node[1][index]
            self.mappings[vpn] = self.allocator.allocate()
        return self.mappings[vpn]

    def walk_addresses(self, vpn):
        self.translate(vpn)
        path = []
        node = self.root
        for level, index in self._indexes(vpn):
            path.append((level, node[0] + index * PTE_SIZE))
            node = node[1][index]
        leaf_entry = node[0] + (vpn & LEVEL_MASK) * PTE_SIZE
        return tuple(path) + ((self.geometry.leaf_level, leaf_entry),)


@pytest.mark.parametrize("geometry", [BASE_4K, LARGE_2M], ids=["4k", "2m"])
@pytest.mark.parametrize("seed", range(3))
def test_interleaved_walks_and_translations_match_a_per_page_twin(geometry, seed):
    """Pages cluster in a few leaf tables under a few upper tables, so a
    stream mixes first touches by either call, repeat walks and new
    leaf tables under existing upper nodes."""
    rng = random.Random(seed)
    table = PageTable(geometry=geometry)
    twin = _PerPageTwin(geometry)
    upper_bits = BITS_PER_LEVEL * (PAGE_TABLE_LEVELS - geometry.leaf_level)
    regions = [rng.randrange(1 << upper_bits) << BITS_PER_LEVEL for _ in range(4)]
    regions += [region ^ (1 << 2 * BITS_PER_LEVEL) for region in regions[:2]]
    for _ in range(3000):
        vpn = rng.choice(regions) + rng.randrange(3 << BITS_PER_LEVEL)
        if rng.random() < 0.5:
            assert table.walk_addresses(vpn) == twin.walk_addresses(vpn)
        else:
            assert table.translate(vpn) == twin.translate(vpn)
        assert table.interior_nodes == twin.interior_nodes
        assert table.mapped_pages == len(twin.mappings)
    assert twin.interior_nodes > len(regions)
