"""Unit tests for translation geometries (4 KB vs 2 MB pages)."""

import ast
import random
from pathlib import Path

import pytest

import repro

from repro.config import BITS_PER_LEVEL, PAGE_SIZE, PAGE_TABLE_LEVELS, PWCConfig
from repro.mmu.geometry import (
    BASE_4K,
    LARGE_2M,
    PAGE_SHIFT,
    PageGeometry,
    geometry_by_name,
)
from repro.mmu.page_table import PageTable
from repro.mmu.pwc import PageWalkCache


class TestGeometryBasics:
    def test_lookup_by_name(self):
        assert geometry_by_name("4k") is BASE_4K
        assert geometry_by_name("2M") is LARGE_2M
        with pytest.raises(ValueError):
            geometry_by_name("1G")

    def test_page_sizes(self):
        assert BASE_4K.page_size == 4096
        assert LARGE_2M.page_size == 2 * 1024 * 1024

    def test_walk_levels(self):
        assert BASE_4K.walk_levels == 4
        assert LARGE_2M.walk_levels == 3

    def test_pwc_levels(self):
        assert BASE_4K.pwc_levels == (4, 3, 2)
        assert LARGE_2M.pwc_levels == (4, 3)

    def test_invalid_leaf_level(self):
        with pytest.raises(ValueError):
            PageGeometry(name="bad", page_shift=30, leaf_level=4)

    @pytest.mark.parametrize("leaf_level", [0, PAGE_TABLE_LEVELS, 99])
    def test_invalid_leaf_level_message_matches_check(self, leaf_level):
        # The message must state the bound the check actually enforces
        # (1 .. PAGE_TABLE_LEVELS-1) and echo the offending value.
        with pytest.raises(ValueError) as excinfo:
            PageGeometry(name="bad", page_shift=30, leaf_level=leaf_level)
        message = str(excinfo.value)
        assert f"1..{PAGE_TABLE_LEVELS - 1}" in message
        assert str(leaf_level) in message

    def test_vpn_and_offset(self):
        address = 5 * (2 << 20) + 12345
        assert LARGE_2M.vpn(address) == 5
        assert LARGE_2M.offset(address) == 12345
        assert BASE_4K.vpn(address) == address >> 12

    def test_frame_base(self):
        assert LARGE_2M.frame_base(3) == 3 * (2 << 20)

    def test_unit_relationship(self):
        # 512 consecutive 4 KB pages collapse into one 2 MB unit.
        address = 0x4000_0000
        assert BASE_4K.vpn(address) >> 9 == LARGE_2M.vpn(address)

    def test_level_index_bounds(self):
        with pytest.raises(ValueError):
            LARGE_2M.level_index(0, 1)  # below the large-page leaf
        with pytest.raises(ValueError):
            BASE_4K.level_index(0, 5)


class TestBase4KArithmetic:
    """The 4 KB page arithmetic of the paper's four-level table."""

    def test_page_shift_matches_page_size(self):
        assert 1 << PAGE_SHIFT == PAGE_SIZE
        assert BASE_4K.page_shift == PAGE_SHIFT
        assert LARGE_2M.page_shift == PAGE_SHIFT + BITS_PER_LEVEL

    def test_vpn_page_boundaries(self):
        assert BASE_4K.vpn(0) == 0
        assert BASE_4K.vpn(PAGE_SIZE - 1) == 0
        assert BASE_4K.vpn(PAGE_SIZE) == 1
        assert BASE_4K.vpn(10 * PAGE_SIZE + 123) == 10

    def test_vpn_rejects_negative(self):
        with pytest.raises(ValueError):
            BASE_4K.vpn(-1)

    def test_offset(self):
        assert BASE_4K.offset(0) == 0
        assert BASE_4K.offset(PAGE_SIZE + 17) == 17
        assert BASE_4K.offset(PAGE_SIZE - 1) == PAGE_SIZE - 1

    def test_level_index_extracts_nine_bit_fields(self):
        # Distinct 9-bit fields: level1=1, level2=2, level3=3, level4=4.
        vpn = 1 | (2 << 9) | (3 << 18) | (4 << 27)
        assert [BASE_4K.level_index(vpn, level) for level in (1, 2, 3, 4)] == [
            1, 2, 3, 4,
        ]

    def test_level_index_bounds(self):
        for level in (0, 5):
            with pytest.raises(ValueError):
                BASE_4K.level_index(0, level)

    def test_vpn_prefix_bounds(self):
        for level in (0, 5):
            with pytest.raises(ValueError):
                BASE_4K.vpn_prefix(0, level)

    def test_vpn_prefix_sharing(self):
        # Two vpns in the same 2 MB region share the level-2 prefix but
        # not the full vpn.
        a, b = 0x12345, 0x12345 ^ 0x1  # differ only in level-1 index bits
        assert BASE_4K.vpn_prefix(a, 2) == BASE_4K.vpn_prefix(b, 2)
        assert BASE_4K.vpn_prefix(a, 1) != BASE_4K.vpn_prefix(b, 1)

    def test_vpn_prefix_level_4_is_coarsest(self):
        vpn = (1 << (BITS_PER_LEVEL * PAGE_TABLE_LEVELS)) - 1  # the largest
        assert BASE_4K.vpn_prefix(vpn, 4) == vpn >> 27
        assert BASE_4K.vpn_prefix(vpn, 1) == vpn


class TestRoundTripProperty:
    """vpn/offset must decompose any address losslessly:
    ``vpn(a) * page_size + offset(a) == a`` with ``offset < page_size``."""

    # The unit-boundary neighbourhoods where shift/mask bugs live, for a
    # 2 MB unit: around 0, one unit, an odd multiple, and a 4 KB-page
    # boundary *inside* a large unit (offset 0x1000 — must NOT reset).
    BOUNDARIES = [
        0, 1,
        0x1000 - 1, 0x1000, 0x1000 + 1,
        (1 << 21) - 1, 1 << 21, (1 << 21) + 1,
        5 * (1 << 21) - 1, 5 * (1 << 21), 5 * (1 << 21) + 1,
        (1 << 48) - 1,
    ]

    @pytest.mark.parametrize("geometry", [BASE_4K, LARGE_2M], ids=str)
    @pytest.mark.parametrize("address", BOUNDARIES)
    def test_boundary_round_trip(self, geometry, address):
        vpn = geometry.vpn(address)
        offset = geometry.offset(address)
        assert 0 <= offset < geometry.page_size
        assert vpn * geometry.page_size + offset == address
        assert geometry.frame_base(vpn) + offset == address

    @pytest.mark.parametrize("geometry", [BASE_4K, LARGE_2M], ids=str)
    def test_random_round_trip(self, geometry):
        rng = random.Random(2018)
        for _ in range(2000):
            address = rng.randrange(1 << 48)
            vpn = geometry.vpn(address)
            offset = geometry.offset(address)
            assert 0 <= offset < geometry.page_size
            assert vpn * geometry.page_size + offset == address

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            LARGE_2M.vpn(-1)


class TestLargePagePageTable:
    def test_walk_has_three_levels(self):
        table = PageTable(geometry=LARGE_2M)
        path = table.walk_addresses(0x123)
        assert [level for level, _ in path] == [4, 3, 2]

    def test_adjacent_units_share_upper_nodes(self):
        table = PageTable(geometry=LARGE_2M)
        path_a = table.walk_addresses(0x10)
        path_b = table.walk_addresses(0x11)
        # Levels 4 and 3 identical; leaf entries are different slots of
        # the same level-2 table page.
        assert path_a[0] == path_b[0]
        assert path_a[1] == path_b[1]
        assert path_a[2] != path_b[2]

    def test_distinct_units_get_distinct_frames(self):
        table = PageTable(geometry=LARGE_2M)
        assert table.translate(1) != table.translate(2)


class TestLargePagePWC:
    def make(self):
        return PageWalkCache(
            PWCConfig(entries_per_level=8, associativity=4), geometry=LARGE_2M
        )

    def test_cold_walk_needs_three_accesses(self):
        assert self.make().peek_accesses(0x42) == 3

    def test_fill_reduces_to_one(self):
        pwc = self.make()
        pwc.fill(0x42)
        assert pwc.peek_accesses(0x42) == 1

    def test_level3_hit_gives_two(self):
        pwc = self.make()
        pwc.fill(0)
        # Same level-3 group (bits ≥9 of the unit number equal).
        assert pwc.peek_accesses(1) == 1  # same level-3 entry? no: same L3 tag
        other = 1 << 9  # different level-3 tag, same level-4 tag
        assert pwc.peek_accesses(other) == 2


#: Module-level names that hold a page-layout number.
LAYOUT_NAMES = frozenset({
    "PAGE_SIZE", "PAGE_SHIFT", "BITS_PER_LEVEL", "PAGE_TABLE_LEVELS",
    "LEVEL_MASK", "PTE_SIZE", "PAGE",
})


def test_only_config_and_geometry_bind_the_page_layout():
    """``config`` states the layout and ``mmu/geometry`` derives from it;
    every other module imports those names instead of restating them."""
    root = Path(repro.__file__).parent
    binders = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
                targets = [node.target]
            else:
                continue
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name) and name.id in LAYOUT_NAMES:
                        binders.add((path.relative_to(root).as_posix(), name.id))
    assert binders == {
        ("config.py", "PAGE_SIZE"),
        ("config.py", "BITS_PER_LEVEL"),
        ("config.py", "PAGE_TABLE_LEVELS"),
        ("config.py", "PTE_SIZE"),
        ("mmu/geometry.py", "PAGE_SHIFT"),
        ("mmu/geometry.py", "LEVEL_MASK"),
    }
