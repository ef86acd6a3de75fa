"""Translation geometry: base (4 KB) vs large (2 MB) pages.

The one home of the page arithmetic.  A virtual address splits into a
page offset and four :data:`~repro.config.BITS_PER_LEVEL`-bit radix
indices above it, level 4 (the root, PML4) highest and level 1 (the
leaf PTEs) lowest.  Each table node is one base page of 512 eight-byte
entries.  ``config`` states those numbers; this module derives the rest.

The paper's §VI discusses — and dismisses — large pages as a fix for
translation overheads.  To let the repository test that argument, every
translation-path component is parameterised by a
:class:`PageGeometry`: the mapping unit's size, and which radix level of
the x86-64 page table holds its leaf entry.

=============  ===========  ==========  ==============================
Geometry       Page size    Leaf level  Full walk (PWC miss)
=============  ===========  ==========  ==============================
``BASE_4K``    4 KB         1           4 memory accesses
``LARGE_2M``   2 MB         2           3 memory accesses
=============  ===========  ==========  ==============================

Throughout the MMU, a "vpn" is a *unit number* in this geometry: for
``LARGE_2M`` it identifies a 2 MB region (the 4 KB vpn shifted right by
9 bits).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import BITS_PER_LEVEL, PAGE_SIZE, PAGE_TABLE_LEVELS

#: log2 of the base page size: ``address >> PAGE_SHIFT`` is its 4 KB vpn.
PAGE_SHIFT = PAGE_SIZE.bit_length() - 1
#: Mask of one level's radix index (0x1FF).
LEVEL_MASK = (1 << BITS_PER_LEVEL) - 1


@dataclass(frozen=True)
class PageGeometry:
    """Size and page-table depth of one translation unit."""

    name: str
    #: log2 of the unit size (``PAGE_SHIFT`` for 4 KB, nine more for 2 MB).
    page_shift: int
    #: Radix level whose entry maps the unit (1 = PT leaf, 2 = PD leaf).
    leaf_level: int

    def __post_init__(self) -> None:
        if not 1 <= self.leaf_level < PAGE_TABLE_LEVELS:
            raise ValueError(
                f"leaf level must be 1..{PAGE_TABLE_LEVELS - 1}, "
                f"got {self.leaf_level}"
            )

    @property
    def page_size(self) -> int:
        return 1 << self.page_shift

    @property
    def walk_levels(self) -> int:
        """Memory accesses for a full (PWC-miss) walk."""
        return PAGE_TABLE_LEVELS - self.leaf_level + 1

    def vpn(self, virtual_address: int) -> int:
        """The unit number containing ``virtual_address``."""
        if virtual_address < 0:
            raise ValueError("virtual address must be non-negative")
        return virtual_address >> self.page_shift

    def offset(self, virtual_address: int) -> int:
        """Byte offset of the address within its unit."""
        return virtual_address & (self.page_size - 1)

    def frame_base(self, pfn: int) -> int:
        """Physical base address of frame ``pfn`` (a unit-sized frame)."""
        return pfn << self.page_shift

    def level_index(self, vpn: int, level: int) -> int:
        """Radix index used at ``level`` when walking for this unit."""
        if not self.leaf_level <= level <= PAGE_TABLE_LEVELS:
            raise ValueError(
                f"level must be {self.leaf_level}..{PAGE_TABLE_LEVELS}"
            )
        return (vpn >> (BITS_PER_LEVEL * (level - self.leaf_level))) & LEVEL_MASK

    def vpn_prefix(self, vpn: int, level: int) -> int:
        """The unit-number bits shared by all units under one ``level`` entry.

        Two units with the same prefix at level *n* are mapped through
        the same level-*n* entry, so a page-walk-cache hit there for one
        serves the other too.
        """
        if not self.leaf_level <= level <= PAGE_TABLE_LEVELS:
            raise ValueError(
                f"level must be {self.leaf_level}..{PAGE_TABLE_LEVELS}"
            )
        return vpn >> (BITS_PER_LEVEL * (level - self.leaf_level))

    @property
    def pwc_levels(self) -> tuple:
        """Upper levels the page walk caches may cache (root-first)."""
        return tuple(range(PAGE_TABLE_LEVELS, self.leaf_level, -1))


BASE_4K = PageGeometry(name="4K", page_shift=PAGE_SHIFT, leaf_level=1)
#: One level-2 entry maps the 512 base pages under it.
LARGE_2M = PageGeometry(
    name="2M", page_shift=PAGE_SHIFT + BITS_PER_LEVEL, leaf_level=2
)

_BY_NAME = {"4K": BASE_4K, "2M": LARGE_2M}


def geometry_by_name(name: str) -> PageGeometry:
    """Resolve ``"4K"`` / ``"2M"`` to a geometry."""
    try:
        return _BY_NAME[name.upper()]
    except KeyError:
        raise ValueError(
            f"unknown page size {name!r}; one of {sorted(_BY_NAME)}"
        ) from None
