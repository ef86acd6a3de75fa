"""Workload infrastructure: address-space layout and the generator API.

A *trace* is ``List[WavefrontTrace]``; a ``WavefrontTrace`` is the
ordered list of SIMD memory instructions one wavefront executes; each
instruction is simply the list of per-lane virtual addresses (plain ints,
for speed).  The coalescer in :mod:`repro.gpu.coalescer` does the rest.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Dict, List

from repro.config import PAGE_SIZE

LaneAddresses = List[int]
WavefrontTrace = List[LaneAddresses]
Trace = List[WavefrontTrace]

#: Data arrays start here, well clear of the (unmodelled) code segment.
DEFAULT_HEAP_BASE = 0x1000_0000


class MemoryRegion:
    """A named, page-aligned virtual allocation (one program array)."""

    __slots__ = ("name", "base", "size")

    def __init__(self, name: str, base: int, size: int) -> None:
        self.name = name
        self.base = base
        self.size = size

    @property
    def end(self) -> int:
        return self.base + self.size

    @property
    def pages(self) -> int:
        return (self.size + PAGE_SIZE - 1) // PAGE_SIZE

    def element(self, index: int, element_size: int = 8) -> int:
        """Virtual address of element ``index`` (bounds-checked)."""
        address = self.base + index * element_size
        if not self.base <= address < self.base + self.size:
            raise IndexError(
                f"{self.name}[{index}] (elem {element_size}B) outside region"
            )
        return address

    def checked(self, addresses: LaneAddresses) -> LaneAddresses:
        """``addresses``, after checking with one ``min`` and one ``max``
        that every one lies inside the region (``IndexError`` if not)."""
        if addresses and not (
            self.base <= min(addresses) and max(addresses) < self.base + self.size
        ):
            raise IndexError(f"{self.name}: lane address outside region")
        return addresses

    def __repr__(self) -> str:
        return f"MemoryRegion({self.name!r}, base={self.base:#x}, size={self.size})"


class VirtualAddressSpace:
    """Lays out a benchmark's arrays in virtual memory, page-aligned."""

    def __init__(self, base: int = DEFAULT_HEAP_BASE) -> None:
        self._next = base
        self.regions: Dict[str, MemoryRegion] = {}

    def allocate(self, name: str, size: int) -> MemoryRegion:
        """Reserve ``size`` bytes (rounded up to whole pages)."""
        if size <= 0:
            raise ValueError(f"allocation {name!r} must have positive size")
        if name in self.regions:
            raise ValueError(f"region {name!r} already allocated")
        pages = (size + PAGE_SIZE - 1) // PAGE_SIZE
        region = MemoryRegion(name, self._next, pages * PAGE_SIZE)
        # A guard page between arrays keeps off-by-one strides visible.
        self._next = region.end + PAGE_SIZE
        self.regions[name] = region
        return region

    @property
    def total_bytes(self) -> int:
        return sum(region.size for region in self.regions.values())

    @property
    def footprint_mb(self) -> float:
        return self.total_bytes / (1024 * 1024)


class Workload(ABC):
    """A benchmark model (one row of the paper's Table II).

    Subclasses declare the paper-reported metadata as class attributes and
    implement :meth:`build_trace`.  ``scale`` shrinks the *slice of
    execution* that is simulated (wavefronts × instructions), never the
    nominal array sizes, so the address-space shape — and hence TLB/PWC
    pressure per instruction — stays faithful while runtime stays bounded.
    """

    #: Table II abbreviation, e.g. "MVT".
    abbrev: str = ""
    #: Full benchmark name.
    name: str = ""
    #: One-line description from Table II.
    description: str = ""
    #: Memory footprint reported in Table II (MB).
    nominal_footprint_mb: float = 0.0
    #: Whether the paper classifies it as irregular.
    irregular: bool = False
    #: Benchmark suite of origin.
    suite: str = ""

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.scale = scale
        self.seed = seed
        self.address_space = VirtualAddressSpace()
        self._layout()

    @abstractmethod
    def _layout(self) -> None:
        """Allocate the benchmark's arrays into :attr:`address_space`."""

    @abstractmethod
    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate the per-wavefront instruction streams."""

    def scaled(self, value: int, minimum: int = 1) -> int:
        """Scale an iteration count, keeping at least ``minimum``."""
        return max(minimum, int(round(value * self.scale)))

    @property
    def modelled_footprint_mb(self) -> float:
        """Footprint of the modelled address space (should track Table II)."""
        return self.address_space.footprint_mb

    def __repr__(self) -> str:
        return f"{type(self).__name__}(abbrev={self.abbrev!r}, scale={self.scale})"
