"""Reusable access-pattern building blocks plus a parametric workload.

The benchmark models compose three primitive SIMD access shapes:

``coalesced``  — all lanes on consecutive elements (one or two pages);
``row_strided`` — lane *l* at ``base + (l * row_stride) + offset`` —
                  the one-workitem-per-row pattern that makes Polybench
                  kernels fully divergent when rows exceed a page;
``random``     — each lane at an independent uniform element (XSBench).

``coalesced`` and ``row_strided`` lanes form an arithmetic progression
of addresses: each is built as one ``range`` after bounds-checking the
progression's two ends (the region is contiguous, so every lane between
them is in bounds too).  ``random`` lanes need no check at all, since
``randrange`` already bounds every draw to the region.

:class:`ParametricWorkload` exposes divergence directly (pages touched
per instruction) and is used by tests, examples and ablation benches to
sweep divergence without pretending to be a specific benchmark.
"""

from __future__ import annotations

import random
from typing import List

from repro.config import PAGE_SIZE
from repro.workloads.base import (
    LaneAddresses,
    MemoryRegion,
    Trace,
    WavefrontTrace,
    Workload,
)


def _progression(
    region: MemoryRegion,
    first_element: int,
    element_step: int,
    lanes: int,
    element_size: int,
) -> LaneAddresses:
    """Lane ``l`` at element ``first_element + l * element_step``.

    Checks the first and last lane with :meth:`MemoryRegion.element`
    (``IndexError`` when either is outside the region); a zero step
    yields ``lanes`` copies of one address.
    """
    if lanes <= 0:
        return []
    first = region.element(first_element, element_size)
    region.element(first_element + (lanes - 1) * element_step, element_size)
    step = element_step * element_size
    if not step:
        return [first] * lanes
    return list(range(first, first + lanes * step, step))


def coalesced(
    region: MemoryRegion, start_element: int, lanes: int, element_size: int = 8
) -> LaneAddresses:
    """All lanes access consecutive elements from ``start_element``."""
    return _progression(region, start_element, 1, lanes, element_size)


def row_strided(
    region: MemoryRegion,
    first_row: int,
    row_elements: int,
    column: int,
    lanes: int,
    element_size: int = 8,
) -> LaneAddresses:
    """Lane ``l`` accesses ``array[first_row + l][column]`` (row-major).

    With ``row_elements * element_size`` ≥ one page, every lane lands on
    a distinct page: the fully divergent case.
    """
    return _progression(
        region, first_row * row_elements + column, row_elements, lanes, element_size
    )


def random_lanes(
    region: MemoryRegion,
    rng: random.Random,
    lanes: int,
    element_size: int = 8,
) -> LaneAddresses:
    """Each lane accesses an independent uniformly-random element."""
    max_element = region.size // element_size
    base = region.base
    return [
        base + rng.randrange(max_element) * element_size for _ in range(lanes)
    ]


class ParametricWorkload(Workload):
    """A tunable micro-workload: divergence and reuse as dials.

    ``pages_per_instruction`` controls how many distinct pages each SIMD
    instruction touches (1 = perfectly coalesced, 64 = fully divergent);
    ``reuse_window`` makes consecutive instructions revisit the same pages
    for that many instructions before moving on (temporal locality).
    """

    abbrev = "SYN"
    name = "Synthetic"
    description = "Parametric divergence/locality micro-workload"
    nominal_footprint_mb = 64.0
    irregular = True
    suite = "synthetic"

    def __init__(
        self,
        pages_per_instruction: int = 16,
        instructions_per_wavefront: int = 32,
        reuse_window: int = 4,
        footprint_mb: float = 64.0,
        pages_pattern=None,
        scale: float = 1.0,
        seed: int = 0,
    ) -> None:
        if pages_per_instruction < 1:
            raise ValueError("pages_per_instruction must be >= 1")
        if reuse_window < 1:
            raise ValueError("reuse_window must be >= 1")
        if pages_pattern is not None:
            if not pages_pattern or any(p < 1 for p in pages_pattern):
                raise ValueError("pages_pattern entries must be >= 1")
        self.pages_per_instruction = pages_per_instruction
        self.instructions_per_wavefront = instructions_per_wavefront
        self.reuse_window = reuse_window
        self.footprint_mb = footprint_mb
        #: Optional per-instruction divergence cycle, e.g. ``[1, 1, 64]``
        #: makes every third instruction fully divergent (bimodal work —
        #: the structure shortest-job-first exploits).  Overrides
        #: ``pages_per_instruction`` when given.
        self.pages_pattern = list(pages_pattern) if pages_pattern else None
        super().__init__(scale=scale, seed=seed)

    def _layout(self) -> None:
        self.data = self.address_space.allocate(
            "data", int(self.footprint_mb * 1024 * 1024)
        )

    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate per-wavefront instruction streams (see Workload)."""
        rng = random.Random(self.seed)
        total_pages = self.data.pages
        trace: Trace = []
        instructions = self.scaled(self.instructions_per_wavefront)
        for _ in range(num_wavefronts):
            wavefront: WavefrontTrace = []
            current_pages: List[int] = []
            for step in range(instructions):
                if self.pages_pattern is not None:
                    pages_now = self.pages_pattern[step % len(self.pages_pattern)]
                else:
                    pages_now = self.pages_per_instruction
                refresh = step % self.reuse_window == 0
                if refresh or pages_now > len(current_pages):
                    current_pages = [
                        rng.randrange(total_pages) for _ in range(pages_now)
                    ]
                # A narrower instruction revisits a subset of the current
                # working set (temporal locality): it hits the TLBs iff
                # the wide instruction's translations survived.
                visible = current_pages[:pages_now]
                addresses: LaneAddresses = []
                for lane in range(wavefront_size):
                    page = visible[lane % len(visible)]
                    offset = (lane * 64) % PAGE_SIZE
                    addresses.append(self.data.base + page * PAGE_SIZE + offset)
                wavefront.append(addresses)
            trace.append(wavefront)
        return trace
