"""XSBench: the DoE Monte Carlo neutron-transport proxy application.

XSBench's hot loop computes macroscopic cross-sections: every particle
samples a random energy, *binary-searches* the unionized energy grid for
the bracketing gridpoint, then gathers per-nuclide data at data-dependent
offsets.  Two properties matter for address translation:

* The early binary-search probes land on a small set of pages (the upper
  levels of the implicit search tree are shared by every lookup), giving
  partial TLB locality that heavy translation traffic can thrash away.
* The final gathers are effectively uniform-random over a ~210 MB grid:
  64 lanes, 64 unrelated pages — the paper's worst-divergence pattern.

The mix yields SIMD instructions whose translation work ranges from
"free" (search root, TLB-hot) to 64 walks of 4 accesses each, which is
exactly the variance a shortest-job-first walk scheduler exploits.
"""

from __future__ import annotations

import random
from typing import List, Tuple

from repro.config import PAGE_SIZE
from repro.workloads.base import Trace, WavefrontTrace, Workload
from repro.workloads.synthetic import coalesced

DOUBLE = 8

#: Binary-search probe levels: (distinct pages per instruction,
#: hot-set size in pages).  Level k of a binary search over the grid can
#: touch at most 2^(k-1) distinct pages; the deepest modelled level's hot
#: set (400 pages) exceeds the baseline 512-entry GPU L2 TLB, so its
#: locality survives only when the TLBs are not being thrashed — the
#: mechanism behind the paper's Fig 11 walk-count reduction.
SEARCH_LEVELS: Tuple[Tuple[int, int], ...] = ((1, 2), (4, 64), (16, 400))

#: Distinct pages per final nuclide gather, drawn from a 4096-page
#: working subset of the grid (lookup energies cluster around resonance
#: regions rather than covering all 54k grid pages uniformly).
GATHER_PAGES = 48
GATHER_SET_PAGES = 4096


class XSBench(Workload):
    """Monte Carlo neutronics cross-section lookup kernel."""

    abbrev = "XSB"
    name = "Xsbench"
    description = "Monte Carlo neutronics application"
    nominal_footprint_mb = 212.25
    irregular = True
    suite = "DOE proxy"

    #: Grid lookups per wavefront; each emits one instruction per search
    #: level plus the final random gather.
    lookups_per_wavefront = 10

    def _layout(self) -> None:
        # The unionized energy grid dominates the footprint; particle
        # state is a small, contiguous, streamed array.
        self.grid = self.address_space.allocate(
            "unionized_grid", int(210.0 * 1024 * 1024)
        )
        self.particles = self.address_space.allocate(
            "particles", int(2.2 * 1024 * 1024)
        )

    def _search_instruction(
        self,
        rng: random.Random,
        pages_per_instruction: int,
        hot_set_pages: int,
        wavefront_size: int,
    ) -> List[int]:
        """One binary-search probe: lanes spread over the level's hot set."""
        total_pages = self.grid.pages
        stride = max(1, total_pages // hot_set_pages)
        addresses: List[int] = []
        for lane in range(wavefront_size):
            # Lanes cluster: `pages_per_instruction` distinct probe pages,
            # each drawn from the level's evenly-spaced hot positions.
            slot = rng.randrange(hot_set_pages) if lane % (
                wavefront_size // pages_per_instruction or 1
            ) == 0 else None
            if slot is not None:
                page = (slot * stride) % total_pages
                current_page = page
            addresses.append(
                self.grid.base + current_page * PAGE_SIZE + (lane * 64) % PAGE_SIZE
            )
        return addresses

    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate per-wavefront instruction streams (see Workload)."""
        lookups = self.scaled(self.lookups_per_wavefront)
        total_pages = self.grid.pages
        trace: Trace = []
        for wavefront_index in range(num_wavefronts):
            rng = random.Random(f"{self.seed}:{wavefront_index}")
            stream: WavefrontTrace = []
            particle_cursor = (wavefront_index * wavefront_size) % (
                self.particles.size // DOUBLE - wavefront_size
            )
            for _ in range(lookups):
                # Coalesced particle-state read (energy/material sample).
                stream.append(
                    coalesced(self.particles, particle_cursor, wavefront_size, DOUBLE)
                )
                # Binary-search probes, shallow to deep.
                for pages_per_instruction, hot_set in SEARCH_LEVELS:
                    stream.append(
                        self._search_instruction(
                            rng, pages_per_instruction, hot_set, wavefront_size
                        )
                    )
                # Final nuclide gather: lanes pair up on GATHER_PAGES
                # unrelated pages of the gather working set.
                gather_stride = max(1, total_pages // GATHER_SET_PAGES)
                pages = [
                    (rng.randrange(GATHER_SET_PAGES) * gather_stride) % total_pages
                    for _ in range(GATHER_PAGES)
                ]
                stream.append(
                    [
                        self.grid.base
                        + pages[lane % GATHER_PAGES] * PAGE_SIZE
                        + (lane * 64) % PAGE_SIZE
                        for lane in range(wavefront_size)
                    ]
                )
            trace.append(stream)
        return trace
