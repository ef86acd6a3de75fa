"""Pannotia graph-analytics models: SSSP, MIS, Color.

Pannotia kernels process graphs in CSR form.  Although graph analytics is
irregular *in general*, the paper's measurements put these three inputs
in the regular, translation-insensitive group: frontier nodes are handled
by consecutive lanes (coalesced offset/property reads) and their edge
lists are contiguous runs of the edge array, so lanes mostly touch a
handful of pages per instruction.  We model exactly that: coalesced node
sweeps plus short-span edge gathers with bounded page divergence.
"""

from __future__ import annotations

import random

from repro.config import PAGE_SIZE
from repro.workloads.base import Trace, WavefrontTrace, Workload
from repro.workloads.synthetic import coalesced

INT = 4


class _CSRGraphWorkload(Workload):
    """Shared CSR traversal machinery for the Pannotia models."""

    #: Total CSR footprint to model (MB), split edges vs node arrays.
    footprint_mb = 100.0
    iterations_per_wavefront = 72
    #: Pages a single edge-gather instruction may straddle (low: these
    #: inputs behave regularly per the paper).
    edge_span_pages = 3

    def _layout(self) -> None:
        edge_bytes = int(self.footprint_mb * 0.8 * 1024 * 1024)
        node_bytes = int(self.footprint_mb * 0.2 * 1024 * 1024)
        self.edges = self.address_space.allocate("col_idx", edge_bytes)
        self.nodes = self.address_space.allocate("row_offsets", node_bytes)

    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate per-wavefront instruction streams (see Workload)."""
        iterations = self.scaled(self.iterations_per_wavefront)
        node_elements = self.nodes.size // INT
        edge_elements = self.edges.size // INT
        span_elements = self.edge_span_pages * PAGE_SIZE // INT
        # Consecutive gathers advance a fraction of a span: mostly the
        # same pages as the previous step (CSR edge lists of consecutive
        # frontier nodes are contiguous), so translations almost always
        # hit the TLBs — the paper's "regular" behaviour.
        advance = max(1, span_elements // 4)
        # Each lane's element offset into the gathered run, before jitter.
        spreads = [
            (lane * span_elements) // wavefront_size for lane in range(wavefront_size)
        ]
        edges = self.edges
        trace: Trace = []
        for wavefront_index in range(num_wavefronts):
            rng = random.Random(f"{self.seed}:{self.abbrev}:{wavefront_index}")
            stream: WavefrontTrace = []
            node_cursor = (wavefront_index * wavefront_size * iterations) % (
                node_elements - wavefront_size * (iterations + 1)
            )
            edge_cursor = (
                wavefront_index * edge_elements // max(1, num_wavefronts)
            ) % max(1, edge_elements - span_elements - iterations * advance - 8)
            for step in range(iterations):
                # 1. Read row offsets for 64 consecutive frontier nodes.
                stream.append(
                    coalesced(
                        self.nodes,
                        node_cursor + step * wavefront_size,
                        wavefront_size,
                        INT,
                    )
                )
                # 2. Gather the nodes' edge lists: a short contiguous run
                # of the edge array, with small per-lane jitter.
                start = edges.base + edge_cursor * INT
                stream.append(
                    edges.checked(
                        [
                            start + (spread + rng.randrange(8)) * INT
                            for spread in spreads
                        ]
                    )
                )
                edge_cursor += advance
            trace.append(stream)
        return trace


class SSSP(_CSRGraphWorkload):
    """Single-source shortest paths."""

    abbrev = "SSP"
    name = "SSSP"
    description = "Shortest path search algorithm"
    nominal_footprint_mb = 104.32
    irregular = False
    suite = "Pannotia"
    footprint_mb = 104.32


class MIS(_CSRGraphWorkload):
    """Maximal independent set."""

    abbrev = "MIS"
    name = "MIS"
    description = "Maximal subset search algorithm"
    nominal_footprint_mb = 72.38
    irregular = False
    suite = "Pannotia"
    footprint_mb = 72.38


class Color(_CSRGraphWorkload):
    """Graph colouring."""

    abbrev = "CLR"
    name = "Color"
    description = "Graph coloring algorithm"
    nominal_footprint_mb = 26.68
    irregular = False
    suite = "Pannotia"
    footprint_mb = 26.68
