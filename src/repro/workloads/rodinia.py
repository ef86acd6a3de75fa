"""Rodinia benchmark models: NW (irregular), Back-prop, K-Means, Hotspot.

NW (Needleman-Wunsch) fills a huge dynamic-programming matrix along
anti-diagonals; consecutive workitems process cells one row apart, so a
SIMD instruction's lanes stride by roughly a full matrix row — divergent,
with a 531.82 MB footprint.

Back-propagation, K-Means and Hotspot are the paper's *regular* Rodinia
workloads: unit-stride streaming (BCK), small-footprint re-scanned
clustering data (KMN) and a row-stencil (HOT).  They coalesce almost
perfectly, generate little translation traffic, and serve as the paper's
"do no harm" control group (Fig 8, right half).
"""

from __future__ import annotations

from repro.workloads.base import Trace, WavefrontTrace, Workload
from repro.workloads.synthetic import coalesced

INT = 4
DOUBLE = 8


class NW(Workload):
    """Needleman-Wunsch DNA sequence alignment (anti-diagonal sweep)."""

    abbrev = "NW"
    name = "NW"
    description = "Optimization algorithm for DNA sequence alignments"
    nominal_footprint_mb = 531.82
    irregular = True
    suite = "Rodinia"

    #: DP-matrix dimension: two int matrices of n² ≈ 537 MB total
    #: (Table II: 531.82 MB).  Rows are a whole number of pages, so the
    #: anti-diagonal front crosses page boundaries for all lanes at the
    #: same step — a periodic walk burst amid cheap TLB-hot steps.
    n = 8192
    #: The GPU port processes 16×16 tiles: a wavefront's 64 lanes cover a
    #: 16-row × 4-column patch of the anti-diagonal front, touching 16
    #: distinct rows (pages) at a time.
    tile_rows = 16
    diagonals_per_wavefront = 40
    #: Columns the diagonal front advances per modelled step.  A page
    #: holds 1024 ints, so the 16-page working set is reused for
    #: ``1024 / diagonal_step`` consecutive steps before a 16-walk burst.
    diagonal_step = 256

    def _layout(self) -> None:
        self.score = self.address_space.allocate("score", self.n * self.n * INT)
        self.reference = self.address_space.allocate(
            "reference", self.n * self.n * INT
        )

    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate per-wavefront instruction streams (see Workload)."""
        diagonals = self.scaled(self.diagonals_per_wavefront)
        trace: Trace = []
        n = self.n
        tile_rows = self.tile_rows
        tile_cols = wavefront_size // tile_rows
        span = tile_cols + tile_rows + diagonals * self.diagonal_step
        # Lane l's byte offset from the tile's corner cell (i0, j0).
        lane_offsets = [
            ((lane % tile_rows) * n + lane // tile_rows - lane % tile_rows) * INT
            for lane in range(wavefront_size)
        ]
        for wavefront_index in range(num_wavefronts):
            stream: WavefrontTrace = []
            # Each wavefront owns a 16-row band and walks its tile along
            # the anti-diagonal: lane l works on cell
            # (i0 + l%16, j0 + l//16 - l%16).
            base_i = (wavefront_index * tile_rows) % (n - tile_rows)
            j_base = tile_rows + (wavefront_index * 23) % max(1, n - span - 1)
            for step in range(diagonals):
                j0 = j_base + step * self.diagonal_step
                for region in (self.reference, self.score):
                    corner = region.base + (base_i * n + j0) * INT
                    stream.append(
                        region.checked([corner + offset for offset in lane_offsets])
                    )
            trace.append(stream)
        return trace


class BackProp(Workload):
    """Neural-network back-propagation: unit-stride weight streaming."""

    abbrev = "BCK"
    name = "Back Prop."
    description = "Machine learning algorithm"
    nominal_footprint_mb = 108.03
    irregular = False
    suite = "Rodinia"

    instructions_per_wavefront = 80

    def _layout(self) -> None:
        self.weights = self.address_space.allocate(
            "weights", int(107.0 * 1024 * 1024)
        )
        self.units = self.address_space.allocate("units", int(1.0 * 1024 * 1024))

    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate per-wavefront instruction streams (see Workload)."""
        instructions = self.scaled(self.instructions_per_wavefront)
        elements = self.weights.size // DOUBLE
        trace: Trace = []
        for wavefront_index in range(num_wavefronts):
            stream: WavefrontTrace = []
            # Wavefronts partition the weight matrix and stream through
            # their slice with perfectly coalesced accesses.
            slice_base = (wavefront_index * elements // max(1, num_wavefronts)) % (
                elements - wavefront_size * (instructions + 1)
            )
            for step in range(instructions):
                stream.append(
                    coalesced(
                        self.weights,
                        slice_base + step * wavefront_size,
                        wavefront_size,
                        DOUBLE,
                    )
                )
            trace.append(stream)
        return trace


class KMeans(Workload):
    """K-Means clustering: a small feature array re-scanned every pass."""

    abbrev = "KMN"
    name = "K-Means"
    description = "Clustering algorithm"
    nominal_footprint_mb = 4.33
    irregular = False
    suite = "Rodinia"

    passes = 12
    instructions_per_pass = 8

    def _layout(self) -> None:
        self.features = self.address_space.allocate(
            "features", int(4.2 * 1024 * 1024)
        )
        self.centroids = self.address_space.allocate(
            "centroids", int(0.1 * 1024 * 1024)
        )

    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate per-wavefront instruction streams (see Workload)."""
        passes = self.scaled(self.passes)
        per_pass = self.instructions_per_pass
        elements = self.features.size // DOUBLE
        trace: Trace = []
        for wavefront_index in range(num_wavefronts):
            stream: WavefrontTrace = []
            slice_base = (wavefront_index * elements // max(1, num_wavefronts)) % (
                elements - wavefront_size * (per_pass + 1)
            )
            for _ in range(passes):
                # The same slice is re-read each clustering iteration —
                # after the first pass, translations all hit the TLBs.
                for step in range(per_pass):
                    stream.append(
                        coalesced(
                            self.features,
                            slice_base + step * wavefront_size,
                            wavefront_size,
                            DOUBLE,
                        )
                    )
                stream.append(coalesced(self.centroids, 0, wavefront_size, DOUBLE))
            trace.append(stream)
        return trace


class Hotspot(Workload):
    """Hotspot thermal simulation: a three-row stencil sweep."""

    abbrev = "HOT"
    name = "Hotspot"
    description = "Processor thermal simulation algorithm"
    nominal_footprint_mb = 12.02
    irregular = False
    suite = "Rodinia"

    #: Grid dimension: two float grids of n² ≈ 12 MB.
    n = 1224
    #: Row blocks processed per wavefront; each sweeps the row in
    #: 64-column tiles, so one row's pages are reused ~n/64 times.
    row_blocks_per_wavefront = 10

    def _layout(self) -> None:
        self.temp = self.address_space.allocate("temp", self.n * self.n * INT)
        self.power = self.address_space.allocate("power", self.n * self.n * INT)

    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate per-wavefront instruction streams (see Workload)."""
        row_blocks = self.scaled(self.row_blocks_per_wavefront)
        n = self.n
        tiles = max(1, (n - wavefront_size) // wavefront_size)
        trace: Trace = []
        for wavefront_index in range(num_wavefronts):
            stream: WavefrontTrace = []
            base_row = 1 + (wavefront_index * row_blocks) % (n - row_blocks - 2)
            for block in range(row_blocks):
                row = base_row + block
                # Sweep the row left to right in 64-column tiles: lanes
                # coalesce, and each of the row's ~1.2 pages is reused by
                # ~16 consecutive tiles, so translations stay TLB-hot.
                for tile in range(tiles):
                    column = tile * wavefront_size
                    for offset in (-1, 0, 1):
                        stream.append(
                            coalesced(
                                self.temp,
                                (row + offset) * n + column,
                                wavefront_size,
                                INT,
                            )
                        )
                    stream.append(
                        coalesced(self.power, row * n + column, wavefront_size, INT)
                    )
            trace.append(stream)
        return trace
