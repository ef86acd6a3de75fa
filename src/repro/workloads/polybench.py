"""Polybench-GPU benchmark models: MVT, ATAX, BICG, GESUMMV.

All four are dense linear-algebra kernels whose GPU ports assign *one
workitem per matrix row*.  A row of a large row-major matrix spans many
pages, so a SIMD instruction in the row-dot-product loop makes its 64
lanes touch 64 *distinct* pages — the fully divergent pattern the paper
identifies as the address-translation bottleneck.  Their transposed
companion kernels (and vector reads) are unit-stride and coalesce
perfectly, which produces the bimodal work distribution of the paper's
Fig 3.

Matrix dimensions are chosen so the modelled footprints match the
paper's Table II: MVT 128.14 MB, ATAX 64.06 MB, BICG 128.11 MB,
GESUMMV 128.06 MB.
"""

from __future__ import annotations

from typing import List

from repro.config import PAGE_SIZE
from repro.workloads.base import MemoryRegion, Trace, WavefrontTrace, Workload
from repro.workloads.synthetic import coalesced, row_strided

DOUBLE = 8


class _RowDotWorkload(Workload):
    """Shared machinery for one-workitem-per-row matrix-vector kernels.

    Subclasses configure matrices and phase structure.  Each wavefront
    owns a block of 64 consecutive rows and sweeps the column index;
    the sweep samples ``divergent_steps`` column positions per wavefront
    (scaled), which preserves the per-page revisit ratio of the real
    ~N-iteration loop at a fraction of the simulation cost.
    """

    n: int = 4096
    #: Column positions sampled per wavefront in divergent phases.
    divergent_steps: int = 24
    #: Coalesced (transposed-kernel / vector) instructions interleaved
    #: per divergent step.
    coalesced_per_step: int = 1

    @property
    def lda(self) -> int:
        """Leading dimension: rows padded to a whole number of pages.

        GPU BLAS kernels pad matrix rows for alignment and bank conflicts;
        page-aligned rows also make all 64 lanes of the row-dot loop cross
        page boundaries at the *same* column, which produces the strongly
        bimodal translation-work distribution of the paper's Fig 3
        (many nearly-free steps, periodic 64-walk steps).
        """
        elements_per_page = PAGE_SIZE // DOUBLE
        return ((self.n + elements_per_page - 1) // elements_per_page) * (
            elements_per_page
        )

    def _matrix(self, name: str) -> MemoryRegion:
        return self.address_space.allocate(name, self.n * self.lda * DOUBLE)

    def _vector(self, name: str) -> MemoryRegion:
        return self.address_space.allocate(name, self.n * DOUBLE)

    def _divergent_matrices(self) -> List[MemoryRegion]:
        """The matrices read row-per-workitem each step (1 or 2)."""
        raise NotImplementedError

    def _coalesced_region(self) -> MemoryRegion:
        """The region streamed by the coalesced companion accesses."""
        raise NotImplementedError

    def build_trace(
        self, num_wavefronts: int = 32, wavefront_size: int = 64
    ) -> Trace:
        """Generate per-wavefront instruction streams (see Workload)."""
        steps = self.scaled(self.divergent_steps)
        column_stride = max(1, self.n // steps)
        matrices = self._divergent_matrices()
        vector = self._coalesced_region()
        trace: Trace = []
        for wavefront_index in range(num_wavefronts):
            first_row = (wavefront_index * wavefront_size) % max(
                1, self.n - wavefront_size
            )
            # A seed-dependent column phase (shared by all wavefronts:
            # the kernels launch together and sweep columns in near
            # lockstep, so their page-boundary crossings are naturally
            # synchronised).  Different seeds shift the sweep, producing
            # genuinely different traces for stability studies.
            phase = (self.seed * 131) % column_stride
            stream: WavefrontTrace = []
            for step in range(steps):
                column = (step * column_stride + phase) % self.n
                for matrix in matrices:
                    stream.append(
                        row_strided(
                            matrix, first_row, self.lda, column, wavefront_size, DOUBLE
                        )
                    )
                for extra in range(self.coalesced_per_step):
                    start = (step * wavefront_size + extra) % max(
                        1, vector.size // DOUBLE - wavefront_size
                    )
                    stream.append(coalesced(vector, start, wavefront_size, DOUBLE))
            trace.append(stream)
        return trace


class MVT(_RowDotWorkload):
    """Matrix-vector product and transpose: x1 = A·y1; x2 = Aᵀ·y2."""

    abbrev = "MVT"
    name = "MVT"
    description = "Matrix vector product and transpose"
    nominal_footprint_mb = 128.14
    irregular = True
    suite = "Polybench"
    n = 4096

    def _layout(self) -> None:
        self.a = self._matrix("A")
        for vec in ("x1", "x2", "y1", "y2"):
            self._vector(vec)

    def _divergent_matrices(self) -> List[MemoryRegion]:
        return [self.a]

    def _coalesced_region(self) -> MemoryRegion:
        # The Aᵀ·y2 kernel reads A column-per-workitem: unit-stride across
        # lanes, i.e. perfectly coalesced over the same big matrix.
        return self.a


class ATAX(_RowDotWorkload):
    """ATAX: y = Aᵀ(A·x) — divergent A·x, coalesced Aᵀ pass."""

    abbrev = "ATX"
    name = "ATAX"
    description = "Matrix transpose and vector multiplication"
    nominal_footprint_mb = 64.06
    irregular = True
    suite = "Polybench"
    n = 2896

    def _layout(self) -> None:
        self.a = self._matrix("A")
        for vec in ("x", "y", "tmp"):
            self._vector(vec)

    def _divergent_matrices(self) -> List[MemoryRegion]:
        return [self.a]

    def _coalesced_region(self) -> MemoryRegion:
        return self.a


class BICG(_RowDotWorkload):
    """BiCGStab sub-kernel: q = A·p (divergent) and s = Aᵀ·r (coalesced)."""

    abbrev = "BIC"
    name = "BICG"
    description = "Sub kernel of BiCGStab linear solver"
    nominal_footprint_mb = 128.11
    irregular = True
    suite = "Polybench"
    n = 4096
    # BICG interleaves two vector streams (r and p) with its row sweep,
    # so it issues more coalesced companions per step than MVT.
    divergent_steps = 22
    coalesced_per_step = 2

    def _layout(self) -> None:
        self.a = self._matrix("A")
        for vec in ("p", "q", "r", "s"):
            self._vector(vec)

    def _divergent_matrices(self) -> List[MemoryRegion]:
        return [self.a]

    def _coalesced_region(self) -> MemoryRegion:
        return self.a


class GESUMMV(_RowDotWorkload):
    """GESUMMV: y = α·A·x + β·B·x — *two* divergent row sweeps per step.

    Touching two large matrices per loop iteration doubles the
    translation work per instruction pair, which is why GEV has the
    heaviest tail in the paper's Fig 3 (≈31% of instructions needing 65+
    page-walk memory accesses).
    """

    abbrev = "GEV"
    name = "GESUMMV"
    description = "Scalar, vector and matrix multiplication"
    nominal_footprint_mb = 128.06
    irregular = True
    suite = "Polybench"
    n = 2896
    coalesced_per_step = 1

    def _layout(self) -> None:
        self.a = self._matrix("A")
        self.b = self._matrix("B")
        for vec in ("x", "y", "tmp"):
            self._vector(vec)

    def _divergent_matrices(self) -> List[MemoryRegion]:
        return [self.a, self.b]

    def _coalesced_region(self) -> MemoryRegion:
        return self.address_space.regions["x"]
