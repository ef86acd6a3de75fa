"""System configuration for the GPU address-translation simulator.

Every structure the paper parameterises (Table I of the paper) has a
dataclass here.  The defaults reproduce the paper's baseline system:

======================  =====================================================
GPU                     2 GHz, 8 CUs, 4 SIMD units per CU, 16-wide SIMD,
                        64 workitems per wavefront
L1 data cache           32 KB, 16-way, 64 B lines (per CU)
L2 data cache           4 MB, 16-way, 64 B lines (shared)
GPU L1 TLB              32 entries, fully associative (per CU)
GPU L2 TLB              512 entries, 16-way set associative (shared)
IOMMU                   256 buffer entries, 8 page table walkers,
                        32/256-entry L1/L2 TLBs, FCFS walk scheduling
DRAM                    DDR3-1600 (800 MHz bus), 2 channels, 2 ranks per
                        channel, 16 banks per rank
======================  =====================================================

All latencies are expressed in cycles of the 2 GHz GPU clock.
Configurations are plain frozen-ish dataclasses: construct a new one (or
use :func:`dataclasses.replace`) rather than mutating in place
mid-simulation.  Each scalar field declares the values it accepts (its
*domain*) in its ``field`` metadata, which :func:`validate` checks.
"""

from __future__ import annotations

from dataclasses import MISSING, dataclass, field, fields, replace
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.resilience.faults import FaultPlan

#: Size of a small (base) page in bytes.  The paper uses x86-64 4 KB pages.
PAGE_SIZE = 4096

#: Number of bits used to index one level of the 4-level radix page table.
BITS_PER_LEVEL = 9

#: Number of levels in an x86-64-style page table.
PAGE_TABLE_LEVELS = 4

#: Size of one page-table entry in bytes (512 entries fill a 4 KB node).
PTE_SIZE = 8

#: Cache line size in bytes.
LINE_SIZE = 64

#: Width of the instruction ID tag attached to walk requests (paper: 20 bits).
INSTRUCTION_ID_BITS = 20

#: Aging threshold (paper §IV) of every policy, naive twin and
#: :class:`IOMMUConfig`.  The paper uses two million on full-length gem5
#: runs; our traces are roughly three orders of magnitude shorter, so the
#: default scales accordingly (the ratio of threshold to total walk count
#: is comparable).
AGING_THRESHOLD = 2_000

#: Default workload footprint scale of one run (1.0 = the paper's sizes).
DEFAULT_SCALE = 1.0

#: DRAM front ends: the reservation model (:mod:`repro.memory.dram`),
#: then the queued controller's policies (:mod:`repro.memory.controller`).
DRAM_CONTROLLERS = ("reservation", "fcfs", "frfcfs", "sms")

#: Default number of wavefronts simulated per run: 2 waves of the
#: baseline GPU's 32 resident slots, so slot back-fill is exercised and
#: no single wavefront's tail dominates total cycles.
DEFAULT_WAVEFRONTS = 64

#: Integer field domains; a tuple domain lists a field's choices instead.
POSITIVE = "positive"
NON_NEGATIVE = "non-negative"


def _field(domain: Union[str, Tuple[str, ...]], default: Any = MISSING) -> Any:
    """A dataclass field whose metadata declares its ``domain``."""
    return field(default=default, metadata={"domain": domain})


def validate(config: Any) -> None:
    """Raise ``ValueError`` naming the first field of ``config`` outside
    its declared domain (``None`` passes where it is the default)."""
    for item in fields(config):
        domain = item.metadata.get("domain")
        if domain is None:
            continue
        value = getattr(config, item.name)
        if isinstance(domain, tuple):
            if value not in domain:
                raise ValueError(
                    f"{item.name} must be one of {', '.join(domain)}, got {value!r}"
                )
        elif (value is not None or item.default is not None) and (
            type(value) is not int or value < (1 if domain == POSITIVE else 0)
        ):
            raise ValueError(f"{item.name} must be a {domain} integer, got {value!r}")


@dataclass
class GPUConfig:
    """Compute-side organisation of the GPU (paper Table I, "GPU" row)."""

    num_cus: int = _field(POSITIVE, 8)
    wavefront_size: int = _field(POSITIVE, 64)
    #: Number of wavefronts that can be resident on a CU at once.  Each
    #: resident wavefront is an independent stream of SIMD instructions.
    wavefront_slots_per_cu: int = _field(POSITIVE, 4)
    #: Cycles between consecutive instruction issues from one wavefront
    #: (models the compute/decode gap between memory instructions).
    issue_gap_cycles: int = _field(NON_NEGATIVE, 20)
    #: Memory instructions a wavefront may have in flight at once.  The
    #: paper's execution model (its Fig 4: ``load A`` immediately followed
    #: by ``use A``) stalls a wavefront on each memory instruction, i.e. a
    #: window of 1.  Deeper windows overlap per-instruction walk bursts —
    #: raising interleaving — but also break the paper's premise that an
    #: instruction's last walk gates wavefront progress, which makes
    #: per-instruction SJF scoring counterproductive (see the
    #: window-depth ablation bench).
    max_outstanding_memops: int = _field(POSITIVE, 1)
    #: Unique-page translation requests the per-CU coalescer/L1-TLB port
    #: can emit per cycle.  A divergent instruction's requests trickle
    #: out over ``num_pages / coalescer_pages_per_cycle`` cycles.
    coalescer_pages_per_cycle: int = _field(POSITIVE, 1)
    #: Lookups the shared GPU L2 TLB can serve per cycle (its port is
    #: where concurrent wavefronts' request streams multiplex).
    l2_tlb_lookups_per_cycle: int = _field(POSITIVE, 1)
    #: Cycles between consecutive wavefront launches when filling the
    #: initial CU slots.  The hardware workgroup dispatcher trickles work
    #: onto the GPU; launching everything at cycle 0 would create an
    #: artificial synchronized burst of cold-TLB misses.
    dispatch_stagger_cycles: int = _field(NON_NEGATIVE, 50)

    def __post_init__(self) -> None:
        validate(self)

    @property
    def total_wavefront_slots(self) -> int:
        return self.num_cus * self.wavefront_slots_per_cu


@dataclass
class CacheConfig:
    """A set-associative cache of 64-byte lines (GPU L1/L2 data caches)."""

    size_bytes: int = _field(POSITIVE)
    associativity: int = _field(POSITIVE)
    hit_latency: int = _field(NON_NEGATIVE, 0)

    @property
    def num_lines(self) -> int:
        return self.size_bytes // LINE_SIZE

    @property
    def num_sets(self) -> int:
        return max(1, self.num_lines // self.associativity)

    def __post_init__(self) -> None:
        validate(self)
        if self.size_bytes % LINE_SIZE:
            raise ValueError(f"size_bytes must be a multiple of {LINE_SIZE}")


@dataclass
class TLBConfig:
    """A TLB level.

    ``associativity=None`` means fully associative (a single set).
    """

    entries: int = _field(POSITIVE)
    associativity: Optional[int] = _field(POSITIVE, None)
    hit_latency: int = _field(NON_NEGATIVE, 1)

    def __post_init__(self) -> None:
        validate(self)
        if self.associativity and self.entries % self.associativity:
            raise ValueError("entries must divide evenly into sets")

    @property
    def num_sets(self) -> int:
        if self.associativity is None:
            return 1
        return self.entries // self.associativity


@dataclass
class PWCConfig:
    """Page walk caches: one small cache per upper page-table level.

    The IOMMU caches translations for the top three levels of the
    four-level page table (paper §II-B).  ``entries_per_level`` is the
    capacity of each per-level cache.
    """

    entries_per_level: int = _field(POSITIVE, 16)
    associativity: int = _field(POSITIVE, 4)
    #: Enable the paper's 2-bit saturating counters that steer replacement
    #: away from entries pending requests were scored against (§IV).
    counter_guard: bool = True
    counter_bits: int = _field(POSITIVE, 2)

    def __post_init__(self) -> None:
        validate(self)
        if self.entries_per_level % self.associativity:
            raise ValueError("entries_per_level must divide evenly into sets")


@dataclass
class IOMMUConfig:
    """The IOMMU: TLBs, pending-walk buffer and the walker pool."""

    buffer_entries: int = _field(POSITIVE, 256)
    num_walkers: int = _field(POSITIVE, 8)
    #: The IOMMU TLBs.  A hit in either charges that level's
    #: ``hit_latency``; a Mosaic region-TLB hit charges the L2's.
    l1_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(32, hit_latency=20))
    l2_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(256, associativity=8, hit_latency=20)
    )
    pwc: PWCConfig = field(default_factory=PWCConfig)
    #: Scheduling policy for pending page walks.  One of the names
    #: registered in :mod:`repro.core.schedulers` ("fcfs", "random",
    #: "sjf", "batch", "simt", "fairshare") and :mod:`repro.core.zoo`
    #: ("wasp", "iru", "mosaic").
    scheduler: str = "fcfs"
    #: Aging threshold: a pending request bypassed by this many younger
    #: requests is prioritised unconditionally.
    aging_threshold: int = _field(POSITIVE, AGING_THRESHOLD)
    #: Seed for the random scheduler.
    scheduler_seed: int = 0
    #: Same-page walk merging across instructions (an MSHR-style feature
    #: the paper does not describe).  One of:
    #:
    #: * ``"off"``      — every buffered request walks independently;
    #: * ``"inflight"`` — a request whose page is already being walked
    #:   joins that walk (pure dedup; scheduler-neutral);
    #: * ``"full"``     — additionally merge with *pending* buffered
    #:   walks.  This disproportionately benefits slow schedulers: the
    #:   longer a walk sits pending, the more sharers it captures — see
    #:   the coalescing ablation bench.
    coalesce_walks: str = _field(("off", "inflight", "full"), "inflight")
    #: Extension (paper related work: inter-core cooperative TLB
    #: prefetchers): after a demand walk for page *p* completes, walk
    #: page *p+1* opportunistically — only on an otherwise-idle walker,
    #: never displacing demand traffic — and fill the IOMMU L2 TLB.
    prefetch_next_page: bool = False
    #: Cycles the scheduler spends scanning the pending-walk buffer per
    #: selection (paper §IV "Design Subtleties": every buffered request
    #: has already missed the whole TLB hierarchy, so a few scan cycles
    #: add little delay — the scan-latency ablation bench verifies it).
    scan_latency_cycles: int = _field(NON_NEGATIVE, 0)
    #: Latency for a GPU-TLB-miss request to travel to the IOMMU.
    request_latency: int = _field(NON_NEGATIVE, 100)
    #: Latency for a completed translation to travel back to the GPU.
    response_latency: int = _field(NON_NEGATIVE, 100)

    def __post_init__(self) -> None:
        validate(self)
        # Imported at call time: repro.core imports this module at load.
        from repro.core.schedulers import available_schedulers
        if self.scheduler not in available_schedulers():
            raise ValueError(
                f"unknown scheduler {self.scheduler!r}; "
                f"available: {', '.join(available_schedulers())}"
            )


@dataclass
class DRAMConfig:
    """A simplified DDR3-1600-style DRAM timing model.

    Latencies are in GPU cycles.  The defaults approximate DDR3-1600 at a
    2 GHz GPU clock: ~15 ns CAS / RCD / RP ≈ 30 GPU cycles each.
    """

    channels: int = _field(POSITIVE, 2)
    ranks_per_channel: int = _field(POSITIVE, 2)
    banks_per_rank: int = _field(POSITIVE, 16)
    row_size_bytes: int = _field(POSITIVE, 2048)
    #: Column access latency (row-buffer hit).
    t_cas: int = _field(NON_NEGATIVE, 30)
    #: Activate latency (row-buffer miss adds t_rp + t_rcd).
    t_rcd: int = _field(NON_NEGATIVE, 30)
    #: Precharge latency.
    t_rp: int = _field(NON_NEGATIVE, 30)
    #: Data-transfer occupancy of a bank per access.
    t_burst: int = _field(NON_NEGATIVE, 8)
    #: Front-end model, one of :data:`DRAM_CONTROLLERS`: "reservation"
    #: (lightweight, per-bank FIFO) or a queued controller with request
    #: scheduling ("fcfs" / "frfcfs" / "sms" — see
    #: :mod:`repro.memory.controller`).
    controller: str = _field(DRAM_CONTROLLERS, "reservation")
    #: SMS-style batch former ("sms" controller only): consecutive
    #: same-source requests a bank serves before re-arbitrating between
    #: page-walk and data traffic.
    sms_batch_cap: int = _field(POSITIVE, 4)

    def __post_init__(self) -> None:
        validate(self)

    @property
    def total_banks(self) -> int:
        return self.channels * self.ranks_per_channel * self.banks_per_rank


@dataclass
class SystemConfig:
    """Top-level configuration: the whole simulated machine (Table I)."""

    #: Translation granularity: "4K" base pages (the paper's baseline) or
    #: "2M" large pages (its §VI discussion).
    page_size: str = _field(("4K", "2M"), "4K")
    #: Oracle mode: translations resolve instantly and never miss —
    #: isolates address-translation overhead (the paper's motivating
    #: up-to-4x slowdowns are measured against exactly this ideal).
    perfect_translation: bool = False
    gpu: GPUConfig = field(default_factory=GPUConfig)
    l1_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=32 * 1024, associativity=16, hit_latency=4
        )
    )
    l2_cache: CacheConfig = field(
        default_factory=lambda: CacheConfig(
            size_bytes=4 * 1024 * 1024, associativity=16, hit_latency=30
        )
    )
    gpu_l1_tlb: TLBConfig = field(default_factory=lambda: TLBConfig(entries=32))
    gpu_l2_tlb: TLBConfig = field(
        default_factory=lambda: TLBConfig(entries=512, associativity=16, hit_latency=10)
    )
    iommu: IOMMUConfig = field(default_factory=IOMMUConfig)
    dram: DRAMConfig = field(default_factory=DRAMConfig)
    #: Deterministic fault-injection plan (resilience testing).  ``None``
    #: — or a plan with no events — means the fault-free fast path, which
    #: is bit-identical to a build without the resilience subsystem.
    faults: Optional["FaultPlan"] = None

    def __post_init__(self) -> None:
        validate(self)

    def with_scheduler(self, name: str, seed: int = 0) -> "SystemConfig":
        """Return a copy of this configuration using walk scheduler ``name``."""
        return replace(
            self, iommu=replace(self.iommu, scheduler=name, scheduler_seed=seed)
        )

    def with_l2_tlb_entries(self, entries: int) -> "SystemConfig":
        """Return a copy with a resized GPU shared L2 TLB (Fig 13 sweeps)."""
        return replace(self, gpu_l2_tlb=replace(self.gpu_l2_tlb, entries=entries))

    def with_walkers(self, num_walkers: int) -> "SystemConfig":
        """Return a copy with a different page-table walker count (Fig 13)."""
        return replace(self, iommu=replace(self.iommu, num_walkers=num_walkers))

    def with_iommu_buffer(self, entries: int) -> "SystemConfig":
        """Return a copy with a different IOMMU buffer size (Fig 14)."""
        return replace(self, iommu=replace(self.iommu, buffer_entries=entries))

    def with_page_size(self, page_size: str) -> "SystemConfig":
        """Return a copy mapping memory with "4K" or "2M" pages (§VI)."""
        return replace(self, page_size=page_size.upper())

    def with_faults(self, plan: Optional["FaultPlan"]) -> "SystemConfig":
        """Return a copy running under fault-injection plan ``plan``."""
        return replace(self, faults=plan)

    def with_dram_controller(self, controller: str) -> "SystemConfig":
        """Return a copy using DRAM front end ``controller``
        ("reservation", or a queued policy: "fcfs" / "frfcfs" / "sms")."""
        return replace(self, dram=replace(self.dram, controller=controller))


def baseline_config(scheduler: str = "fcfs") -> SystemConfig:
    """The paper's Table I baseline system with the given walk scheduler."""
    return SystemConfig().with_scheduler(scheduler)


def table1_rows(config: Optional[SystemConfig] = None) -> List[Dict[str, str]]:
    """Table I: ``config`` (default: the baseline) as labelled rows."""
    config = config or baseline_config()
    gpu, dram, iommu = config.gpu, config.dram, config.iommu
    rows = {
        # The paper's clock and SIMD organisation: no model reads them.
        "GPU": (
            f"2GHz, {gpu.num_cus} CUs, 4 SIMD per CU, 16 SIMD width, "
            f"{gpu.wavefront_size} threads per wavefront"
        ),
        "L1 Data Cache": (
            f"{config.l1_cache.size_bytes // 1024}KB, "
            f"{config.l1_cache.associativity}-way, {LINE_SIZE}B block"
        ),
        "L2 Data Cache": (
            f"{config.l2_cache.size_bytes // (1024 * 1024)}MB, "
            f"{config.l2_cache.associativity}-way, {LINE_SIZE}B block"
        ),
        "L1 TLB": f"{config.gpu_l1_tlb.entries} entries, Fully-associative",
        "L2 TLB": (
            f"{config.gpu_l2_tlb.entries} entries, "
            f"{config.gpu_l2_tlb.associativity}-way set associative"
        ),
        "IOMMU": (
            f"{iommu.buffer_entries} buffer entries, {iommu.num_walkers} page table "
            f"walkers, {iommu.l1_tlb.entries}/{iommu.l2_tlb.entries} entries for "
            f"IOMMU L1/L2 TLB, {iommu.scheduler.upper()} scheduling of page walks"
        ),
        "DRAM": (
            f"DDR3-1600, {dram.channels} channel, {dram.banks_per_rank} banks per "
            f"rank, {dram.ranks_per_channel} ranks per channel"
        ),
    }
    return [
        {"component": component, "configuration": value}
        for component, value in rows.items()
    ]
