"""A live metrics registry sampled on the simulator's monitor hook.

End-of-run aggregates (``IOMMU.stats()`` and friends) answer *what
happened*; the registry answers *when*: pending-buffer depth over time,
walker occupancy, PWC hit rate by level, DRAM queue depth, per-scheduler
bypass/aging counts — each sampled every N fired events alongside the
watchdog.  The whole registry serialises into
``SimulationResult.detail["metrics"]``, so a sweep's queue dynamics are
archived next to its cycle counts.

Instruments are deliberately tiny (no labels, no exposition format):

``Counter``
    Monotonic count; ``inc()``.

``Gauge``
    Point-in-time value; ``set()``.

``Histogram``
    Bucketed distribution over :class:`~repro.stats.counters.BucketHistogram`
    (bisect-indexed; mergeable across sweep workers).
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.stats.counters import BucketHistogram

#: Default sampling cadence, in fired simulator events.
DEFAULT_SAMPLE_INTERVAL_EVENTS = 10_000

#: Buckets for the sampled pending-buffer depth distribution.
_DEPTH_BUCKETS: Tuple[Tuple[int, int], ...] = (
    (0, 0), (1, 4), (5, 16), (17, 64), (65, 256), (257, 4096),
)

#: Buckets for per-walk completion latency (cycles).  Log-spaced: walk
#: latencies span PWC hits (~tens of cycles) to full four-level walks
#: behind a contended DRAM queue (thousands).  The latency-CDF figure
#: reads this histogram back via ``BucketHistogram.cdf_points``, and
#: because the buckets are fixed the per-run histograms merge exactly
#: across a sweep.
WALK_LATENCY_BUCKETS: Tuple[Tuple[int, int], ...] = (
    (0, 49), (50, 99), (100, 199), (200, 399), (400, 799),
    (800, 1599), (1600, 3199), (3200, 6399), (6400, 12799),
    (12800, 25599), (25600, 102399),
)


class Counter:
    """A monotonically increasing count."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease")
        self.value += amount


class Gauge:
    """A point-in-time value, with min/max watermarks."""

    __slots__ = ("name", "value", "min_value", "max_value", "samples")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0
        self.min_value: Optional[Union[int, float]] = None
        self.max_value: Optional[Union[int, float]] = None
        self.samples = 0

    def set(self, value: Union[int, float]) -> None:
        self.value = value
        self.samples += 1
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def merge(self, other: "Gauge") -> None:
        """Fold another run's watermarks into this gauge in place.

        Watermarks combine exactly (min of mins, max of maxes) and
        sample counts add; ``value`` becomes the merged-in gauge's last
        value — point-in-time values from different runs have no single
        truth, the watermarks are the cross-run signal.
        """
        if other.samples:
            self.value = other.value
        self.samples += other.samples
        if other.min_value is not None and (
            self.min_value is None or other.min_value < self.min_value
        ):
            self.min_value = other.min_value
        if other.max_value is not None and (
            self.max_value is None or other.max_value > self.max_value
        ):
            self.max_value = other.max_value


class MetricsRegistry:
    """Named counters, gauges and histograms plus a sampled time series.

    :meth:`sample` appends one row of every gauge's current value keyed
    by simulation cycle — the time-series backbone ("pending depth over
    time").  ``max_series_samples`` bounds memory on long runs by
    decimating: when full, every other row is dropped and the sampling
    stride doubles (the series stays evenly spaced).
    """

    def __init__(self, max_series_samples: int = 4_096) -> None:
        if max_series_samples <= 1:
            raise ValueError(
                f"max_series_samples must be > 1, got {max_series_samples}"
            )
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, BucketHistogram] = {}
        self._max_series = max_series_samples
        self._series_stride = 1
        self._series_skip = 0
        #: One row per kept sample: (cycle, {gauge name: value}).
        self.series: List[Tuple[int, Dict[str, Union[int, float]]]] = []
        self.samples_taken = 0

    # -- instrument accessors (create on first use) --------------------

    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self, name: str, buckets: Sequence[Tuple[int, int]] = _DEPTH_BUCKETS
    ) -> BucketHistogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = BucketHistogram(buckets)
        return instrument

    # -- sampling -------------------------------------------------------

    def sample(self, cycle: int) -> None:
        """Record one time-series row of every gauge's current value."""
        self.samples_taken += 1
        self._series_skip += 1
        if self._series_skip < self._series_stride:
            return
        self._series_skip = 0
        row = {name: gauge.value for name, gauge in self._gauges.items()}
        self.series.append((cycle, row))
        if len(self.series) >= self._max_series:
            self.series = self.series[::2]
            self._series_stride *= 2

    # -- merging (cross-run aggregation) --------------------------------

    def merge(self, other: "MetricsRegistry") -> None:
        """Fold another run's registry into this one in place.

        Built for sweep aggregation: counters add, gauge watermarks
        combine (:meth:`Gauge.merge`), histograms merge bucket-by-bucket
        via :meth:`BucketHistogram.merge` (raising :class:`ValueError`
        on shape mismatch — never silently misfiling counts), and
        instruments present only in ``other`` are copied in.  The
        sampled time series is deliberately *not* concatenated: cycle
        axes from different runs don't compose, so the merged registry
        keeps only this registry's own series.
        """
        for name, counter in other._counters.items():
            self.counter(name).inc(counter.value)
        for name, gauge in other._gauges.items():
            self.gauge(name).merge(gauge)
        for name, histogram in other._histograms.items():
            mine = self._histograms.get(name)
            if mine is None:
                self._histograms[name] = BucketHistogram.from_counts(
                    histogram.bucket_bounds(),
                    histogram.counts(),
                    histogram.out_of_range,
                )
            else:
                mine.merge(histogram)
        self.samples_taken += other.samples_taken

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "MetricsRegistry":
        """Rebuild a registry from an :meth:`as_dict` dump.

        The inverse of export, up to the decimated series (restored
        as-is).  Lets archived per-run dumps — e.g. each sweep result's
        ``detail["metrics"]`` — be re-materialised and merged.
        """
        registry = cls()
        for name, value in data.get("counters", {}).items():
            registry.counter(name).inc(int(value))
        for name, dump in data.get("gauges", {}).items():
            gauge = registry.gauge(name)
            gauge.value = dump["value"]
            gauge.min_value = dump.get("min")
            gauge.max_value = dump.get("max")
            gauge.samples = int(dump.get("samples", 0))
        for name, dump in data.get("histograms", {}).items():
            registry._histograms[name] = BucketHistogram.from_counts(
                [tuple(bucket) for bucket in dump["buckets"]],
                dump["counts"],
                dump.get("out_of_range", 0),
            )
        for row in data.get("series", []):
            row = dict(row)
            cycle = row.pop("cycle")
            registry.series.append((cycle, row))
        registry.samples_taken = int(data.get("samples_taken", 0))
        return registry

    # -- export ---------------------------------------------------------

    def as_dict(self) -> Dict[str, object]:
        """The whole registry as JSON-serialisable primitives."""
        return {
            "counters": {
                name: counter.value
                for name, counter in sorted(self._counters.items())
            },
            "gauges": {
                name: {
                    "value": gauge.value,
                    "min": gauge.min_value,
                    "max": gauge.max_value,
                    "samples": gauge.samples,
                }
                for name, gauge in sorted(self._gauges.items())
            },
            "histograms": {
                name: {
                    "buckets": [
                        list(bucket) for bucket in histogram.bucket_bounds()
                    ],
                    "labels": histogram.labels(),
                    "counts": histogram.counts(),
                    "total": histogram.total,
                    "out_of_range": histogram.out_of_range,
                }
                for name, histogram in sorted(self._histograms.items())
            },
            "series": [
                {"cycle": cycle, **row} for cycle, row in self.series
            ],
            "samples_taken": self.samples_taken,
        }


def install_standard_metrics(system, registry: MetricsRegistry) -> Callable[[], None]:
    """Wire the standard pipeline gauges; returns the sampler callback.

    The callback is meant for :meth:`Simulator.add_monitor`: each firing
    refreshes every gauge from live model state, feeds the depth
    histograms, and appends one time-series row.  It reads state only —
    attaching it never changes simulation behaviour.
    """
    iommu = system.iommu
    gpu = system.gpu
    memory = system.memory
    simulator = system.simulator

    pending = registry.gauge("iommu.pending_walks")
    overflow = registry.gauge("iommu.overflow_queued")
    busy_walkers = registry.gauge("iommu.busy_walkers")
    depth_histogram = registry.histogram("iommu.pending_depth")
    retired = registry.gauge("gpu.instructions_retired")
    running = registry.gauge("gpu.running_wavefronts")
    dram_queue = registry.gauge("dram.queued_requests")

    scheduler = iommu.scheduler
    walkers = iommu.walkers
    controller = memory.controller

    def sample() -> None:
        now = simulator.now
        depth = len(iommu.buffer)
        pending.set(depth)
        depth_histogram.add(depth)
        overflow.set(iommu.overflow_queued)
        busy_walkers.set(sum(1 for walker in walkers if walker.is_busy))
        retired.set(gpu.instructions_retired)
        running.set(gpu.running_wavefronts)
        if controller is not None:
            dram_queue.set(controller.queued_requests)
        # Scheduler-policy observability: bypass/aging and SJF-vs-batch
        # pick counts, for the policies that keep them.
        aging = getattr(scheduler, "aging", None)
        if aging is not None:
            registry.gauge("scheduler.aging_promotions").set(aging.promotions)
        batch_hits = getattr(scheduler, "batch_hits", None)
        if batch_hits is not None:
            registry.gauge("scheduler.batch_hits").set(batch_hits)
            registry.gauge("scheduler.sjf_picks").set(scheduler.sjf_picks)
        registry.sample(now)

    return sample


def finalize_standard_metrics(system, registry: MetricsRegistry) -> None:
    """Fold end-of-run totals into the registry's counters.

    Sampled gauges show dynamics; these counters pin the final tallies
    (PWC hit rate by level, TLB hits, walk counts) so a metrics dump is
    self-contained without cross-referencing ``detail["iommu"]``.
    """
    iommu = system.iommu
    registry.counter("iommu.requests").inc(iommu.requests)
    registry.counter("iommu.tlb_hits").inc(iommu.tlb_hits)
    registry.counter("iommu.walks_dispatched").inc(iommu.walks_dispatched)
    registry.counter("iommu.walks_completed").inc(iommu.walks_completed())
    for level, stats in sorted(iommu.pwc.stats().items()):
        registry.counter(f"pwc.{level}.hits").inc(stats["hits"])
        registry.counter(f"pwc.{level}.misses").inc(stats["misses"])
    for name, tlb in (("iommu_l1", iommu.l1_tlb), ("iommu_l2", iommu.l2_tlb),
                      ("gpu_l2", system.gpu.l2_tlb)):
        registry.counter(f"tlb.{name}.hits").inc(tlb.hits)
        registry.counter(f"tlb.{name}.misses").inc(tlb.misses)
    for walker in iommu.walkers:
        registry.counter("walker.busy_cycles").inc(walker.busy_cycles)
        registry.counter("walker.memory_accesses").inc(walker.memory_accesses)
    # Walk-stage attribution counters (see docs/OBSERVABILITY.md,
    # "Latency attribution"): aggregate cycle totals per lifecycle
    # stage, kept always-on by the engine so blame summaries and the
    # blame figure family work from a metrics-only campaign with no
    # tracing at all.  The DRAM split comes from the reservation
    # model's page-table-read accounting; under the queued controller
    # those three counters stay zero (the per-walk trace path still
    # attributes them exactly).
    memory = system.memory
    row_cycles = (
        memory.pt_read_cycles - memory.pt_queue_cycles - memory.pt_pad_cycles
    )
    registry.counter("walk.stage.enqueue_wait_cycles").inc(
        iommu.total_overflow_wait
    )
    registry.counter("walk.stage.queue_wait_cycles").inc(
        iommu.total_queue_wait
    )
    registry.counter("walk.stage.service_cycles").inc(
        iommu.total_service_time
    )
    registry.counter("walk.stage.dram_bank_queue_cycles").inc(
        memory.pt_queue_cycles
    )
    registry.counter("walk.stage.dram_row_cycles").inc(row_cycles)
    registry.counter("walk.stage.fault_pad_cycles").inc(
        memory.pt_pad_cycles
    )
    registry.counter("walk.stage.deliver_hold_cycles").inc(
        sum(walker.held_cycles for walker in iommu.walkers)
    )
    # Per-walk completion latencies, bucketed for the latency-CDF
    # figure.  Fed once at end of run from the instruction records (the
    # same source as detail["walk_latency_percentiles"]), so the
    # histogram is exact, not sampled.
    latency_histogram = registry.histogram(
        "walk.latency_cycles", WALK_LATENCY_BUCKETS
    )
    for record in system.gpu.instruction_records:
        for latency in record.walk_latencies:
            latency_histogram.add(latency)
