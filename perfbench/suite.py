"""The benchmark's workloads, one set of simulations, and its checks.

A *set* is every simulation of one workload, run once through
``repro.run_many``.  The benchmark repeats the set for the requested
time; every simulation of every repetition counts as one attempted
operation.
"""

from __future__ import annotations

import gc
import json
import multiprocessing
import os
import random
import resource
import statistics
from collections import defaultdict
from dataclasses import dataclass, field
from heapq import heappop, heappush
from pathlib import Path
from time import perf_counter, process_time
from typing import Any, Dict, List, Optional, Tuple

#: Workload slice every simulation runs: ``scale`` shrinks the simulated
#: slice of each Table II application, and 32 wavefronts fill the
#: baseline GPU's 32 slots once.  Small sets give many repetitions per
#: run, which is what keeps the medians steady on a shared host.
SCALE = 0.1
WAVEFRONTS = 32
#: Forward-progress bound for ``observed``: far above any stall of a
#: healthy run at this scale, so only a real hang trips it.
WATCHDOG_CYCLES = 5_000_000

#: The simulated statistics a simulation is checked on.
STATS = (
    "total_cycles", "stall_cycles", "walks_dispatched",
    "walk_memory_accesses", "instructions",
)

REFERENCE_PATH = Path(__file__).with_name("reference.json")
#: Seeds ``reference.json`` stores.  Any other seed runs, but is checked
#: only for agreement between repetitions.
SEEDS = range(100)

#: :class:`HostProbe` time the end-to-end timings are scaled to: its
#: typical reading on the reference host (a 2-CPU container, CPython 3.11).
PROBE_REFERENCE_S = 0.040

#: Largest ``trace.residual_share`` a traced run accepts: beyond it the
#: layer split no longer explains where the time went.
RESIDUAL_BOUND = 0.10

IRREGULAR_APPS = ("XSB", "MVT", "ATX", "NW", "BIC", "GEV")
REGULAR_APPS = ("SSP", "MIS", "CLR", "BCK", "KMN", "HOT")


@dataclass(frozen=True)
class BenchWorkload:
    name: str
    why: str
    apps: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    #: ``run_many`` worker processes; 1 runs in the benchmark process.
    jobs: int = 1
    #: Queued frfcfs DRAM, metrics, watchdog and lifecycle tracing on.
    observed: bool = False

    def specs(self, seed: int) -> List[Dict[str, Any]]:
        """``run_simulation`` keyword arguments, one per simulation.
        The seed goes to the simulation only, which hands it to
        ``get_workload``."""
        from repro import TraceConfig, baseline_config

        config = baseline_config()
        extra: Dict[str, Any] = {}
        if self.observed:
            config = config.with_dram_controller("frfcfs")
            extra = dict(
                metrics=True, watchdog_cycles=WATCHDOG_CYCLES,
                trace=TraceConfig(),
            )
        return [
            dict(workload=app, scheduler=scheduler, config=config,
                 num_wavefronts=WAVEFRONTS, scale=SCALE, seed=seed, **extra)
            for app in self.apps
            for scheduler in self.schedulers
        ]


WORKLOADS: Dict[str, BenchWorkload] = {
    w.name: w
    for w in (
        BenchWorkload(
            "irregular",
            "translation-bound apps under simt: walk buffer, scheduler, "
            "IOMMU, walkers and page-table reads do the work",
            ("XSB", "MVT", "BIC"), ("simt",),
        ),
        BenchWorkload(
            "regular",
            "TLB-friendly apps under simt: trace generation, wavefront "
            "issue, data caches and DRAM data reads; bypasses the walk path",
            ("HOT", "SSP", "MIS"), ("simt",),
        ),
        BenchWorkload(
            "claims",
            "the Fig 8 sweep users run, on a reduced slice where SIMT gains "
            "about 2%: fcfs and simt on all 12 apps through run_many with "
            "2 worker processes",
            IRREGULAR_APPS + REGULAR_APPS, ("fcfs", "simt"), jobs=2,
        ),
        BenchWorkload(
            "observed",
            "XSB and MVT under simt with the queued frfcfs DRAM controller, "
            "metrics, watchdog and tracing on",
            ("XSB", "MVT"), ("simt",), observed=True,
        ),
    )
}


class _Item:
    __slots__ = ("index", "value")

    def __init__(self, index: int, value: int) -> None:
        self.index = index
        self.value = value


class HostProbe:
    """Times a fixed pure-Python kernel that shares no code with the
    program: heap pushes and pops, dict updates and attribute reads at
    random over a simulation-sized heap, the operations the simulator is
    made of.

    The host is shared, and how fast it runs Python drifts by tens of
    percent over minutes.  The end-to-end timings are divided by the
    probe's slowdown against :data:`PROBE_REFERENCE_S`, measured right
    before and after each repetition (wall-clock timings by its wall
    time, CPU-time rates by its CPU time), so they read as seconds on a
    host whose probe takes that long, and a change to the program still
    moves them one for one.
    """

    #: Objects in the probe's working set (about 8 MB) and random
    #: visits per measurement.
    ITEMS = 100_000
    VISITS = 25_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._items = [_Item(i, rng.randrange(1 << 20)) for i in range(self.ITEMS)]
        self._order = [rng.randrange(self.ITEMS) for _ in range(self.VISITS)]

    def measure(self, jobs: int = 1) -> Tuple[float, float]:
        """Wall and CPU seconds the kernel takes.  With ``jobs`` > 1 it
        runs in that many forked processes at once, means returned, so
        the probe meets the same parallel load as a ``run_many`` set with
        that many workers.  Each process builds its own working set first, as a
        worker does, rather than touching copy-on-write pages.  (Fork is
        safe here: the harness starts no threads, and ``run_many`` forks
        its workers the same way.)"""
        if jobs == 1:
            return self._kernel()
        context = multiprocessing.get_context("fork")
        receivers, processes = [], []
        for _ in range(jobs):
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(target=_probe_worker, args=(sender,))
            process.start()
            sender.close()
            receivers.append(receiver)
            processes.append(process)
        try:
            readings = [receiver.recv() for receiver in receivers]
            return (statistics.mean(wall for wall, _ in readings),
                    statistics.mean(cpu for _, cpu in readings))
        finally:
            for process in processes:
                process.join()

    def _kernel(self) -> Tuple[float, float]:
        items = self._items
        heap: list = []
        table: Dict[int, int] = {}
        start = perf_counter()
        cpu_start = process_time()
        for i in self._order:
            item = items[i]
            heappush(heap, (item.value, item.index))
            key = item.value & 65535
            table[key] = table.get(key, 0) + 1
            if len(heap) > 64:
                heappop(heap)
        return perf_counter() - start, process_time() - cpu_start


def _probe_worker(sender) -> None:
    sender.send(HostProbe()._kernel())
    sender.close()


def cpu_seconds() -> float:
    """User + system CPU of this process and its reaped children."""
    t = os.times()
    return t.user + t.system + t.children_user + t.children_system


def peak_rss_mb() -> float:
    """Peak resident set of the largest process in the tree so far: the
    benchmark process, or its largest child (``run_many`` and probe
    workers).  Neither peak can be reset, so a process measures one
    workload only; ``run.py --workload all`` starts one per workload."""
    peak_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak_kb / 1024.0


@dataclass
class SetRun:
    """One repetition of a workload's set of simulations."""

    workload: BenchWorkload
    specs: List[Dict[str, Any]]
    outcomes: list
    start: float
    end: float
    cpu_s: float
    #: How much slower than the reference host this repetition ran, in
    #: wall and in CPU time, by :class:`HostProbe` before and after it.
    host_factor: float = 1.0
    cpu_factor: float = 1.0

    @property
    def wall_s(self) -> float:
        return self.end - self.start

    @property
    def results(self) -> list:
        return [o.result for o in self.outcomes if o.ok]

    def keys(self) -> List[str]:
        return [f"{s['workload']}/{s['scheduler']}" for s in self.specs]

    def stats(self) -> Dict[str, Optional[List[int]]]:
        """Simulated statistics per ``APP/scheduler``; None if it failed."""
        return {
            key: [getattr(o.result, s) for s in STATS] if o.ok else None
            for key, o in zip(self.keys(), self.outcomes)
        }

    def setup_s(self) -> float:
        """``build_trace`` plus ``build_system``, summed over the set."""
        return sum(
            r.detail["perfbench"]["cells"].get(name, [0, 0.0])[1]
            for r in self.results
            for name in ("build_trace", "build_system")
        )

    def instructions(self) -> int:
        return sum(r.instructions for r in self.results)

    def events(self) -> int:
        return sum(r.detail["engine"]["events_processed"] for r in self.results)


def run_set(workload: BenchWorkload, seed: int) -> SetRun:
    """Run every simulation of ``workload`` once, failures recorded."""
    from repro import run_many

    specs = workload.specs(seed)
    # A finished simulation leaves reference cycles (the wired System)
    # behind; collecting them here, untimed, keeps collector pauses out
    # of the timed set and peak memory independent of repetition count.
    gc.collect()
    cpu_before = cpu_seconds()
    start = perf_counter()
    outcomes = run_many(specs, jobs=workload.jobs, return_outcomes=True)
    end = perf_counter()
    return SetRun(workload, specs, outcomes, start, end,
                  cpu_seconds() - cpu_before)


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def load_reference(name: str, seed: int) -> Optional[Dict[str, List[int]]]:
    """Stored statistics for ``name`` at ``seed``, or None if not stored."""
    with open(REFERENCE_PATH) as handle:
        table = json.load(handle)
    return table["references"].get(f"{name}/{seed}")


@dataclass
class Check:
    """Failure accounting over every simulation of every repetition."""

    reference: Optional[Dict[str, List[int]]]
    attempted: int = 0
    failures: List[str] = field(default_factory=list)
    first: Optional[Dict[str, Optional[List[int]]]] = None

    def add(self, run: SetRun) -> None:
        stats = run.stats()
        if self.first is None:
            self.first = stats
        for key, outcome in zip(run.keys(), run.outcomes):
            self.attempted += 1
            problem = self._problem(run, key, outcome, stats[key])
            if problem:
                self.failures.append(f"{key}: {problem}")

    def _problem(self, run: SetRun, key: str, outcome, got) -> Optional[str]:
        if not outcome.ok:
            return f"{outcome.error_type}: {outcome.error}"
        if self.reference is not None and got != self.reference.get(key):
            return f"stats {got} differ from reference {self.reference.get(key)}"
        if got != self.first[key]:
            return f"stats {got} differ from first repetition {self.first[key]}"
        if run.workload.observed:
            checks = outcome.result.detail["perfbench"]["cells"].get(
                "watchdog.final_check", [0])[0]
            if checks != 1:
                return "watchdog final conservation check did not run"
        return None

    @property
    def failed(self) -> int:
        return len(self.failures)


def fig8_geomean(run: SetRun) -> float:
    """FCFS/SIMT cycle geomean over the irregular apps the set ran under
    both policies; 1.0 (the empty product) when it ran no such pair."""
    stats = run.stats()
    ratios = [
        stats[f"{app}/fcfs"][0] / stats[f"{app}/simt"][0]
        for app in IRREGULAR_APPS
        if stats.get(f"{app}/fcfs") and stats.get(f"{app}/simt")
    ]
    if not ratios:
        return 1.0
    return statistics.geometric_mean(ratios)


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def end_to_end(runs: List[SetRun]) -> Dict[str, Tuple[float, str]]:
    """Medians over the repetitions of host-speed-corrected timings, plus
    peak memory and Fig 8."""
    return {
        "wall_s": (statistics.median(r.wall_s / r.host_factor for r in runs), "s"),
        "setup_s": (
            statistics.median(r.setup_s() / r.host_factor for r in runs), "s"),
        "sim_instr_per_cpu_s": (
            statistics.median(
                r.instructions() * r.cpu_factor / r.cpu_s for r in runs),
            "instr/s",
        ),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "fig8_geomean_irregular": (fig8_geomean(runs[0]), "ratio"),
    }


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def sweep_metrics(run: SetRun) -> Dict[str, Tuple[float, str]]:
    """How well ``run_many`` used its worker slots during ``run``."""
    jobs = run.workload.jobs
    ends = sorted(r.detail["perfbench"]["end"] for r in run.results)
    overheads = [
        o.elapsed_seconds
        - (o.result.detail["perfbench"]["end"] - o.result.detail["perfbench"]["start"])
        for o in run.outcomes if o.ok
    ]
    return {
        "sweep.parallel_efficiency": (_ratio(run.cpu_s, run.wall_s * jobs), "ratio"),
        "sweep.tail_idle_s": (sum(run.end - e for e in ends[-jobs:]), "s"),
        "sweep.per_spec_overhead_s": (statistics.mean(overheads), "s"),
    }


def layer_metrics(base: SetRun, traced: List[SetRun]) -> Dict[str, Tuple[float, str]]:
    """Per-layer counts and host self time, per repetition of the set.

    ``base`` is an untraced repetition (rates, sweep shape, overhead
    base); ``traced`` are repetitions with every layer span installed.
    """
    reps = len(traced)
    cells: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
    layer_self: Dict[str, float] = defaultdict(float)
    counts: Dict[str, float] = defaultdict(float)
    results = [r for run in traced for r in run.results]
    for result in results:
        record = result.detail["perfbench"]
        for name, (calls, inclusive, own, layer) in record["cells"].items():
            cell = cells[name]
            cell[0] += calls
            cell[1] += inclusive
            cell[2] += own
            if layer is not None:
                layer_self[layer] += own
        for key, value in record["counts"].items():
            counts[key] += value

    def calls(name: str) -> float:
        return cells[name][0] / reps

    def inclusive(name: str) -> float:
        return cells[name][1] / reps

    def own(name: str) -> float:
        return cells[name][2] / reps

    def layer(name: str) -> float:
        return layer_self[name] / reps

    def total(key: str) -> float:
        return counts[key] / reps

    def result_sum(fn) -> float:
        return sum(fn(r) for r in results) / reps

    monitors = [name for name in cells if name.startswith("monitor:")]
    walks = result_sum(lambda r: r.walks_dispatched)
    tlb_misses = result_sum(
        lambda r: r.detail["iommu"]["requests"] - r.detail["iommu"]["tlb_hits"])
    traced_cpu = statistics.mean(run.cpu_s for run in traced)
    metrics = {
        "engine.events": (result_sum(
            lambda r: r.detail["engine"]["events_processed"]), "count"),
        "engine.events_per_cpu_s": (base.events() / base.cpu_s, "1/s"),
        "engine.buckets": (calls("engine.pop_bucket"), "count"),
        "engine.events_per_bucket": (_ratio(
            total("engine.bucket_events"), calls("engine.pop_bucket")), "count"),
        "engine.batch_calls": (total("engine.batch_calls"), "count"),
        "engine.mean_batch_len": (_ratio(
            total("engine.batch_events"), total("engine.batch_calls")), "count"),
        "engine.self_s": (layer("engine"), "s"),
        # The event loop's own time: what no handler, monitor or entry
        # point span inside ``Simulator.run`` covers.
        "engine.loop_self_share": (_ratio(own("engine.run"), inclusive("run")),
                                   "ratio"),
        "gpu.events": (total("events:gpu"), "count"),
        "gpu.self_s": (layer("gpu"), "s"),
        "tlb.lookups": (calls("tlb.lookup"), "count"),
        "tlb.hit_rate": (_ratio(total("tlb.hits"), calls("tlb.lookup")), "ratio"),
        "tlb.self_s": (layer("mmu.tlb"), "s"),
        "iommu.translate_calls": (calls("iommu.translate"), "count"),
        "iommu.walks_dispatched": (walks, "count"),
        "iommu.coalesced_share": (_ratio(result_sum(
            lambda r: r.detail["iommu"]["coalesced"]), tlb_misses), "ratio"),
        "iommu.self_s": (layer("mmu.iommu"), "s"),
        "sched.select_calls": (calls("sched.select"), "count"),
        "sched.select_s": (inclusive("sched.select"), "s"),
        "buffer.add_s": (inclusive("buffer.add"), "s"),
        "buffer.remove_s": (inclusive("buffer.remove"), "s"),
        "core.self_s": (layer("core"), "s"),
        "walker.starts": (calls("walker.start"), "count"),
        "walker.accesses_per_walk": (_ratio(result_sum(
            lambda r: r.walk_memory_accesses), walks), "count"),
        "walker.self_s": (layer("mmu.walker"), "s"),
        "pwc.lookups": (calls("pwc.probe"), "count"),
        "pwc.hit_rate": (_ratio(total("pwc.hits"), calls("pwc.probe")), "ratio"),
        "pwc.self_s": (layer("mmu.pwc"), "s"),
        "mem.data_calls": (calls("mem.data"), "count"),
        "mem.data_self_s": (own("mem.data"), "s"),
        "mem.pt_read_calls": (calls("mem.pt_read"), "count"),
        "mem.pt_read_self_s": (own("mem.pt_read"), "s"),
        "cache.hit_rate": (_ratio(total("cache.hits"), calls("cache.access")), "ratio"),
        "memory.self_s": (layer("memory"), "s"),
        "dram.reads": (total("dram.reads"), "count"),
        "dram.batch_read_share": (_ratio(
            total("dram.vector_batch_reads"), total("dram.reads")), "ratio"),
        "dram.self_s": (layer("memory.dram"), "s"),
        "controller.self_s": (layer("memory.controller"), "s"),
        "workloads.build_trace_s": (inclusive("build_trace"), "s"),
        "experiments.self_s": (layer("experiments"), "s"),
        "obs.monitor_calls": (sum(calls(m) for m in monitors), "count"),
        "obs.monitor_s": (sum(inclusive(m) for m in monitors), "s"),
        "obs.trace_events": (result_sum(
            lambda r: r.detail.get("trace", {}).get("events_emitted", 0)), "count"),
        "obs.tracer_self_s": (own("tracer.record"), "s"),
        "obs.self_s": (layer("obs"), "s"),
        "resilience.self_s": (layer("resilience"), "s"),
        "trace.run_s": (inclusive("run"), "s"),
        "trace.overhead": (traced_cpu / base.cpu_s, "ratio"),
        "trace.residual_share": (_ratio(own("run"), inclusive("run")), "ratio"),
    }
    metrics.update(sweep_metrics(base))
    return metrics
