"""Seeded fault-injection campaigns: randomised plans, deterministic runs.

A campaign derives a matrix of (workload, scheduler, :class:`FaultPlan`)
cases from one master seed, runs each case on a scaled-down machine
under the forward-progress watchdog, and reports a JSON-serialisable
record per case.  Everything downstream of the seed is deterministic —
running the same campaign twice must produce byte-identical reports
(CI enforces exactly that) — so a campaign diff is a real behaviour
change, never noise.

Only *safe* fault kinds (:data:`~repro.resilience.faults.SAFE_KINDS`)
are drawn: every case must still complete all of its work, merely
perturbed.  Lost-work faults (``drop_walk_completion``) are exercised
separately by the watchdog tests, where a hang is the expected outcome.
"""

from __future__ import annotations

import json
import os
import random
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.config import (
    CacheConfig,
    DRAMConfig,
    GPUConfig,
    IOMMUConfig,
    PWCConfig,
    SystemConfig,
    TLBConfig,
)
from repro.obs.fleet import FleetTelemetry
from repro.obs.trace import TraceConfig
from repro.resilience.faults import SAFE_KINDS, TLB_SITES, FaultEvent, FaultPlan

#: Workloads drawn for campaign cases: a mix of the paper's irregular
#: (XSB, SSP, MIS) and regular (MVT) behaviours.
CAMPAIGN_WORKLOADS: Tuple[str, ...] = ("MVT", "XSB", "SSP", "MIS")

#: Schedulers drawn for campaign cases.
CAMPAIGN_SCHEDULERS: Tuple[str, ...] = ("fcfs", "simt")

#: Cycle horizon faults are placed within.  Campaign runs on the tiny
#: machine finish in roughly 60k cycles, so this keeps every fault
#: inside the simulated window.
FAULT_HORIZON_CYCLES = 40_000

#: Watchdog stall budget for campaign runs — far above any legitimate
#: quiet period on the tiny machine, far below an unbounded hang.
CAMPAIGN_WATCHDOG_CYCLES = 2_000_000


def campaign_config(scheduler: str = "fcfs") -> SystemConfig:
    """The scaled-down machine campaign cases run on (fast, 4 walkers)."""
    return SystemConfig(
        gpu=GPUConfig(num_cus=4, wavefront_slots_per_cu=2),
        l1_cache=CacheConfig(size_bytes=8 * 1024, associativity=4, hit_latency=4),
        l2_cache=CacheConfig(size_bytes=256 * 1024, associativity=8, hit_latency=30),
        gpu_l1_tlb=TLBConfig(entries=16),
        gpu_l2_tlb=TLBConfig(entries=128, associativity=8, hit_latency=10),
        iommu=IOMMUConfig(
            buffer_entries=64,
            num_walkers=4,
            l1_tlb=TLBConfig(entries=16, hit_latency=20),
            l2_tlb=TLBConfig(entries=64, associativity=8, hit_latency=20),
            pwc=PWCConfig(entries_per_level=8, associativity=4),
            scheduler=scheduler,
        ),
        dram=DRAMConfig(channels=1, ranks_per_channel=1, banks_per_rank=8),
    )


def _draw_event(rng: random.Random, num_walkers: int) -> FaultEvent:
    """One seeded-random safe fault event."""
    kind = rng.choice(SAFE_KINDS)
    at_cycle = rng.randrange(1_000, FAULT_HORIZON_CYCLES)
    if kind == "delay_walk_completion":
        return FaultEvent(
            kind, at_cycle=at_cycle,
            magnitude=rng.randrange(100, 2_000), count=rng.randrange(1, 9),
        )
    if kind == "stall_walker":
        return FaultEvent(
            kind, at_cycle=at_cycle,
            target=rng.randrange(num_walkers), duration=rng.randrange(500, 5_000),
        )
    if kind == "flush_tlb":
        return FaultEvent(kind, at_cycle=at_cycle, site=rng.choice(TLB_SITES))
    if kind == "corrupt_tlb":
        return FaultEvent(
            kind, at_cycle=at_cycle,
            site=rng.choice(TLB_SITES), count=rng.randrange(1, 9),
        )
    if kind == "flush_pwc":
        return FaultEvent(kind, at_cycle=at_cycle)
    return FaultEvent(  # dram_spike
        "dram_spike", at_cycle=at_cycle,
        duration=rng.randrange(1_000, 8_000), magnitude=rng.randrange(50, 500),
    )


def generate_plan(
    seed: int, num_events: Optional[int] = None, num_walkers: int = 4
) -> FaultPlan:
    """A seeded-random safe :class:`FaultPlan` (2–5 events by default)."""
    rng = random.Random(seed)
    if num_events is None:
        num_events = rng.randrange(2, 6)
    events = tuple(_draw_event(rng, num_walkers) for _ in range(num_events))
    return FaultPlan(seed=seed, events=events)


def campaign_cases(
    seed: int, runs: int, trace_dir: Optional[str] = None
) -> List[Dict[str, Any]]:
    """The deterministic case matrix for one campaign.

    Each case is a :func:`~repro.experiments.runner.run_simulation` spec
    (config carries the fault plan) — picklable, so cases fan out over
    the resilient executor unchanged.  With ``trace_dir`` every case
    also records a full lifecycle trace — fault injections show up as
    instant events on the timeline — written to
    ``trace_dir/case_NN.json`` (Chrome/Perfetto format).
    """
    rng = random.Random(seed)
    cases: List[Dict[str, Any]] = []
    for index in range(runs):
        workload = rng.choice(CAMPAIGN_WORKLOADS)
        scheduler = rng.choice(CAMPAIGN_SCHEDULERS)
        plan = generate_plan(rng.randrange(2**31), num_walkers=4)
        config = campaign_config(scheduler).with_faults(plan)
        case: Dict[str, Any] = {
            "workload": workload,
            "config": config,
            "num_wavefronts": 8,
            "scale": 0.05,
            "seed": index,
            "watchdog_cycles": CAMPAIGN_WATCHDOG_CYCLES,
        }
        if trace_dir is not None:
            case["trace"] = TraceConfig()
            case["trace_path"] = os.path.join(trace_dir, f"case_{index:02d}.json")
        cases.append(case)
    return cases


def _case_record(case: Dict[str, Any], outcome) -> Dict[str, Any]:
    """One JSON-serialisable campaign row (no wall-clock fields)."""
    plan: FaultPlan = case["config"].faults
    record: Dict[str, Any] = {
        "workload": case["workload"],
        "scheduler": case["config"].iommu.scheduler,
        "seed": case["seed"],
        "plan_seed": plan.seed,
        "plan_events": [event.kind for event in plan.events],
        "status": outcome.status,
        "attempts": outcome.attempts,
    }
    if "trace_path" in case:
        record["trace_file"] = os.path.basename(case["trace_path"])
    if outcome.ok:
        result = outcome.result
        record.update(
            total_cycles=result.total_cycles,
            stall_cycles=result.stall_cycles,
            walks_dispatched=result.walks_dispatched,
            walk_memory_accesses=result.walk_memory_accesses,
            faults_injected=result.detail["faults"]["injected"],
        )
    else:
        record.update(error_type=outcome.error_type, error=outcome.error)
    return record


def run_campaign(
    seed: int = 0,
    runs: int = 6,
    jobs: Optional[int] = None,
    timeout: Optional[float] = None,
    retries: int = 0,
    trace_dir: Optional[str] = None,
    telemetry: Optional[FleetTelemetry] = None,
) -> Dict[str, Any]:
    """Run one seeded campaign; returns a deterministic JSON-able report.

    ``trace_dir`` additionally writes one Chrome/Perfetto trace per case
    (deterministic: simulation-cycle timestamps only), with fault
    injections annotated as instant events.  ``telemetry`` streams the
    campaign's per-case progress (including retries and timeouts) to a
    :class:`~repro.obs.fleet.FleetTelemetry` collector.

    A case that only succeeded after retries — or never did — is not
    just visible in its own record: the summary carries ``retried``
    (extra attempts across all cases) and ``timed_out`` so a silently
    re-run case can never hide inside an "all completed" campaign.
    """
    from repro.experiments.runner import run_many_resilient

    if trace_dir is not None:
        os.makedirs(trace_dir, exist_ok=True)
    cases = campaign_cases(seed, runs, trace_dir=trace_dir)
    outcomes = run_many_resilient(
        cases, jobs=jobs, timeout=timeout, retries=retries,
        telemetry=telemetry,
    )
    records = [
        _case_record(case, outcome) for case, outcome in zip(cases, outcomes)
    ]
    return {
        "campaign_seed": seed,
        "runs": runs,
        "completed": sum(1 for r in records if r["status"] == "ok"),
        "retried": sum(max(0, o.attempts - 1) for o in outcomes),
        "timed_out": sum(1 for o in outcomes if o.status == "timeout"),
        "cases": records,
    }


def render_campaign(report: Dict[str, Any]) -> str:
    """The campaign report as stable, diff-friendly JSON."""
    return json.dumps(report, indent=2, sort_keys=True)
