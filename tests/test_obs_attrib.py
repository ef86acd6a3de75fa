"""Walk-latency attribution (`repro.obs.attrib`) tests.

The load-bearing property is the reconciliation invariant: for every
completed walk, the stage breakdown sums EXACTLY to its end-to-end
latency — across schedulers, with faults injected, under both DRAM
models, and for coalesced children clipped from a host walk.  The
byte-identity tests pin the other contract: the blame report is a pure
function of the specs, independent of worker count.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from tests.conftest import tiny_config
from repro.config import baseline_config
from repro.experiments.runner import run_many, run_simulation
from repro.obs.attrib import (
    BLAME_CATEGORIES,
    STAGES,
    attribute_walks,
    blame_run_report,
    blame_sweep_report,
    blame_sweep_specs,
    critical_paths,
    iter_trace_events,
    render_blame_report,
    stage_summary,
)
from repro.obs.trace import PID_IOMMU, PID_WALKERS, TraceConfig
from repro.resilience.faults import FaultEvent, FaultPlan

GOLDEN_DIR = Path(__file__).parent / "golden_figures"

TRACE = TraceConfig(
    categories=BLAME_CATEGORIES, ring_size=1 << 20, embed_events=True
)

RUN_KWARGS = dict(num_wavefronts=8, scale=0.05, seed=1)


def _traced_events(config=None, **kwargs):
    merged = {**RUN_KWARGS, **kwargs}
    result = run_simulation("MVT", config=config, trace=TRACE, **merged)
    assert result.detail["trace"]["events_dropped"] == 0
    return result.detail["trace"]["events"]


# ----------------------------------------------------------------------
# The reconciliation invariant
# ----------------------------------------------------------------------


FAULT_PLAN = FaultPlan(seed=7, events=(
    FaultEvent("delay_walk_completion", at_cycle=0, magnitude=40, count=8),
    FaultEvent("dram_spike", at_cycle=500, duration=3_000, magnitude=25),
    FaultEvent("flush_pwc", at_cycle=2_000),
))


@pytest.mark.parametrize(
    "scheduler", ["fcfs", "simt", "sjf", "batch", "fairshare"]
)
def test_every_walk_reconciles_with_faults(scheduler):
    config = tiny_config(scheduler).with_faults(FAULT_PLAN)
    result = attribute_walks(_traced_events(config=config))
    assert result.checked > 100
    assert result.reconciliation_failures == 0, result.failure_details
    for walk in result.walks:
        stages = walk.stages
        assert sum(stages.values()) == walk.end_to_end
        assert stages["service_gap"] == 0
        assert all(value >= 0 for value in stages.values())
    # The delay fault must be visible as deliver_hold, the spike as pad.
    totals = {stage: 0 for stage in STAGES}
    for walk in result.walks:
        for stage in STAGES:
            totals[stage] += walk.stages[stage]
    assert totals["deliver_hold"] > 0
    assert totals["fault_pad"] > 0


def test_reconciles_under_queued_memory_controller():
    import dataclasses

    config = tiny_config()
    config = dataclasses.replace(
        config, dram=dataclasses.replace(config.dram, controller="frfcfs")
    )
    result = attribute_walks(_traced_events(config=config))
    assert result.checked > 100
    assert result.reconciliation_failures == 0, result.failure_details
    totals = {stage: 0 for stage in STAGES}
    for walk in result.walks:
        assert sum(walk.stages.values()) == walk.end_to_end
        for stage in STAGES:
            totals[stage] += walk.stages[stage]
    # The controller's bank contention shows up as bank_queue cycles.
    assert totals["bank_queue"] > 0
    assert totals["row_access"] > 0


def test_no_walk_lifecycle_left_open():
    result = attribute_walks(_traced_events(config=tiny_config()))
    assert result.incomplete == {}


@pytest.mark.parametrize("mode", ["inflight", "full"])
def test_coalesced_stat_conserves_against_attribution(mode):
    """Audit of the IOMMU ``coalesced`` stat (buffer.total_coalesced +
    coalesced_inflight): each merged request must be counted exactly
    once.  The trace is an independent witness — every merge leaves an
    orphan ``walk_created`` that attribution resolves to a
    coalesced-origin walk, so the two counts must agree exactly; a
    double count (e.g. an inflight merge recounted at completion) or a
    dropped pending merge would break the equality."""
    import dataclasses

    config = tiny_config()
    config = dataclasses.replace(
        config, iommu=dataclasses.replace(config.iommu, coalesce_walks=mode)
    )
    result = run_simulation(
        "XSB", config=config, trace=TRACE, **RUN_KWARGS
    )
    assert result.detail["trace"]["events_dropped"] == 0
    attribution = attribute_walks(result.detail["trace"]["events"])
    assert attribution.incomplete == {}
    coalesced_walks = sum(
        1 for walk in attribution.walks if walk.origin == "coalesced"
    )
    assert coalesced_walks > 0  # the audit needs actual merges
    assert coalesced_walks == result.detail["iommu"]["coalesced"]
    # Full conservation: every TLB-missing request either dispatched a
    # walk (demand) or merged (coalesced) — never both, never neither.
    created = sum(
        1
        for event in result.detail["trace"]["events"]
        if event.get("name") == "walk_created"
    )
    demand_walks = sum(
        1 for walk in attribution.walks if walk.origin == "demand"
    )
    assert demand_walks + coalesced_walks == created
    assert demand_walks == result.detail["iommu"]["walks_dispatched"]


# ----------------------------------------------------------------------
# Synthetic event streams: exact stage arithmetic
# ----------------------------------------------------------------------


def _created(ts, vpn, iid, wavefront=3):
    return {"name": "walk_created", "ph": "i", "ts": ts, "pid": PID_IOMMU,
            "args": {"vpn": vpn, "instruction_id": iid,
                     "wavefront_id": wavefront}}


def _queued(ts, dur, vpn, iid, walker=0):
    return {"name": "queued", "ph": "X", "ts": ts, "dur": dur,
            "pid": PID_IOMMU, "tid": 0,
            "args": {"vpn": vpn, "instruction_id": iid, "walker_id": walker}}


def _read(ts, dur, vpn, iid, walker=0, level=0, bank=1,
          bank_queue=0, row_access=None, fault_pad=0):
    if row_access is None:
        row_access = dur - bank_queue - fault_pad
    return {"name": "walk_read", "ph": "X", "ts": ts, "dur": dur,
            "pid": PID_WALKERS, "tid": walker,
            "args": {"vpn": vpn, "instruction_id": iid, "level": level,
                     "address": 0x1000, "bank": bank,
                     "bank_queue": bank_queue, "row_access": row_access,
                     "fault_pad": fault_pad, "row_hit": False}}


def _walk(ts, dur, vpn, iid, walker=0, accesses=1):
    return {"name": "walk", "ph": "X", "ts": ts, "dur": dur,
            "pid": PID_WALKERS, "tid": walker,
            "args": {"vpn": vpn, "instruction_id": iid,
                     "accesses": accesses}}


def _completed(ts, vpn, iid):
    return {"name": "walk_completed", "ph": "i", "ts": ts, "pid": PID_IOMMU,
            "args": {"vpn": vpn, "instruction_id": iid}}


def _job(ts, dur, iid):
    return {"name": "job", "ph": "X", "ts": ts, "dur": dur, "pid": 0,
            "tid": 3, "args": {"instruction_id": iid}}


def test_synthetic_walk_stage_arithmetic():
    events = [
        _created(10, 0x40, 7),
        _queued(10, 5, 0x40, 7),          # arrival 10, dispatch 15
        _read(15, 7, 0x40, 7, bank_queue=2, row_access=5),  # done 22
        _walk(15, 9, 0x40, 7),            # span dispatch -> completed
        _completed(24, 0x40, 7),          # 2 cycles of deliver hold
    ]
    result = attribute_walks(events)
    assert result.reconciliation_failures == 0
    (walk,) = result.walks
    assert walk.origin == "demand"
    assert walk.end_to_end == 14
    assert walk.stages == {
        "enqueue_wait": 0, "queue_wait": 5, "bank_queue": 2,
        "row_access": 5, "fault_pad": 0, "deliver_hold": 2,
        "service_gap": 0,
    }


def test_synthetic_overflow_wait_is_enqueue_wait():
    # Created at 0, only admitted to the pending buffer at 30.
    events = [
        _created(0, 0x80, 9),
        _queued(30, 10, 0x80, 9),
        _read(40, 4, 0x80, 9),
        _walk(40, 4, 0x80, 9),
        _completed(44, 0x80, 9),
    ]
    (walk,) = attribute_walks(events).walks
    assert walk.stages["enqueue_wait"] == 30
    assert walk.stages["queue_wait"] == 10
    assert sum(walk.stages.values()) == walk.end_to_end == 44


def test_synthetic_prefetch_walk_has_no_created():
    events = [
        _queued(100, 2, 0xA0, 0),
        _read(102, 4, 0xA0, 0),
        _walk(102, 4, 0xA0, 0),
        _completed(106, 0xA0, 0),
    ]
    (walk,) = attribute_walks(events).walks
    assert walk.origin == "prefetch"
    assert walk.created is None
    assert walk.end_to_end == 6
    assert sum(walk.stages.values()) == 6


def test_synthetic_coalesced_child_is_clipped_exactly():
    events = [
        _created(10, 0x40, 7),
        _queued(10, 5, 0x40, 7),
        _created(17, 0x40, 8),            # same page, later instruction
        _read(15, 7, 0x40, 7, bank_queue=2, row_access=5),
        _walk(15, 7, 0x40, 7),
        _completed(22, 0x40, 7),
    ]
    result = attribute_walks(events)
    assert result.reconciliation_failures == 0
    by_origin = {walk.origin: walk for walk in result.walks}
    host, child = by_origin["demand"], by_origin["coalesced"]
    assert host.end_to_end == 12
    assert child.instruction_id == 8
    assert child.created == 17
    # Child lived 17 -> 22: the tail of the host's read (bank_queue ran
    # 15-17, row access 17-22), nothing else.
    assert child.end_to_end == 5
    assert child.stages["row_access"] == 5
    assert sum(child.stages.values()) == 5
    assert result.incomplete == {}


def test_synthetic_orphan_created_counts_as_incomplete():
    events = [_created(10, 0xF0, 3)]
    result = attribute_walks(events)
    assert result.walks == []
    assert result.incomplete == {"orphan_walk_created": 1}


def test_synthetic_critical_path_gap_decomposes_exactly():
    events = [
        # Walk 1 for instruction 5: done early.
        _created(0, 0x10, 5),
        _queued(0, 2, 0x10, 5, walker=0),
        _read(2, 4, 0x10, 5, walker=0),
        _walk(2, 4, 0x10, 5, walker=0),
        _completed(6, 0x10, 5),
        # Walk 2 for instruction 5: created later, gates retirement.
        _created(4, 0x20, 5),
        _queued(4, 10, 0x20, 5, walker=1),
        _read(14, 6, 0x20, 5, walker=1, bank_queue=1, row_access=5),
        _walk(14, 6, 0x20, 5, walker=1),
        _completed(20, 0x20, 5),
        _job(0, 25, 5),
    ]
    attribution = attribute_walks(events)
    cp = critical_paths(events, attribution.walks)
    assert cp["jobs_analyzed"] == 1
    assert cp["multi_walk_jobs"] == 1
    (job,) = cp["top_gaps"]
    assert job["gap"] == 14            # 20 - 6
    assert job["gating_walk"]["vpn"] == 0x20
    # The gating walk existed throughout the gap (created 4 < first 6),
    # so no arrival skew; its stages clipped to [6, 20] fill the gap.
    assert job["arrival_skew"] == 0
    assert sum(job["gap_stages"].values()) == 14
    assert job["gap_stages"]["queue_wait"] == 8   # 6 -> 14
    assert job["reconciled"] is True
    assert cp["gap_reconciled"] is True


def test_synthetic_arrival_skew_when_gating_walk_starts_late():
    events = [
        _created(0, 0x10, 5),
        _queued(0, 2, 0x10, 5, walker=0),
        _read(2, 4, 0x10, 5, walker=0),
        _walk(2, 4, 0x10, 5, walker=0),
        _completed(6, 0x10, 5),
        # Gating walk created AFTER the first walk finished.
        _created(9, 0x20, 5),
        _queued(9, 3, 0x20, 5, walker=1),
        _read(12, 4, 0x20, 5, walker=1),
        _walk(12, 4, 0x20, 5, walker=1),
        _completed(16, 0x20, 5),
        _job(0, 20, 5),
    ]
    attribution = attribute_walks(events)
    cp = critical_paths(events, attribution.walks)
    (job,) = cp["top_gaps"]
    assert job["gap"] == 10
    assert job["arrival_skew"] == 3    # 9 - 6
    assert sum(job["gap_stages"].values()) == 7
    assert job["reconciled"] is True


def test_synthetic_unmatched_reads_are_counted_not_fatal():
    # A ring that dropped the queued span leaves the read orphaned.
    events = [
        _read(15, 7, 0x40, 7),
        _completed(24, 0x40, 7),
    ]
    result = attribute_walks(events)
    assert result.walks == []
    assert result.incomplete == {
        "unmatched_walk_read": 1,
        "unmatched_walk_completed": 1,
    }


# ----------------------------------------------------------------------
# Trace-container loading
# ----------------------------------------------------------------------


def test_iter_trace_events_reads_chrome_and_jsonl(tmp_path):
    events = [
        _created(10, 0x40, 7),
        _queued(10, 5, 0x40, 7),
        _read(15, 7, 0x40, 7),
        _walk(15, 7, 0x40, 7),
        _completed(22, 0x40, 7),
    ]
    chrome = tmp_path / "trace.json"
    chrome.write_text(json.dumps({
        "traceEvents": [{"ph": "M", "name": "process_name"}] + events,
        "displayTimeUnit": "ns",
    }))
    jsonl = tmp_path / "trace.jsonl"
    jsonl.write_text(
        "\n".join(json.dumps(event) for event in events)
        + '\n{"name": "walk_created", "ph"'  # torn final line
    )
    for source in (chrome, jsonl, events):
        loaded = iter_trace_events(source)
        result = attribute_walks(loaded)
        assert len(result.walks) == 1
        assert result.reconciliation_failures == 0


# ----------------------------------------------------------------------
# Sweep reports: determinism and merge identity
# ----------------------------------------------------------------------


def _sweep():
    return blame_sweep_specs(
        ["MVT"], ["fcfs", "simt"], [1],
        config=tiny_config(), num_wavefronts=4, scale=0.05,
    )


def test_blame_sweep_byte_identical_across_jobs():
    specs = _sweep()
    rendered = []
    for jobs in (1, 2):
        results = run_many(specs, jobs=jobs)
        rendered.append(
            render_blame_report(blame_sweep_report(specs, results))
        )
    assert rendered[0] == rendered[1]
    document = json.loads(rendered[0])
    assert document["format"] == "repro-blame"
    assert document["reconciliation"]["failures"] == 0
    assert document["events_dropped"] == 0
    assert sorted(document["by_scheduler"]) == ["fcfs", "simt"]
    for run in document["runs"]:
        shares = run["stage_shares"]
        assert sum(shares.values()) == pytest.approx(1.0, abs=1e-4)


def test_blame_sweep_attributes_every_walk_of_the_baseline_sweep():
    """MVT under fcfs and simt on the baseline machine: every walk of
    the sweep is attributed and reconciles, and the ring drops nothing.
    The walk count is an exact committed fact of the model."""
    specs = blame_sweep_specs(
        ["MVT"], ["fcfs", "simt"], [1],
        config=baseline_config(), num_wavefronts=8, scale=0.1,
    )
    document = blame_sweep_report(specs, run_many(specs))
    assert document["reconciliation"] == {"checked": 2056, "failures": 0}
    assert document["events_dropped"] == 0


def test_blame_sweep_report_requires_embedded_events():
    specs = [dict(workload="MVT", scheduler="fcfs", seed=1,
                  num_wavefronts=4, scale=0.05, config=tiny_config())]
    results = run_many(specs, jobs=1)
    with pytest.raises(ValueError, match="embed_events"):
        blame_sweep_report(specs, results)


def test_blame_breakdown_matches_golden():
    """Golden pin: the full single-run attribution breakdown.

    Regenerate after an intentional engine/timing change:

        PYTHONPATH=src:. python -c "import json, tests.test_obs_attrib as t; \
            r = t.blame_run_report(t._traced_events(config=t.tiny_config(), \
            num_wavefronts=4), top_k=3); open('tests/golden_figures/\
blame_breakdown.json', 'w').write(json.dumps(r, indent=2, sort_keys=True) + '\n')"
    """
    events = _traced_events(config=tiny_config(), num_wavefronts=4)
    report = blame_run_report(events, top_k=3)
    golden = (GOLDEN_DIR / "blame_breakdown.json").read_text()
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == golden


# ----------------------------------------------------------------------
# Counter-based summaries (tracing off)
# ----------------------------------------------------------------------


def test_stage_counters_survive_without_tracing():
    result = run_simulation(
        "MVT", config=tiny_config(), metrics=True, **RUN_KWARGS
    )
    counters = result.detail["metrics"]["counters"]
    for name in (
        "walk.stage.enqueue_wait_cycles",
        "walk.stage.queue_wait_cycles",
        "walk.stage.dram_bank_queue_cycles",
        "walk.stage.dram_row_cycles",
        "walk.stage.fault_pad_cycles",
        "walk.stage.deliver_hold_cycles",
        "walk.stage.service_cycles",
    ):
        assert name in counters, name
    assert counters["walk.stage.queue_wait_cycles"] > 0
    assert counters["walk.stage.dram_row_cycles"] > 0


def test_counter_summary_agrees_with_trace_attribution():
    """The always-on counters and the per-walk trace attribution measure
    the same cycles through independent plumbing.  They differ only at
    the edges (counters include walks still in flight when the sim
    ends; attribution splits coalesced children out of their host), so
    the stage *shares* must agree within a couple of percent."""
    result = run_simulation(
        "MVT", config=tiny_config(), metrics=True, trace=TRACE, **RUN_KWARGS
    )
    counters = result.detail["metrics"]["counters"]
    assert counters["iommu.walks_completed"] > 0
    summary = stage_summary({"fcfs": result.detail["metrics"]})
    counter_shares = summary["fcfs"]["stage_shares"]
    report = blame_run_report(result.detail["trace"]["events"])
    trace_shares = report["stage_shares"]
    for stage in STAGES:
        assert counter_shares.get(stage, 0) == pytest.approx(
            trace_shares[stage], abs=0.02
        ), stage


def test_stage_summary_empty_without_counters():
    assert stage_summary({"fcfs": {"counters": {"other": 1}}}) == {}
    assert stage_summary({}) == {}
