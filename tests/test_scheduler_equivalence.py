"""Differential tests: indexed hot path ≡ naive linear-scan reference.

Three layers of evidence that the buffer/aging/scheduler optimisations
changed complexity but not behaviour:

1. **Golden pins** — full runs of every registered scheduler on three
   workloads × two seeds must reproduce the exact ``total_cycles``,
   ``stall_cycles`` and ``walks_dispatched`` captured from the
   pre-optimisation code (``tests/golden_equivalence.json``).  The
   scoring-scheduler rows (sjf/simt/fairshare) were re-captured when
   the PWC counter-pin drift fix landed: unpinning by score-time level
   instead of walk-time level legitimately changes their numbers.
2. **Reference twins** — each optimized policy and its naive twin from
   :mod:`repro.core.reference` run the same workload; the *complete
   dispatch sequence* and all deterministic statistics must match.
3. **Randomised fuzz** — a random op stream drives one buffer while a
   naive shadow recomputes every query (oldest, oldest-per-instruction,
   SJF minimum, per-app minimum, pending apps, starving frontier) by
   linear scan; every answer must be identical at every step.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

import pytest

from repro.config import baseline_config
from repro.core.aging import AgingPolicy
from repro.core.buffer import PendingWalkBuffer
from repro.core.reference import (
    REFERENCE_FACTORIES,
    NaiveFairShareScheduler,
    make_reference_scheduler,
    naive_min_score_entry,
    naive_oldest,
    naive_oldest_for_instruction,
)
from repro.core.request import TranslationRequest
from repro.core.schedulers import make_scheduler
from repro.experiments.runner import build_system, collect_result
from repro.obs.trace import TraceConfig
from repro.workloads.registry import get_workload

GOLDEN_PATH = Path(__file__).parent / "golden_equivalence.json"
GOLDEN = json.loads(GOLDEN_PATH.read_text())

SCALE = 0.2
WAVEFRONTS = 16


def _run_with_system(
    workload_name, scheduler, seed, config=None, trace=None,
    scale=SCALE, wavefronts=WAVEFRONTS,
):
    """Mirror of ``run_simulation`` that also exposes the system.

    ``scheduler`` is a registry name or a WalkScheduler instance.
    """
    config = config or baseline_config()
    instance = None
    if isinstance(scheduler, str):
        config = config.with_scheduler(scheduler, seed=seed)
    else:
        instance = scheduler
    bench = get_workload(workload_name, scale=scale, seed=seed)
    system = build_system(config, scheduler=instance, trace=trace)
    traces = bench.build_trace(
        num_wavefronts=wavefronts, wavefront_size=config.gpu.wavefront_size
    )
    system.gpu.dispatch(traces)
    system.simulator.run()
    assert system.gpu.finished
    return collect_result(system, bench), system.iommu


# ----------------------------------------------------------------------
# 1. Golden pins against the pre-optimisation implementation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("key", sorted(GOLDEN))
def test_matches_pre_optimisation_golden(key):
    workload, scheduler, seed = key.split("|")
    result, _ = _run_with_system(workload, scheduler, int(seed))
    want = GOLDEN[key]
    assert result.total_cycles == want["total_cycles"]
    assert result.stall_cycles == want["stall_cycles"]
    assert result.walks_dispatched == want["walks_dispatched"]


@pytest.mark.parametrize(
    "trace",
    [TraceConfig(categories=frozenset()), TraceConfig()],
    ids=["inert-tracer", "full-tracing"],
)
@pytest.mark.parametrize("key", sorted(GOLDEN)[:4])
def test_tracing_preserves_golden_pins(key, trace):
    """Observability must be read-only: traced runs (inert or fully
    recording) reproduce the exact pre-observability golden numbers."""
    workload, scheduler, seed = key.split("|")
    result, _ = _run_with_system(workload, scheduler, int(seed), trace=trace)
    want = GOLDEN[key]
    assert result.total_cycles == want["total_cycles"]
    assert result.stall_cycles == want["stall_cycles"]
    assert result.walks_dispatched == want["walks_dispatched"]


# ----------------------------------------------------------------------
# 2. Optimized policies vs their naive reference twins
# ----------------------------------------------------------------------


def _assert_same_run(fast, ref):
    """Two ``_run_with_system`` returns dispatched every walk in the
    same order and agree on every deterministic statistic."""
    (fast_result, fast_iommu), (ref_result, ref_iommu) = fast, ref
    # The full walker dispatch interleaving, not just the totals.
    assert fast_iommu.dispatches_by_instruction == ref_iommu.dispatches_by_instruction
    assert fast_result.total_cycles == ref_result.total_cycles
    assert fast_result.stall_cycles == ref_result.stall_cycles
    assert fast_result.walks_dispatched == ref_result.walks_dispatched
    assert fast_result.walk_memory_accesses == ref_result.walk_memory_accesses
    assert fast_result.first_walk_latency == ref_result.first_walk_latency
    assert fast_result.last_walk_latency == ref_result.last_walk_latency
    assert fast_result.detail["iommu"] == ref_result.detail["iommu"]


@pytest.mark.parametrize("name", sorted(REFERENCE_FACTORIES))
@pytest.mark.parametrize("workload", ["MVT", "XSB"])
@pytest.mark.parametrize("seed", [0, 1])
def test_reference_twin_identical(name, workload, seed):
    _assert_same_run(
        _run_with_system(workload, make_scheduler(name), seed),
        _run_with_system(workload, make_reference_scheduler(name), seed),
    )


def _nw_run(scheduler, seed=0):
    """NW at scale 0.1 with 32 wavefronts: long enough that every
    policy that ages promotes walks at the configured threshold (the
    MVT and XSB runs above make none)."""
    return _run_with_system(
        "NW", scheduler, seed, scale=0.1, wavefronts=32
    )


@pytest.mark.parametrize("name", ["sjf", "simt", "fairshare", "wasp", "iru"])
def test_reference_twin_identical_while_aging(name):
    threshold = baseline_config().iommu.aging_threshold
    fast = _nw_run(make_scheduler(name, aging_threshold=threshold))
    ref = _nw_run(make_reference_scheduler(name, aging_threshold=threshold))
    promotions = fast[1].scheduler.aging.promotions
    assert promotions > 0
    assert ref[1].scheduler.aging.promotions == promotions
    _assert_same_run(fast, ref)


@pytest.mark.parametrize("name", ["simt", "sjf"])
def test_policy_runs_the_same_by_name_or_as_an_object(name):
    """A policy object built without arguments, optimized or naive,
    ages at the threshold the IOMMU uses for the policy's name."""
    by_name = _nw_run(name)
    assert by_name[1].scheduler.aging.promotions > 0
    _assert_same_run(_nw_run(make_scheduler(name)), by_name)
    _assert_same_run(_nw_run(make_reference_scheduler(name)), by_name)


def test_fairshare_twin_identical_multi_app():
    """Fair-share differs from SIMT only with >1 app: co-run two."""

    def co_run(scheduler):
        config = baseline_config()
        benches = [get_workload(w, scale=SCALE, seed=0) for w in ("MVT", "SSP")]
        traces_per_app = [
            b.build_trace(num_wavefronts=8, wavefront_size=config.gpu.wavefront_size)
            for b in benches
        ]
        interleaved, app_ids = [], []
        for slot in range(8):
            for app, traces in enumerate(traces_per_app):
                interleaved.append(traces[slot])
                app_ids.append(app)
        system = build_system(config, scheduler=scheduler)
        system.gpu.dispatch(interleaved, app_ids=app_ids)
        system.simulator.run()
        assert system.gpu.finished
        return system

    fast = co_run(make_scheduler("fairshare"))
    ref = co_run(NaiveFairShareScheduler())
    assert (
        fast.iommu.dispatches_by_instruction == ref.iommu.dispatches_by_instruction
    )
    assert fast.gpu.completion_time == ref.gpu.completion_time
    assert dict(fast.gpu.app_completion_time) == dict(ref.gpu.app_completion_time)
    assert fast.iommu.walks_dispatched == ref.iommu.walks_dispatched


# ----------------------------------------------------------------------
# 3. Randomised buffer-level fuzz against a linear-scan shadow
# ----------------------------------------------------------------------


def _make_request(rng, instruction_id, app_id):
    return TranslationRequest(
        vpn=rng.randrange(64),
        instruction_id=instruction_id,
        wavefront_id=0,
        cu_id=0,
        issue_time=0,
        app_id=app_id,
    )


@pytest.mark.parametrize("fuzz_seed", range(5))
def test_indexed_queries_match_linear_scans(fuzz_seed):
    rng = random.Random(fuzz_seed)
    buffer = PendingWalkBuffer(48)
    aging = AgingPolicy(threshold=4)
    shadow_bypasses = {}  # entry -> naive per-entry count
    in_flight = {}  # instruction_id -> dispatched-but-incomplete walks

    def naive_starving():
        victim = None
        for entry in buffer:
            if shadow_bypasses[entry] >= aging.threshold:
                if victim is None or entry.arrival_seq < victim.arrival_seq:
                    victim = entry
        return victim

    last = None  # the batch pointer: instruction of the last dispatch
    for _ in range(600):
        op = rng.random()
        choice = None
        if (op < 0.5 or buffer.is_empty) and not buffer.is_full:
            iid = rng.randrange(6)
            app = rng.randrange(2)
            entry = buffer.add(
                _make_request(rng, iid, app),
                arrival_time=0,
                estimated_accesses=rng.randrange(1, 5),
            )
            shadow_bypasses[entry] = 0
        elif op < 0.55:
            iid = rng.randrange(6)
            buffer.account_direct_dispatch(iid, rng.randrange(1, 5))
            in_flight[iid] = in_flight.get(iid, 0) + 1
        elif op < 0.65:
            candidates = [i for i, n in in_flight.items() if n > 0]
            if candidates:
                iid = rng.choice(candidates)
                buffer.complete_walk(iid)
                in_flight[iid] -= 1
        elif op < 0.85 and buffer.oldest_for_instruction(last) is not None:
            # A batching hit, as SIMT's second tier makes: no SJF query,
            # so adds, removes and direct dispatches pile up between two
            # ``min_score_entry`` calls.
            choice = buffer.oldest_for_instruction(last)
            assert choice is naive_oldest_for_instruction(buffer, last)
        else:
            # Dispatch: first verify every indexed query against scans.
            assert buffer.oldest() is naive_oldest(buffer)
            probe_iid = rng.randrange(6)
            assert buffer.oldest_for_instruction(
                probe_iid
            ) is naive_oldest_for_instruction(buffer, probe_iid)
            assert buffer.min_score_entry() is naive_min_score_entry(buffer)
            starving = aging.starving(buffer)
            assert starving is naive_starving()
            choice = starving or buffer.min_score_entry()
        if choice is not None:
            for entry in buffer:
                if entry.arrival_seq < choice.arrival_seq:
                    shadow_bypasses[entry] += 1
            aging.record_dispatch(choice)
            buffer.remove(choice)
            del shadow_bypasses[choice]
            in_flight[choice.instruction_id] = (
                in_flight.get(choice.instruction_id, 0) + 1
            )
            last = choice.instruction_id
    # Drain what's left, still cross-checking the SJF minimum.
    while not buffer.is_empty:
        choice = buffer.min_score_entry()
        assert choice is naive_min_score_entry(buffer)
        buffer.remove(choice)
