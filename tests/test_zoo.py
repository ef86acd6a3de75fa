"""Scheduler-zoo tests: WaSP / IRU / Mosaic policies and the
stale-batch-pointer regression.

Four groups:

* **Registry and knobs** — the zoo self-registers, ``make_scheduler``
  forwards the aging threshold, and the baseline policies leave every
  zoo mechanism off.
* **Stale batch-pointer regression** — the bugfix this PR ships:
  ``_last_instruction`` must retire when the batched instruction's last
  buffered walk drains, so a later walk reusing the same 20-bit
  instruction tag cannot inherit batch priority (paper §IV: a batch
  lasts exactly as long as its instruction has pending walks).
  Exercised on the optimized policies and their naive twins alike.
* **Family behaviour + pickle fuzz** — each family's mechanism is
  observable on a real run (prefetch walks, pending coalesces, region
  promotions), and every registered policy survives a mid-stream
  pickle round trip with bit-identical subsequent selections.
* **Comparison goldens** — the zoo-vs-paper sweep's comparison charts
  and the SMS controller's runs, pinned exactly to committed CSVs.
"""

from __future__ import annotations

import pickle
import random
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.core.buffer import PendingWalkBuffer
from repro.core.reference import (
    NaiveBatchScheduler,
    NaiveSIMTAwareScheduler,
)
from repro.core.request import TranslationRequest
from repro.core.schedulers import (
    BatchScheduler,
    SIMTAwareScheduler,
    available_schedulers,
    make_scheduler,
)
from repro.core.zoo import (
    IRUScheduler,
    MosaicScheduler,
    WaSPScheduler,
)
from repro.experiments.runner import run_many, run_many_resilient, run_simulation
from repro.obs.aggregate import fleet_report, sweep_specs
from repro.obs.figures import CampaignData, build_figures
from tests.conftest import tiny_config

RUN_KWARGS = dict(num_wavefronts=8, scale=0.05, seed=0)


def _run(scheduler, workload="MVT", config=None, **kwargs):
    return run_simulation(
        workload,
        config=config or tiny_config(scheduler),
        **{**RUN_KWARGS, **kwargs},
    )


def add(buffer, vpn, instruction_id, estimate=0, app_id=0):
    request = TranslationRequest(
        vpn=vpn, instruction_id=instruction_id, wavefront_id=0, cu_id=0,
        issue_time=0, app_id=app_id,
    )
    return buffer.add(request, arrival_time=0, estimated_accesses=estimate)


# ----------------------------------------------------------------------
# Registry and knobs
# ----------------------------------------------------------------------


class TestZooRegistry:
    def test_zoo_registered(self):
        names = set(available_schedulers())
        assert {"wasp", "iru", "mosaic"} <= names

    def test_factory_types(self):
        assert isinstance(make_scheduler("wasp"), WaSPScheduler)
        assert isinstance(make_scheduler("iru"), IRUScheduler)
        assert isinstance(make_scheduler("mosaic"), MosaicScheduler)

    def test_aging_threshold_forwarded(self):
        assert make_scheduler("wasp", aging_threshold=7).aging.threshold == 7
        assert make_scheduler("iru", aging_threshold=7).aging.threshold == 7
        assert make_scheduler("mosaic", aging_threshold=7).aging.threshold == 7

    def test_defaults_disabled_on_baseline_policies(self):
        # The baseline policies must not accidentally enable any zoo
        # mechanism — their goldens depend on it.
        for name in ("fcfs", "random", "sjf", "batch", "simt", "fairshare"):
            scheduler = make_scheduler(name)
            assert scheduler.prefetch_distance == 0
            assert scheduler.reorder_window_cycles == 0
            assert scheduler.coalesce_pending is False
            assert scheduler.promote_threshold == 0


# ----------------------------------------------------------------------
# Stale batch-pointer regression (the bugfix)
# ----------------------------------------------------------------------


class TestStaleBatchPointer:
    @pytest.mark.parametrize(
        "factory", [BatchScheduler, NaiveBatchScheduler], ids=["fast", "ref"]
    )
    def test_batch_pointer_retires_when_instruction_drains(self, factory):
        scheduler = factory()
        buffer = PendingWalkBuffer(8)
        first = add(buffer, vpn=1, instruction_id=7)
        older_other = add(buffer, vpn=2, instruction_id=3)
        assert scheduler.select(buffer) is first  # pointer -> 7
        buffer.remove(first)
        scheduler.resync(buffer)  # instruction 7 has drained
        assert scheduler._last_instruction is None
        # A much later walk reuses tag 7.  Pre-fix, the stale pointer
        # would batch-prioritise it past the older instruction-3 walk.
        late_reuse = add(buffer, vpn=9, instruction_id=7)
        assert scheduler.select(buffer) is older_other
        buffer.remove(older_other)
        scheduler.resync(buffer)
        assert scheduler.select(buffer) is late_reuse

    @pytest.mark.parametrize(
        "factory",
        [SIMTAwareScheduler, NaiveSIMTAwareScheduler],
        ids=["fast", "ref"],
    )
    def test_simt_pointer_retires_when_instruction_drains(self, factory):
        scheduler = factory(aging_threshold=1_000)
        buffer = PendingWalkBuffer(8)
        # Instruction 7's walk is cheap, instruction 3's cheaper still —
        # after 7 drains the SJF stage must win, not a stale batch hit.
        first = add(buffer, vpn=1, instruction_id=7, estimate=2)
        cheapest = add(buffer, vpn=2, instruction_id=3, estimate=1)
        assert scheduler.select(buffer) is cheapest  # SJF; pointer -> 3
        buffer.remove(cheapest)
        scheduler.resync(buffer)
        assert scheduler._last_instruction is None
        late_reuse = add(buffer, vpn=9, instruction_id=3, estimate=4)
        # Pre-fix: stale pointer 3 would batch-hit the expensive
        # late_reuse walk ahead of instruction 7's cheaper one.
        assert scheduler.select(buffer) is first
        assert late_reuse in list(buffer)

    def test_pointer_survives_while_instruction_pending(self):
        # resync must NOT clear the pointer while the batched
        # instruction still has buffered walks.
        scheduler = BatchScheduler()
        buffer = PendingWalkBuffer(8)
        a1 = add(buffer, vpn=1, instruction_id=7)
        add(buffer, vpn=2, instruction_id=3)
        a2 = add(buffer, vpn=3, instruction_id=7)
        assert scheduler.select(buffer) is a1
        buffer.remove(a1)
        scheduler.resync(buffer)
        assert scheduler._last_instruction == 7
        assert scheduler.select(buffer) is a2  # batching continues


# ----------------------------------------------------------------------
# Family behaviour on real runs
# ----------------------------------------------------------------------


class TestFamilyBehaviour:
    def test_wasp_issues_distance_ahead_prefetches(self):
        result = _run("wasp", workload="XSB")
        assert result.detail["iommu"]["prefetch_walks"] > 0

    def test_iru_coalesces_pending_walks(self):
        # The reorder unit merges same-page requests that plain SJF
        # (inflight-only coalescing) keeps as separate jobs.
        iru = _run("iru", workload="XSB").detail["iommu"]
        sjf = _run("sjf", workload="XSB").detail["iommu"]
        assert iru["coalesced"] > sjf["coalesced"]

    def test_mosaic_promotes_and_hits_regions(self):
        detail = _run("mosaic").detail["iommu"]
        assert detail["mosaic"]["promotions"] > 0
        assert detail["mosaic"]["region_hits"] > 0
        assert (
            detail["mosaic"]["region_tlb_occupancy"]
            <= make_scheduler("mosaic").region_tlb_entries
        )

    def test_mosaic_demotes_under_capacity_pressure(self):
        config = tiny_config("mosaic")
        scheduler_stats = _run(
            "mosaic", workload="XSB", config=config, scale=0.1,
        ).detail["iommu"]["mosaic"]
        assert (
            scheduler_stats["region_tlb_occupancy"]
            + scheduler_stats["demotions"]
            == scheduler_stats["promotions"]
        )

    def test_mosaic_disabled_on_large_pages(self):
        # With 2 MB base pages there is nothing to promote: the region
        # machinery must be off and the stats key absent.
        config = tiny_config("mosaic").with_page_size("2M")
        detail = _run("mosaic", config=config).detail["iommu"]
        assert "mosaic" not in detail

    def test_baseline_stats_shape_unchanged(self):
        # No zoo keys leak into non-zoo runs (goldens pin this dict).
        detail = _run("simt").detail["iommu"]
        assert "mosaic" not in detail

    def test_zoo_runs_conserve_walks(self):
        for name in ("wasp", "iru", "mosaic"):
            result = _run(name, workload="XSB")
            iommu = result.detail["iommu"]
            assert iommu["walks_dispatched"] + iommu["prefetch_walks"] == (
                iommu["walks_completed"]
            )


# ----------------------------------------------------------------------
# Pickle round-trip fuzz (unit level, every policy)
# ----------------------------------------------------------------------


def _ops(rng, count):
    ops = []
    for _ in range(count):
        if rng.random() < 0.55:
            ops.append(
                (
                    "add",
                    (
                        rng.randrange(64),
                        rng.randrange(6),
                        rng.randrange(1, 5),
                        rng.randrange(2),
                    ),
                )
            )
        else:
            ops.append(("select", None))
    return ops


def _drive(scheduler, buffer, ops):
    picks = []
    for op, payload in ops:
        if op == "add":
            if buffer.is_full:
                continue
            vpn, iid, estimate, app = payload
            add(
                buffer, vpn=vpn, instruction_id=iid, estimate=estimate,
                app_id=app,
            )
        else:
            if buffer.is_empty:
                continue
            entry = scheduler.select(buffer)
            if entry is None:
                continue
            buffer.remove(entry)
            scheduler.resync(buffer)
            picks.append((entry.arrival_seq, entry.vpn, entry.instruction_id))
    return picks


@pytest.mark.parametrize("name", sorted(available_schedulers()))
@pytest.mark.parametrize("fuzz_seed", [0, 1, 2])
def test_snapshot_roundtrip_preserves_selections(name, fuzz_seed):
    """Pickle the scheduler and buffer mid-stream, in one pass as a
    checkpoint does, and the unpickled pair must make bit-identical
    selections thereafter — including the random policy's Mersenne
    Twister stream."""
    rng = random.Random(1_000 * fuzz_seed + sum(map(ord, name)))
    warmup, tail = _ops(rng, 120), _ops(rng, 120)

    scheduler = make_scheduler(name, seed=11, aging_threshold=6)
    buffer = PendingWalkBuffer(32)
    _drive(scheduler, buffer, warmup)

    twin, twin_buffer = pickle.loads(pickle.dumps((scheduler, buffer)))

    assert _drive(scheduler, buffer, tail) == _drive(twin, twin_buffer, tail)


# ----------------------------------------------------------------------
# Comparison goldens: the zoo against the paper's ladder, pinned exactly
# ----------------------------------------------------------------------

GOLDEN_DIR = Path(__file__).parent / "golden_figures"

#: The comparison sweep: MVT and XSB, two seeds, at a tier-1 size.
COMPARISON = dict(
    workloads=("MVT", "XSB"), seeds=range(2), scale=0.1, num_wavefronts=8,
)

#: Comparison chart -> its golden CSV.
ZOO_GOLDENS = {
    "fig8_speedup": "zoo_fig8_speedup.csv",
    "scheduler_comparison": "zoo_scheduler_comparison.csv",
    "zoo_walk_traffic": "zoo_walk_traffic.csv",
}


def zoo_figures():
    """The comparison charts of the paper's four policies and the zoo."""
    specs = sweep_specs(
        schedulers=("fcfs", "sjf", "batch", "simt", "wasp", "iru", "mosaic"),
        **COMPARISON,
    )
    report = fleet_report(
        specs, run_many_resilient(specs), baseline_scheduler="fcfs"
    )
    data = CampaignData.from_reports([("zoo", report)])
    figures, skipped = build_figures(data, list(ZOO_GOLDENS))
    assert not skipped, skipped
    return figures


def sms_csv():
    """One row per ``simt`` run under the SMS DRAM controller, in the
    layout of :meth:`~repro.obs.figures.Figure.csv`."""
    specs = sweep_specs(
        schedulers=("simt",),
        config=SystemConfig().with_dram_controller("sms"),
        **COMPARISON,
    )
    lines = ["workload,seed,total_cycles,walk_reads"]
    for spec, result in zip(specs, run_many(specs)):
        walk_reads = result.detail["memory"]["dram"]["walk_reads"]
        lines.append(
            f"{spec['workload']},{spec['seed']},"
            f"{result.total_cycles},{walk_reads}"
        )
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def comparison():
    return {figure.name: figure for figure in zoo_figures()}


@pytest.mark.parametrize("name", sorted(ZOO_GOLDENS))
def test_zoo_comparison_matches_golden(comparison, name):
    """Golden pin: per-workload and geomean speedups over fcfs, mean
    cycles and mean walk traffic for every policy, exactly.

    Regenerate after an intentional policy or timing change:

        PYTHONPATH=src:. python -c "import tests.test_zoo as t; \
            [(t.GOLDEN_DIR / t.ZOO_GOLDENS[f.name]).write_text(f.csv()) \
            for f in t.zoo_figures()]"
    """
    golden = (GOLDEN_DIR / ZOO_GOLDENS[name]).read_text()
    assert comparison[name].csv() == golden


def test_sms_controller_matches_golden():
    """Golden pin: total cycles and DRAM walk reads of each ``simt`` run
    under the SMS controller.  (The same runs under the default
    reservation model are the ``simt`` rows of the comparison goldens.)

    Regenerate after an intentional controller or timing change:

        PYTHONPATH=src:. python -c "import tests.test_zoo as t; \
            (t.GOLDEN_DIR / 'zoo_sms.csv').write_text(t.sms_csv())"
    """
    assert sms_csv() == (GOLDEN_DIR / "zoo_sms.csv").read_text()
