"""Unit tests for the page-walk scheduling policies."""

import pytest

from repro.core.buffer import PendingWalkBuffer
from repro.core.request import TranslationRequest
from repro.core.schedulers import (
    BatchScheduler,
    FCFSScheduler,
    RandomScheduler,
    SIMTAwareScheduler,
    SJFScheduler,
    available_schedulers,
    make_scheduler,
)


def add(buffer, vpn, instruction_id, estimate=0):
    request = TranslationRequest(
        vpn=vpn, instruction_id=instruction_id, wavefront_id=0, cu_id=0, issue_time=0
    )
    return buffer.add(request, arrival_time=0, estimated_accesses=estimate)


class TestRegistry:
    def test_all_policies_registered(self):
        assert set(available_schedulers()) == {
            "fcfs",
            "random",
            "sjf",
            "batch",
            "simt",
            "fairshare",
            # The scheduler zoo (core/zoo.py) self-registers.
            "wasp",
            "iru",
            "mosaic",
        }

    def test_make_scheduler_by_name(self):
        assert make_scheduler("fcfs").name == "fcfs"
        assert make_scheduler("simt").name == "simt"

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError):
            make_scheduler("sjf2")

    def test_kwargs_forwarded(self):
        scheduler = make_scheduler("simt", aging_threshold=5)
        assert scheduler.aging.threshold == 5

    def test_irrelevant_kwargs_ignored(self):
        make_scheduler("fcfs", seed=3, aging_threshold=5)  # must not raise


class TestFCFS:
    def test_selects_oldest(self):
        buffer = PendingWalkBuffer(8)
        first = add(buffer, 1, 1)
        add(buffer, 2, 2)
        assert FCFSScheduler().select(buffer) is first

    def test_empty_buffer_returns_none(self):
        assert FCFSScheduler().select(PendingWalkBuffer(4)) is None


class TestRandom:
    def test_deterministic_with_seed(self):
        picks_a, picks_b = [], []
        for picks, seed in ((picks_a, 42), (picks_b, 42)):
            scheduler = RandomScheduler(seed=seed)
            buffer = PendingWalkBuffer(16)
            entries = [add(buffer, v, v) for v in range(10)]
            for _ in range(5):
                entry = scheduler.select(buffer)
                picks.append(entry.vpn)
                buffer.remove(entry)
        assert picks_a == picks_b

    def test_different_seeds_differ(self):
        def picks(seed):
            scheduler = RandomScheduler(seed=seed)
            buffer = PendingWalkBuffer(64)
            [add(buffer, v, v) for v in range(32)]
            out = []
            for _ in range(10):
                entry = scheduler.select(buffer)
                out.append(entry.vpn)
                buffer.remove(entry)
            return out

        assert picks(1) != picks(2)

    def test_empty_buffer_returns_none(self):
        assert RandomScheduler().select(PendingWalkBuffer(4)) is None

    def test_selection_is_from_buffer(self):
        scheduler = RandomScheduler(seed=0)
        buffer = PendingWalkBuffer(8)
        entries = {add(buffer, v, v) for v in range(5)}
        assert scheduler.select(buffer) in entries


class TestSJF:
    def test_prefers_lowest_score(self):
        buffer = PendingWalkBuffer(8)
        add(buffer, 1, 1, estimate=4)
        add(buffer, 2, 1, estimate=4)  # instruction 1 score: 8
        light = add(buffer, 3, 2, estimate=1)  # instruction 2 score: 1
        assert SJFScheduler().select(buffer) is light

    def test_tie_breaks_by_age(self):
        buffer = PendingWalkBuffer(8)
        first = add(buffer, 1, 1, estimate=2)
        add(buffer, 2, 2, estimate=2)
        assert SJFScheduler().select(buffer) is first

    def test_aging_overrides_score(self):
        scheduler = SJFScheduler(aging_threshold=2)
        buffer = PendingWalkBuffer(8)
        heavy = add(buffer, 1, 1, estimate=200)
        for vpn in (2, 3):  # two lighter walks pass the heavy one
            light = add(buffer, vpn, vpn, estimate=1)
            assert scheduler.select(buffer) is light
            buffer.remove(light)
        add(buffer, 4, 4, estimate=1)
        assert scheduler.select(buffer) is heavy

    def test_bypasses_recorded_on_selection(self):
        scheduler = SJFScheduler(aging_threshold=1)
        buffer = PendingWalkBuffer(8)
        old_heavy = add(buffer, 1, 1, estimate=100)
        light = add(buffer, 2, 2, estimate=1)
        chosen = scheduler.select(buffer)
        assert chosen is light
        buffer.remove(light)  # the IOMMU removes a selected entry
        # That dispatch bypassed the older heavy walk once, which is the
        # threshold: it now goes ahead of a lighter newcomer.
        add(buffer, 3, 3, estimate=1)
        assert scheduler.select(buffer) is old_heavy
        assert scheduler.aging.promotions == 1


class TestBatch:
    def test_prefers_last_dispatched_instruction(self):
        scheduler = BatchScheduler()
        buffer = PendingWalkBuffer(8)
        add(buffer, 1, 1)
        mate = add(buffer, 2, 2)
        later_mate = add(buffer, 3, 2)
        buffer.remove(mate)  # dispatched to a walker
        scheduler.note_dispatch(mate)
        assert scheduler.select(buffer) is later_mate

    def test_falls_back_to_fcfs(self):
        scheduler = BatchScheduler()
        buffer = PendingWalkBuffer(8)
        first = add(buffer, 1, 1)
        add(buffer, 2, 2)
        assert scheduler.select(buffer) is first

    def test_selection_updates_batching_state(self):
        scheduler = BatchScheduler()
        buffer = PendingWalkBuffer(8)
        a1 = add(buffer, 1, 1)
        add(buffer, 2, 2)
        a2 = add(buffer, 3, 1)
        assert scheduler.select(buffer) is a1
        buffer.remove(a1)
        assert scheduler.select(buffer) is a2  # batch continues


class TestSIMTAware:
    def test_batching_beats_score(self):
        scheduler = SIMTAwareScheduler()
        buffer = PendingWalkBuffer(8)
        heavy_mate = add(buffer, 1, 1, estimate=200)
        add(buffer, 2, 2, estimate=1)
        scheduler.note_dispatch(heavy_mate)
        assert scheduler.select(buffer) is heavy_mate
        assert scheduler.batch_hits == 1

    def test_score_used_when_no_batch_match(self):
        scheduler = SIMTAwareScheduler()
        buffer = PendingWalkBuffer(8)
        add(buffer, 1, 1, estimate=10)
        light = add(buffer, 2, 2, estimate=1)
        assert scheduler.select(buffer) is light
        assert scheduler.sjf_picks == 1

    def test_aging_beats_batching(self):
        scheduler = SIMTAwareScheduler(aging_threshold=1)
        buffer = PendingWalkBuffer(8)
        starving = add(buffer, 1, 1, estimate=200)
        light = add(buffer, 2, 2, estimate=1)
        assert scheduler.select(buffer) is light  # bypasses the heavy walk
        buffer.remove(light)
        add(buffer, 3, 2, estimate=1)  # a batch mate of the dispatched walk
        assert scheduler.select(buffer) is starving

    def test_oldest_of_batch_selected(self):
        scheduler = SIMTAwareScheduler()
        buffer = PendingWalkBuffer(8)
        older = add(buffer, 1, 7)
        add(buffer, 2, 7)
        scheduler.note_dispatch(older)
        assert scheduler.select(buffer) is older

    def test_empty_buffer_returns_none(self):
        assert SIMTAwareScheduler().select(PendingWalkBuffer(4)) is None

    def test_selection_sequence_batches_then_switches(self):
        scheduler = SIMTAwareScheduler()
        buffer = PendingWalkBuffer(8)
        a1 = add(buffer, 1, 1, estimate=1)
        b1 = add(buffer, 2, 2, estimate=4)
        a2 = add(buffer, 3, 1, estimate=1)
        first = scheduler.select(buffer)  # SJF pick: instruction 1
        assert first is a1
        buffer.remove(a1)
        second = scheduler.select(buffer)  # batch continuation
        assert second is a2
        buffer.remove(a2)
        third = scheduler.select(buffer)  # only b1 left
        assert third is b1
