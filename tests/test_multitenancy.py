"""Tests for the multi-application harness and fair-share scheduler."""

import pytest

from repro.core.buffer import PendingWalkBuffer
from repro.core.request import TranslationRequest
from repro.core.reference import NaiveFairShareScheduler
from repro.core.schedulers import FairShareScheduler
from repro.experiments.multitenancy import MultiAppResult, run_multi_simulation
from repro.experiments.runner import run_simulation
from repro.workloads.synthetic import ParametricWorkload
from tests.conftest import tiny_config


def add(buffer, vpn, instruction_id, app_id, estimate=1):
    request = TranslationRequest(
        vpn=vpn,
        instruction_id=instruction_id,
        wavefront_id=0,
        cu_id=0,
        issue_time=0,
        app_id=app_id,
    )
    return buffer.add(request, arrival_time=0, estimated_accesses=estimate)


class TestFairShareScheduler:
    def test_prefers_least_served_app(self):
        scheduler = FairShareScheduler()
        buffer = PendingWalkBuffer(8)
        served = add(buffer, 1, 1, app_id=0, estimate=4)
        buffer.remove(served)
        scheduler.note_dispatch(served)  # app 0 has attained service
        scheduler.note_dispatch(served)
        app0 = add(buffer, 2, 2, app_id=0, estimate=1)
        app1 = add(buffer, 3, 3, app_id=1, estimate=4)
        # App 1 has attained nothing: it wins despite the higher score.
        assert scheduler.select(buffer) is app1

    def test_sjf_within_the_needy_app(self):
        scheduler = FairShareScheduler()
        buffer = PendingWalkBuffer(8)
        add(buffer, 1, 1, app_id=0, estimate=4)
        light = add(buffer, 2, 2, app_id=0, estimate=1)
        assert scheduler.select(buffer) is light

    def test_batching_still_first(self):
        scheduler = FairShareScheduler()
        buffer = PendingWalkBuffer(8)
        mate = add(buffer, 1, 1, app_id=0, estimate=4)
        buffer.remove(mate)
        scheduler.note_dispatch(mate)
        same_instr = add(buffer, 2, 1, app_id=0, estimate=4)
        add(buffer, 3, 9, app_id=1, estimate=1)
        assert scheduler.select(buffer) is same_instr

    def test_attained_service_accumulates(self):
        scheduler = FairShareScheduler()
        buffer = PendingWalkBuffer(8)
        entry = add(buffer, 1, 1, app_id=2, estimate=3)
        scheduler.select(buffer)
        assert scheduler.attained_service[2] == 3

    def test_single_app_behaves_like_simt(self):
        scheduler = FairShareScheduler()
        buffer = PendingWalkBuffer(8)
        add(buffer, 1, 1, app_id=0, estimate=4)
        light = add(buffer, 2, 2, app_id=0, estimate=1)
        assert scheduler.select(buffer) is light

    def test_work_added_through_another_app_changes_the_pick(self):
        # Instruction 1 spans both apps: the work it gains through app 1
        # makes it the longer job in app 0's tier too.
        buffer = PendingWalkBuffer(8)
        mine = add(buffer, 1, 1, app_id=0, estimate=1)
        other = add(buffer, 2, 2, app_id=0, estimate=3)

        def pick():
            scheduler = FairShareScheduler()
            scheduler.attained_service[1] = 10  # app 0 is the neediest
            return scheduler.select(buffer)

        assert pick() is mine
        add(buffer, 3, 1, app_id=1, estimate=5)  # instruction 1 now scores 6
        assert pick() is other

    @pytest.mark.parametrize("apps", [(8, 0), (14, 22, 39, 37, 29, 18)])
    def test_equally_served_apps_tie_break_like_the_twin(self, apps):
        # The set of pending apps decides ties among equally served apps
        # by its iteration order, which depends on the order the ids were
        # added: 8 and 0 collide in a small table, and a set built from a
        # six-key dict is pre-sized and iterates 18 first, not 37.
        buffer = PendingWalkBuffer(8)
        for vpn, app in enumerate(apps):
            add(buffer, vpn, vpn, app_id=app, estimate=1)
        picked = FairShareScheduler().select(buffer)
        assert picked is NaiveFairShareScheduler().select(buffer)
        assert picked.app_id == list({app for app in apps})[0]


def small_app(seed):
    return ParametricWorkload(
        pages_per_instruction=8,
        instructions_per_wavefront=6,
        footprint_mb=16.0,
        seed=seed,
    )


class TestMultiAppRunner:
    def test_requires_two_apps(self):
        with pytest.raises(ValueError):
            run_multi_simulation(["MVT"], config=tiny_config())

    def test_shared_run_completes_with_metrics(self):
        result = run_multi_simulation(
            [small_app(1), small_app(2)],
            config=tiny_config(),
            scheduler="fairshare",
            wavefronts_per_app=4,
        )
        assert set(result.app_cycles) == {0, 1}
        assert set(result.solo_cycles) == {0, 1}
        assert result.total_cycles == max(result.app_cycles.values())
        assert 0 < result.fairness <= 1.0
        assert 0 < result.system_throughput <= 2.0 + 1e-9

    def test_unfinished_shared_run_states_why(self):
        with pytest.raises(RuntimeError, match="still running after max_cycles"):
            run_multi_simulation(
                [small_app(1), small_app(2)],
                config=tiny_config(),
                wavefronts_per_app=4,
                max_cycles=100,
            )

    def test_unfinished_shared_run_names_no_keyword_it_lacks(self):
        # run_multi_simulation takes no watchdog_cycles, so its error
        # must not suggest one; run_simulation's still does.
        with pytest.raises(RuntimeError, match="events pending") as shared:
            run_multi_simulation(
                [small_app(1), small_app(2)],
                config=tiny_config(),
                wavefronts_per_app=4,
                max_cycles=100,
            )
        assert "watchdog_cycles" not in str(shared.value)
        with pytest.raises(RuntimeError, match="pass watchdog_cycles="):
            run_simulation(
                small_app(1), config=tiny_config(), num_wavefronts=4,
                max_cycles=100,
            )

    def test_sharing_slows_apps_down(self):
        result = run_multi_simulation(
            [small_app(1), small_app(2)],
            config=tiny_config(),
            wavefronts_per_app=8,
        )
        # Contention for CU slots and walkers: nobody runs faster shared
        # than the slowest possible solo bound.
        assert all(s > 0.5 for s in result.slowdowns.values())
        assert max(result.slowdowns.values()) > 1.0

    def test_summary_mentions_apps(self):
        result = MultiAppResult(
            scheduler="fcfs",
            total_cycles=100,
            app_cycles={0: 100, 1: 80},
            solo_cycles={0: 50, 1: 40},
            workloads=["MVT", "GEV"],
        )
        text = result.summary()
        assert "MVT" in text and "fairness" in text

    def test_fairness_formula(self):
        result = MultiAppResult(
            scheduler="fcfs",
            total_cycles=100,
            app_cycles={0: 100, 1: 50},
            solo_cycles={0: 50, 1: 50},
            workloads=["A", "B"],
        )
        assert result.slowdowns == {0: 2.0, 1: 1.0}
        assert result.fairness == pytest.approx(0.5)
        assert result.system_throughput == pytest.approx(1.5)
