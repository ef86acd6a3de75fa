"""Integration tests for wavefront execution on the full GPU model."""

from repro.config import PAGE_SIZE
from repro.experiments.runner import build_system
from tests.conftest import dispatched_system, tiny_config


def run_traces(traces, scheduler="fcfs"):
    system = build_system(tiny_config(scheduler))
    system.gpu.dispatch(traces)
    system.simulator.run()
    assert system.gpu.finished
    return system


def coalesced_instruction(base, lanes=16):
    return [base + lane * 8 for lane in range(lanes)]


def divergent_instruction(base, pages=8, lanes=16):
    return [base + (lane % pages) * PAGE_SIZE for lane in range(lanes)]


class TestCompletion:
    def test_single_wavefront_single_instruction(self):
        system = run_traces([[coalesced_instruction(0x10000)]])
        assert system.gpu.finished
        assert len(system.gpu.instruction_records) == 1
        record = system.gpu.instruction_records[0]
        assert record.complete_time is not None
        assert record.complete_time > record.issue_time

    def test_all_instructions_retire(self):
        trace = [[coalesced_instruction(0x10000 + i * 512) for i in range(10)]]
        system = run_traces(trace)
        records = system.gpu.instruction_records
        assert len(records) == 10
        assert all(r.complete_time is not None for r in records)

    def test_many_wavefronts_backfill_slots(self):
        # 4 CUs × 2 slots = 8 resident; 20 wavefronts require backfill.
        traces = [
            [coalesced_instruction(0x10000 + wf * 8192)] for wf in range(20)
        ]
        system = run_traces(traces)
        assert system.gpu.wavefronts_launched == 20

    def test_empty_dispatch_rejected(self):
        import pytest

        system = build_system(tiny_config())
        with pytest.raises(ValueError):
            system.gpu.dispatch([])


class TestInstructionOrdering:
    def test_wavefront_issues_in_program_order(self):
        trace = [[coalesced_instruction(0x10000), coalesced_instruction(0x20000)]]
        system = run_traces(trace)
        first, second = system.gpu.instruction_records
        assert first.issue_time < second.issue_time
        # Window of 1: the second cannot issue before the first retires.
        assert second.issue_time >= first.complete_time

    def test_issue_gap_respected(self):
        trace = [[coalesced_instruction(0x10000), coalesced_instruction(0x10000)]]
        system = run_traces(trace)
        first, second = system.gpu.instruction_records
        gap = tiny_config().gpu.issue_gap_cycles
        assert second.issue_time - first.complete_time >= gap


class TestTranslationPath:
    def test_divergent_instruction_generates_walks(self):
        system = run_traces([[divergent_instruction(0x100000, pages=8)]])
        record = system.gpu.instruction_records[0]
        assert record.num_pages == 8
        assert record.walk_requests == 8  # cold TLBs: all miss
        assert system.iommu.walks_dispatched == 8

    def test_coalesced_instruction_single_translation(self):
        system = run_traces([[coalesced_instruction(0x100000)]])
        record = system.gpu.instruction_records[0]
        assert record.num_pages == 1
        assert system.iommu.walks_dispatched == 1

    def test_translation_reuse_hits_l1_tlb(self):
        trace = [[coalesced_instruction(0x100000), coalesced_instruction(0x100000)]]
        system = run_traces(trace)
        assert system.iommu.walks_dispatched == 1  # second instr hits L1 TLB

    def test_l2_tlb_shared_across_cus(self):
        # Two wavefronts on different CUs touch the same page; the second
        # should hit the shared L2 TLB rather than walking again.
        traces = [
            [coalesced_instruction(0x100000)],
            [coalesced_instruction(0x100000)],
        ]
        system = run_traces(traces)
        assert system.iommu.walks_dispatched <= 1

    def test_walk_latencies_recorded(self):
        system = run_traces([[divergent_instruction(0x100000, pages=4)]])
        record = system.gpu.instruction_records[0]
        assert len(record.walk_latencies) == 4
        assert all(latency > 0 for latency in record.walk_latencies)
        assert record.walk_accesses >= 4

    def test_data_access_follows_translation(self):
        system = run_traces([[coalesced_instruction(0x100000)]])
        assert system.memory.data_accesses == 2  # 16 lanes × 8B = 2 lines


class TestStallAccounting:
    def test_translation_heavy_run_stalls_cus(self):
        traces = [[divergent_instruction(0x100000 + wf * (1 << 20), pages=16)]
                  for wf in range(8)]
        system = run_traces(traces)
        assert system.gpu.total_stall_cycles > 0

    def test_epoch_tracking_counts_wavefronts(self):
        traces = [
            [divergent_instruction(0x100000 + wf * (1 << 22), pages=16)]
            for wf in range(8)
        ]
        system = run_traces(traces)
        assert system.gpu.mean_wavefronts_per_epoch > 0


class TestDeterminism:
    def test_identical_runs_produce_identical_cycles(self):
        trace = [
            [divergent_instruction(0x100000 + wf * (1 << 21), pages=8) for _ in range(4)]
            for wf in range(6)
        ]
        cycles = set()
        for _ in range(2):
            system = run_traces(trace)
            cycles.add(system.gpu.completion_time)
        assert len(cycles) == 1

    def test_random_scheduler_deterministic_given_seed(self):
        trace = [
            [divergent_instruction(0x100000 + wf * (1 << 21), pages=8)]
            for wf in range(6)
        ]
        cycles = set()
        for _ in range(2):
            system = run_traces(trace, scheduler="random")
            cycles.add(system.gpu.completion_time)
        assert len(cycles) == 1


class TestDataCompletions:
    """An instruction retires when the data of its last line returns.
    The reservation DRAM model knows every ready cycle at issue, so an
    instruction costs one data-completion event however many pages it
    touches; a queued controller returns each line in its own event."""

    #: The event kinds that carry data completions.
    KINDS = ("wf.line", "wf.complete")

    def _run(self, controller):
        system = dispatched_system(
            tiny_config("simt").with_dram_controller(controller), "MVT",
            scale=0.05, num_wavefronts=4,
        )
        sim = system.simulator
        fired = [0]
        for kind in self.KINDS:
            def counted(*payload, handler=sim._handlers[kind]):
                fired[0] += 1
                handler(*payload)
            sim._handlers[kind] = counted
        sim.run()
        assert system.gpu.finished
        return fired[0], system.gpu.instruction_records

    def test_reservation_model_fires_one_per_instruction(self):
        completions, records = self._run("reservation")
        with_lines = [record for record in records if record.num_lines]
        # Multi-page instructions: one event per page would be more.
        assert sum(record.num_pages for record in with_lines) > len(with_lines)
        assert completions == len(with_lines)

    def test_queued_controller_fires_one_per_line(self):
        completions, records = self._run("frfcfs")
        assert completions == sum(record.num_lines for record in records)
