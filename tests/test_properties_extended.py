"""Property-based tests for the geometry, controller and trace codec."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import DRAMConfig
from repro.engine.simulator import Simulator
from repro.memory.controller import QueuedMemoryController
from repro.mmu.geometry import BASE_4K, LARGE_2M
from repro.workloads.trace_io import _decode_instruction, _encode_instruction

addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestGeometryProperties:
    @given(addresses)
    def test_vpn_offset_reconstruct_for_both_geometries(self, address):
        for geometry in (BASE_4K, LARGE_2M):
            vpn = geometry.vpn(address)
            offset = geometry.offset(address)
            assert vpn * geometry.page_size + offset == address

    @given(addresses)
    def test_large_unit_contains_its_base_pages(self, address):
        assert BASE_4K.vpn(address) >> 9 == LARGE_2M.vpn(address)

    @given(st.integers(min_value=0, max_value=(1 << 27) - 1))
    def test_prefix_chain_consistency(self, unit):
        # Walking one level up always shifts exactly 9 more bits away.
        for level in (3, 4):
            assert LARGE_2M.vpn_prefix(unit, level) == unit >> (
                9 * (level - 2)
            )

    @given(addresses, st.sampled_from([BASE_4K, LARGE_2M]))
    def test_frame_base_round_trip(self, address, geometry):
        pfn = geometry.vpn(address)
        base = geometry.frame_base(pfn)
        assert geometry.vpn(base) == pfn
        assert geometry.offset(base) == 0


class TestTraceCodecProperties:
    @given(st.lists(addresses, max_size=64))
    def test_encode_decode_round_trip(self, lanes):
        assert _decode_instruction(_encode_instruction(lanes)) == lanes

    @given(st.lists(addresses, min_size=1, max_size=64))
    def test_encoded_head_is_first_address(self, lanes):
        assert _encode_instruction(lanes)[0] == lanes[0]


class TestControllerProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 20), min_size=1, max_size=40),
        st.sampled_from(["fcfs", "frfcfs"]),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_read_completes_exactly_once(self, line_numbers, policy):
        sim = Simulator()
        controller = QueuedMemoryController(
            sim,
            DRAMConfig(channels=1, ranks_per_channel=1, banks_per_rank=4),
            policy=policy,
        )
        completions = []
        sim.register("test.done", completions.append)
        for index, line in enumerate(line_numbers):
            controller.read(line * 64, ("test.done", index))
        sim.run()
        assert sorted(completions) == list(range(len(line_numbers)))
        assert controller.reads == len(line_numbers)
        assert controller.queued_requests == 0

    @given(
        st.lists(st.integers(min_value=0, max_value=1 << 16), min_size=2, max_size=30)
    )
    @settings(max_examples=40, deadline=None)
    def test_row_hits_plus_conflicts_equals_reads(self, line_numbers):
        sim = Simulator()
        controller = QueuedMemoryController(
            sim,
            DRAMConfig(channels=1, ranks_per_channel=1, banks_per_rank=2),
            policy="frfcfs",
        )
        sim.register("test.ignore", lambda: None)
        for line in line_numbers:
            controller.read(line * 64, ("test.ignore",))
        sim.run()
        assert controller.row_hits + controller.row_conflicts == controller.reads
