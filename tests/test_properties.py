"""Property-based tests (hypothesis) for core data structures."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import PAGE_SIZE, TLBConfig
from repro.core.buffer import PendingWalkBuffer
from repro.core.request import TranslationRequest
from repro.core.schedulers import make_scheduler
from repro.core.scoring import ScoreTable
from repro.gpu.coalescer import coalesce
from repro.mmu.geometry import BASE_4K
from repro.mmu.page_table import PageTable
from repro.mmu.tlb import TLB

vpns = st.integers(min_value=0, max_value=(1 << 36) - 1)
addresses = st.integers(min_value=0, max_value=(1 << 48) - 1)


class TestAddressProperties:
    @given(addresses)
    def test_vpn_and_offset_reconstruct_address(self, address):
        assert BASE_4K.vpn(address) * PAGE_SIZE + BASE_4K.offset(address) == address

    @given(vpns)
    def test_level_indices_reconstruct_vpn(self, vpn):
        rebuilt = 0
        for level in (4, 3, 2, 1):
            rebuilt = (rebuilt << 9) | BASE_4K.level_index(vpn, level)
        assert rebuilt == vpn

    @given(vpns, st.integers(min_value=1, max_value=4))
    def test_prefix_is_monotone_in_level(self, vpn, level):
        # A shallower (higher-level) prefix is a prefix of the deeper one.
        deeper = BASE_4K.vpn_prefix(vpn, level)
        for shallower_level in range(level + 1, 5):
            shallower = BASE_4K.vpn_prefix(vpn, shallower_level)
            shift = 9 * (shallower_level - level)
            assert deeper >> shift == shallower


class TestPageTableProperties:
    @given(st.lists(vpns, min_size=1, max_size=50))
    def test_translation_is_a_function(self, vpn_list):
        table = PageTable()
        first = {vpn: table.translate(vpn) for vpn in vpn_list}
        for vpn, pfn in first.items():
            assert table.translate(vpn) == pfn

    @given(st.lists(vpns, min_size=2, max_size=50, unique=True))
    def test_distinct_pages_never_share_frames(self, vpn_list):
        table = PageTable()
        pfns = [table.translate(vpn) for vpn in vpn_list]
        assert len(set(pfns)) == len(vpn_list)

    @given(vpns)
    def test_walk_path_levels_descend(self, vpn):
        table = PageTable()
        levels = [level for level, _ in table.walk_addresses(vpn)]
        assert levels == [4, 3, 2, 1]


class TestTLBProperties:
    @given(st.lists(st.tuples(vpns, st.integers(0, 1 << 20)), max_size=200))
    def test_occupancy_never_exceeds_capacity(self, inserts):
        tlb = TLB(TLBConfig(entries=8, associativity=2))
        for vpn, pfn in inserts:
            tlb.insert(vpn, pfn)
        assert tlb.occupancy <= 8

    @given(st.lists(vpns, min_size=1, max_size=100))
    def test_lookup_returns_last_inserted_value(self, vpn_list):
        tlb = TLB(TLBConfig(entries=256, associativity=16))
        mapping = {}
        for i, vpn in enumerate(vpn_list):
            tlb.insert(vpn, i)
            mapping[vpn] = i
        # Capacity (256) exceeds the unique-vpn count, so nothing evicted.
        for vpn, expected in mapping.items():
            assert tlb.lookup(vpn) == expected

    @given(st.lists(vpns, max_size=100))
    def test_stats_are_consistent(self, lookups):
        tlb = TLB(TLBConfig(entries=4))
        for vpn in lookups:
            tlb.lookup(vpn)
        assert tlb.hits + tlb.misses == len(lookups)


class TestCoalescerProperties:
    @given(st.lists(addresses, max_size=64))
    def test_counts_bounded_by_lanes(self, lane_addresses):
        access = coalesce(lane_addresses)
        assert access.num_pages <= access.num_lines <= len(lane_addresses)
        assert access.num_lanes == len(lane_addresses)

    @given(st.lists(addresses, min_size=1, max_size=64))
    def test_every_touched_page_appears(self, lane_addresses):
        access = coalesce(lane_addresses)
        assert set(access.lines_by_page) == {BASE_4K.vpn(a) for a in lane_addresses}

    @given(st.lists(addresses, min_size=1, max_size=64))
    def test_lines_belong_to_their_page(self, lane_addresses):
        access = coalesce(lane_addresses)
        for page, lines in access.lines_by_page.items():
            assert all(BASE_4K.vpn(line) == page for line in lines)


class TestScoreTableProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(1, 4)),
            min_size=1,
            max_size=100,
        )
    )
    def test_score_is_sum_of_active_contributions(self, events):
        table = ScoreTable()
        totals = {}
        for instruction, estimate in events:
            table.add(instruction, estimate)
            totals[instruction] = totals.get(instruction, 0) + estimate
        for instruction, expected in totals.items():
            assert table.score_of(instruction) == expected

    @given(st.lists(st.integers(1, 4), min_size=1, max_size=64))
    def test_score_zero_after_all_walks_complete(self, estimates):
        table = ScoreTable()
        for estimate in estimates:
            table.add(7, estimate)
        for _ in estimates:
            table.complete(7)
        assert table.score_of(7) == 0
        assert len(table) == 0


def buffer_with_entries(entry_specs):
    buffer = PendingWalkBuffer(capacity=max(1, len(entry_specs)))
    for i, (instruction, estimate) in enumerate(entry_specs):
        request = TranslationRequest(
            vpn=i, instruction_id=instruction, wavefront_id=0, cu_id=0, issue_time=0
        )
        buffer.add(request, arrival_time=i, estimated_accesses=estimate)
    return buffer


entry_specs = st.lists(
    st.tuples(st.integers(0, 7), st.integers(1, 4)), min_size=1, max_size=40
)


class TestSchedulerProperties:
    @given(entry_specs, st.sampled_from(["fcfs", "random", "sjf", "batch", "simt"]))
    @settings(max_examples=60)
    def test_selection_always_from_buffer(self, specs, policy):
        buffer = buffer_with_entries(specs)
        scheduler = make_scheduler(policy, seed=0, aging_threshold=10)
        entry = scheduler.select(buffer)
        assert entry is not None
        assert entry in list(buffer)

    @given(entry_specs, st.sampled_from(["fcfs", "random", "sjf", "batch", "simt"]))
    @settings(max_examples=60)
    def test_repeated_selection_drains_buffer(self, specs, policy):
        buffer = buffer_with_entries(specs)
        scheduler = make_scheduler(policy, seed=0, aging_threshold=10)
        drained = 0
        while not buffer.is_empty:
            entry = scheduler.select(buffer)
            buffer.remove(entry)
            drained += 1
        assert drained == len(specs)
        assert scheduler.select(buffer) is None

    @given(entry_specs)
    @settings(max_examples=60)
    def test_sjf_picks_minimal_score(self, specs):
        buffer = buffer_with_entries(specs)
        scheduler = make_scheduler("sjf", aging_threshold=10_000)
        entry = scheduler.select(buffer)
        minimum = min(buffer.score_of(e) for e in buffer)
        assert buffer.score_of(entry) == minimum

    @given(entry_specs)
    @settings(max_examples=60)
    def test_fcfs_is_arrival_ordered(self, specs):
        buffer = buffer_with_entries(specs)
        scheduler = make_scheduler("fcfs")
        previous = -1
        while not buffer.is_empty:
            entry = scheduler.select(buffer)
            assert entry.arrival_seq > previous
            previous = entry.arrival_seq
            buffer.remove(entry)
