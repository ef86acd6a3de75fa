"""Unit tests for the IOMMU pending-walk buffer."""

import random

import pytest

from repro.core.buffer import PendingWalkBuffer
from repro.core.request import TranslationRequest


def make_request(vpn=1, instruction_id=1):
    return TranslationRequest(
        vpn=vpn,
        instruction_id=instruction_id,
        wavefront_id=0,
        cu_id=0,
        issue_time=0,
    )


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        PendingWalkBuffer(0)


def test_add_and_len():
    buffer = PendingWalkBuffer(4)
    buffer.add(make_request(vpn=1), arrival_time=0)
    buffer.add(make_request(vpn=2), arrival_time=1)
    assert len(buffer) == 2
    assert not buffer.is_empty
    assert not buffer.is_full


def test_overflow_raises():
    buffer = PendingWalkBuffer(1)
    buffer.add(make_request(vpn=1), arrival_time=0)
    assert buffer.is_full
    with pytest.raises(OverflowError):
        buffer.add(make_request(vpn=2), arrival_time=1)


def test_iteration_in_arrival_order():
    buffer = PendingWalkBuffer(8)
    for vpn in (5, 3, 9):
        buffer.add(make_request(vpn=vpn), arrival_time=0)
    assert [entry.vpn for entry in buffer] == [5, 3, 9]


def test_oldest():
    buffer = PendingWalkBuffer(8)
    assert buffer.oldest() is None
    first = buffer.add(make_request(vpn=1), arrival_time=0)
    buffer.add(make_request(vpn=2), arrival_time=1)
    assert buffer.oldest() is first


def test_oldest_for_instruction():
    buffer = PendingWalkBuffer(8)
    buffer.add(make_request(vpn=1, instruction_id=1), arrival_time=0)
    target = buffer.add(make_request(vpn=2, instruction_id=2), arrival_time=1)
    buffer.add(make_request(vpn=3, instruction_id=2), arrival_time=2)
    assert buffer.oldest_for_instruction(2) is target
    assert buffer.oldest_for_instruction(99) is None


def test_duplicate_vpn_entries_are_legal():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=7, instruction_id=1), arrival_time=0)
    b = buffer.add(make_request(vpn=7, instruction_id=2), arrival_time=1)
    assert buffer.find_by_vpn(7) is a
    buffer.remove(a)
    assert buffer.find_by_vpn(7) is b
    buffer.remove(b)
    assert buffer.find_by_vpn(7) is None


def test_remove_frees_capacity():
    buffer = PendingWalkBuffer(1)
    entry = buffer.add(make_request(vpn=1), arrival_time=0)
    buffer.remove(entry)
    assert buffer.is_empty
    buffer.add(make_request(vpn=2), arrival_time=1)  # no overflow


def test_remove_unknown_entry_raises():
    buffer = PendingWalkBuffer(2)
    entry = buffer.add(make_request(vpn=1), arrival_time=0)
    buffer.remove(entry)
    with pytest.raises(KeyError):
        buffer.remove(entry)


def test_scores_accumulate_per_instruction():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=4)
    b = buffer.add(make_request(vpn=2, instruction_id=1), 0, estimated_accesses=3)
    assert buffer.score_of(a) == 7
    assert buffer.score_of(b) == 7


def test_score_persists_until_walk_completes():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=4)
    b = buffer.add(make_request(vpn=2, instruction_id=1), 0, estimated_accesses=2)
    buffer.remove(a)  # dispatched, still in flight
    assert buffer.score_of(b) == 6
    buffer.complete_walk(1)
    assert buffer.score_of(b) == 6  # one walk still active
    buffer.remove(b)
    buffer.complete_walk(1)  # last walk done: score released


def test_attach_does_not_change_score():
    buffer = PendingWalkBuffer(8)
    entry = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=4)
    buffer.attach(entry, make_request(vpn=1, instruction_id=2))
    assert buffer.score_of(entry) == 4
    assert buffer.total_coalesced == 1


def test_direct_dispatch_accounting():
    buffer = PendingWalkBuffer(8)
    buffer.account_direct_dispatch(5, 4)
    entry = buffer.add(make_request(vpn=9, instruction_id=5), 0, estimated_accesses=1)
    assert buffer.score_of(entry) == 5


def test_peak_occupancy_tracked():
    buffer = PendingWalkBuffer(4)
    entries = [buffer.add(make_request(vpn=v), 0) for v in range(3)]
    for entry in entries:
        buffer.remove(entry)
    assert buffer.peak_occupancy == 3


def test_min_score_entry_picks_lowest_score_then_oldest():
    buffer = PendingWalkBuffer(8)
    assert buffer.min_score_entry() is None
    buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=4)
    light = buffer.add(make_request(vpn=2, instruction_id=2), 0, estimated_accesses=1)
    buffer.add(make_request(vpn=3, instruction_id=2), 0, estimated_accesses=0)
    assert buffer.min_score_entry() is light  # score 1 < 4; oldest of instr 2


def test_min_score_entry_tracks_removals():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=1)
    b = buffer.add(make_request(vpn=2, instruction_id=1), 0, estimated_accesses=1)
    c = buffer.add(make_request(vpn=3, instruction_id=2), 0, estimated_accesses=9)
    assert buffer.min_score_entry() is a
    buffer.remove(a)
    assert buffer.min_score_entry() is b  # next-oldest of the same instruction
    buffer.remove(b)
    assert buffer.min_score_entry() is c  # only instruction left


def test_min_score_entry_sees_score_growth():
    buffer = PendingWalkBuffer(8)
    a = buffer.add(make_request(vpn=1, instruction_id=1), 0, estimated_accesses=2)
    b = buffer.add(make_request(vpn=2, instruction_id=2), 0, estimated_accesses=3)
    assert buffer.min_score_entry() is a
    # Instruction 1 gains work (a direct dispatch): instruction 2 wins now.
    buffer.account_direct_dispatch(1, 4)
    assert buffer.min_score_entry() is b


def _answers(buffer):
    """Every indexed query's answer, entries named by arrival sequence."""

    def seq(entry):
        return None if entry is None else entry.arrival_seq

    return (
        seq(buffer.min_score_entry()),
        [seq(buffer.find_by_vpn(vpn)) for vpn in range(12)],
    )


def _lockstep(first_query_step, steps=90, seed=2018):
    """Drive one seeded op stream through two buffers.  ``always`` is
    queried at every step, so its optional indexes exist from the start;
    ``late`` is first queried at ``first_query_step``.  Returns both
    buffers' answers at every step from then on."""
    rng = random.Random(seed)
    always, late = PendingWalkBuffer(10), PendingWalkBuffer(10)
    in_flight = {}  # instruction -> dispatched-but-incomplete walks
    seen = []
    for step in range(steps):
        op = rng.random()
        live = list(always)
        if op < 0.45 and not always.is_full:
            request = dict(vpn=rng.randrange(12), instruction_id=rng.randrange(6))
            estimate = rng.randrange(5)
            for buffer in (always, late):
                buffer.add(make_request(**request), step, estimate)
        elif op < 0.55 and live:
            index = rng.randrange(len(live))
            instruction_id = rng.randrange(6)
            for buffer in (always, late):
                entry = list(buffer)[index]
                buffer.attach(entry, make_request(entry.vpn, instruction_id))
        elif op < 0.8 and live:
            index = rng.randrange(len(live))
            instruction_id = live[index].instruction_id
            for buffer in (always, late):
                buffer.remove(list(buffer)[index])
            in_flight[instruction_id] = in_flight.get(instruction_id, 0) + 1
        elif op < 0.9:
            instruction_id, estimate = rng.randrange(6), rng.randrange(1, 5)
            for buffer in (always, late):
                buffer.account_direct_dispatch(instruction_id, estimate)
            in_flight[instruction_id] = in_flight.get(instruction_id, 0) + 1
        else:
            busy = sorted(i for i, n in in_flight.items() if n)
            if busy:
                instruction_id = rng.choice(busy)
                for buffer in (always, late):
                    buffer.complete_walk(instruction_id)
                in_flight[instruction_id] -= 1
        answer = _answers(always)
        if step >= first_query_step:
            seen.append((step, answer, _answers(late)))
    return seen


def test_indexes_built_on_first_query_match_maintained_ones():
    """A buffer builds its per-VPN and score indexes on the first query
    that needs them.  Built at any step, they must answer exactly as
    indexes maintained from the first add."""
    for first_query_step in range(91):
        for step, always, late in _lockstep(first_query_step):
            assert late == always, f"first queried at {first_query_step}, step {step}"
