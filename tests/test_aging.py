"""Unit tests for the starvation-avoidance aging policy.

The per-entry tests drive :class:`NaiveAgingPolicy`, the executable
specification that bumps each passed-over entry's ``bypass_count``; the
buffer tests drive the incremental :class:`AgingPolicy`, which derives
the oldest entry's count from the dispatches it has recorded.
"""

import pytest

from repro.core.aging import AgingPolicy
from repro.core.reference import NaiveAgingPolicy
from repro.core.request import TranslationRequest, WalkBufferEntry


def make_entry(seq, vpn=None):
    request = TranslationRequest(
        vpn=vpn if vpn is not None else seq,
        instruction_id=seq,
        wavefront_id=0,
        cu_id=0,
        issue_time=0,
    )
    return WalkBufferEntry(request, arrival_seq=seq, arrival_time=0)


def test_threshold_must_be_positive():
    with pytest.raises(ValueError):
        AgingPolicy(0)


def test_bypass_credits_only_older_entries():
    policy = NaiveAgingPolicy(10)
    entries = [make_entry(0), make_entry(1), make_entry(2)]
    policy.record_bypasses(entries, dispatched=entries[1])
    assert entries[0].bypass_count == 1
    assert entries[1].bypass_count == 0
    assert entries[2].bypass_count == 0


def test_no_starving_below_threshold():
    policy = NaiveAgingPolicy(3)
    entries = [make_entry(0), make_entry(1)]
    entries[0].bypass_count = 2
    assert policy.starving(entries) is None


def test_starving_entry_detected_at_threshold():
    policy = NaiveAgingPolicy(3)
    entry = make_entry(0)
    entry.bypass_count = 3
    assert policy.starving([entry]) is entry
    assert policy.promotions == 1


def test_oldest_starving_entry_wins():
    policy = NaiveAgingPolicy(2)
    older, newer = make_entry(0), make_entry(5)
    older.bypass_count = 2
    newer.bypass_count = 9
    assert policy.starving([newer, older]) is older


def test_repeated_dispatches_age_the_passed_over():
    policy = NaiveAgingPolicy(3)
    waiting = make_entry(0)
    for seq in range(1, 4):
        policy.record_bypasses([waiting], dispatched=make_entry(seq))
    assert policy.starving([waiting]) is waiting


def make_buffer_with(vpn_by_instruction):
    from repro.core.buffer import PendingWalkBuffer

    buffer = PendingWalkBuffer(16)
    entries = []
    for instruction_id, vpn in vpn_by_instruction:
        request = TranslationRequest(
            vpn=vpn,
            instruction_id=instruction_id,
            wavefront_id=0,
            cu_id=0,
            issue_time=0,
        )
        entries.append(buffer.add(request, arrival_time=0))
    return buffer, entries


def test_incremental_path_promotes_oldest_after_threshold_dispatches():
    policy = AgingPolicy(2)
    buffer, entries = make_buffer_with([(1, 1), (2, 2), (3, 3)])
    waiting = entries[0]
    for younger in entries[1:]:
        assert policy.starving(buffer) is None
        policy.record_dispatch(younger)
        buffer.remove(younger)
    # Bypassed twice — exactly at threshold.
    assert policy.starving(buffer) is waiting
    assert policy.promotions == 1


def test_direct_dispatches_do_not_age_anyone():
    policy = AgingPolicy(1)
    buffer, entries = make_buffer_with([(1, 1)])
    direct = make_entry(0)
    direct.arrival_seq = -1  # bypassed the buffer entirely
    policy.record_dispatch(direct)
    assert policy.starving(buffer) is None
