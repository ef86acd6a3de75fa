"""Unit tests for translation requests and walk buffer entries."""

import pytest

from repro.core.request import (
    INSTRUCTION_ID_SPACE,
    TranslationRequest,
    WalkBufferEntry,
)


def make_request(vpn=0x10, instruction_id=1, wavefront_id=0):
    return TranslationRequest(
        vpn=vpn,
        instruction_id=instruction_id,
        wavefront_id=wavefront_id,
        cu_id=0,
        issue_time=100,
    )


def test_instruction_id_folds_to_20_bits():
    def tag(global_id):
        return make_request(instruction_id=global_id).instruction_id

    assert tag(0) == 0
    assert tag(INSTRUCTION_ID_SPACE) == 0
    assert tag(INSTRUCTION_ID_SPACE + 7) == 7


def test_request_latency_unset_until_complete():
    request = make_request()
    assert request.latency is None
    request.complete_time = 350
    assert request.latency == 250


def test_request_repr_mentions_vpn():
    assert "vpn" in repr(make_request())


def test_entry_attach_same_page():
    entry = WalkBufferEntry(make_request(vpn=5), arrival_seq=0, arrival_time=0)
    entry.attach(make_request(vpn=5, instruction_id=2))
    assert len(entry.requests) == 2


def test_entry_attach_rejects_other_page():
    entry = WalkBufferEntry(make_request(vpn=5), arrival_seq=0, arrival_time=0)
    with pytest.raises(ValueError):
        entry.attach(make_request(vpn=6))


def test_entry_carries_instruction_identity():
    entry = WalkBufferEntry(
        make_request(instruction_id=42), arrival_seq=3, arrival_time=9
    )
    assert entry.instruction_id == 42
    assert entry.arrival_seq == 3
    assert entry.bypass_count == 0
