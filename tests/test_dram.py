"""Unit tests for the DRAM bank/row timing model."""

import pytest

from repro.config import DRAMConfig
from repro.memory.dram import DRAM
from repro.obs.trace import TraceConfig, Tracer


def make_dram(**kwargs):
    defaults = dict(
        channels=1,
        ranks_per_channel=1,
        banks_per_rank=2,
        row_size_bytes=2048,
        t_cas=30,
        t_rcd=30,
        t_rp=30,
        t_burst=8,
    )
    defaults.update(kwargs)
    return DRAM(DRAMConfig(**defaults))


def test_first_access_is_row_conflict():
    dram = make_dram()
    done = dram.access(0, now=0)
    assert done == 90  # t_rp + t_rcd + t_cas
    assert dram.row_conflicts == 1


def test_row_buffer_hit_is_faster():
    dram = make_dram()
    dram.access(0, now=0)
    # Address 128 is the next line of the same bank (two banks stripe by
    # line), and sits in the same row.
    done = dram.access(128, now=200)
    assert done == 200 + 30  # t_cas only
    assert dram.row_hits == 1


def test_same_bank_accesses_serialise():
    dram = make_dram()
    first_done = dram.access(0, now=0)
    # Immediately-issued same-bank access waits for busy_until.
    second_done = dram.access(0, now=0)
    assert second_done >= first_done + 30  # at least burst + hit latency


def test_different_banks_do_not_serialise():
    dram = make_dram()
    dram.access(0, now=0)
    # Line at 64 maps to the other bank (line striping): starts fresh.
    other_done = dram.access(64, now=0)
    assert other_done == 90


def test_row_conflict_after_different_row():
    dram = make_dram()
    dram.access(0, now=0)
    far = 2048 * 2 * 4  # different row of the same bank
    dram.access(far, now=1000)
    assert dram.row_conflicts == 2


def test_negative_time_rejected():
    with pytest.raises(ValueError):
        make_dram().access(0, now=-5)


def test_statistics_accumulate():
    dram = make_dram()
    dram.access(0, now=0)
    dram.access(64, now=0)
    stats = dram.stats()
    assert stats["accesses"] == 2
    assert stats["row_hit_rate"] == 0.0
    assert dram.average_latency > 0


def test_queue_delay_tracked():
    dram = make_dram()
    dram.access(0, now=0)
    dram.access(0, now=0)  # queued behind the first
    assert dram.total_queue_delay > 0


def banks_of_consecutive_lines(dram, lines):
    """The bank each of ``lines`` consecutive lines lands on, read from
    the tracer's timing receipt of each access."""
    dram.tracer = Tracer(TraceConfig(categories=frozenset({"walk"})))
    banks = []
    for line in range(lines):
        dram.access(line * 64, now=0)
        banks.append(dram.tracer.last_dram_access[2])
    return banks


def test_bank_mapping_covers_all_banks():
    dram = make_dram(banks_per_rank=4)
    assert banks_of_consecutive_lines(dram, 16) == [0, 1, 2, 3] * 4
    # With two channels, consecutive lines alternate channels first.
    two_channels = make_dram(channels=2, banks_per_rank=2)
    assert banks_of_consecutive_lines(two_channels, 4) == [0, 2, 1, 3]
