"""Unit tests for the page-table walker state machine."""

from repro.config import PWCConfig
from repro.core.request import TranslationRequest, WalkBufferEntry
from repro.engine.simulator import Simulator
from repro.mmu.page_table import PageTable
from repro.mmu.pwc import PageWalkCache
from repro.mmu.walker import PageTableWalker


def make_walker(latency=10):
    sim = Simulator()
    table = PageTable()
    pwc = PageWalkCache(PWCConfig(entries_per_level=8, associativity=4))
    accesses = []

    def page_table_read(address, on_complete):
        accesses.append(address)
        sim.at(sim.now + latency, on_complete)

    walker = PageTableWalker(0, sim, table, pwc, page_table_read)
    return sim, table, pwc, walker, accesses


def make_entry(vpn):
    request = TranslationRequest(
        vpn=vpn, instruction_id=0, wavefront_id=0, cu_id=0, issue_time=0
    )
    return WalkBufferEntry(request, arrival_seq=0, arrival_time=0)


def run_walk(sim, walker, entry):
    results = []
    walker.start(entry, lambda w, e, pfn, acc: results.append((pfn, acc, sim.now)))
    sim.run()
    assert len(results) == 1
    return results[0]


def test_cold_walk_takes_four_sequential_accesses():
    sim, table, pwc, walker, accesses = make_walker(latency=10)
    pfn, walk_accesses, finished_at = run_walk(sim, walker, make_entry(0x123))
    assert walk_accesses == 4
    assert len(accesses) == 4
    assert finished_at == 40  # four chained 10-cycle reads


def test_walk_returns_correct_translation():
    sim, table, pwc, walker, _ = make_walker()
    pfn, _, _ = run_walk(sim, walker, make_entry(0x555))
    assert pfn == table.lookup(0x555)


def test_pwc_fill_shortens_next_walk():
    sim, table, pwc, walker, accesses = make_walker()
    run_walk(sim, walker, make_entry(0x700))
    accesses.clear()
    # Same 2 MB region: only the leaf access remains.
    _, walk_accesses, _ = run_walk(sim, walker, make_entry(0x701))
    assert walk_accesses == 1
    assert len(accesses) == 1


def test_walker_busy_flag():
    sim, table, pwc, walker, _ = make_walker()
    entry = make_entry(0x1)
    walker.start(entry, lambda *args: None)
    assert walker.is_busy
    assert walker.current_entry is entry
    sim.run()
    assert not walker.is_busy


def test_walker_rejects_double_start():
    import pytest

    sim, table, pwc, walker, _ = make_walker()
    walker.start(make_entry(0x1), lambda *args: None)
    with pytest.raises(RuntimeError):
        walker.start(make_entry(0x2), lambda *args: None)


def test_walk_accesses_descend_the_radix_tree():
    sim, table, pwc, walker, accesses = make_walker()
    run_walk(sim, walker, make_entry(0x999))
    expected = [address for _, address in table.walk_addresses(0x999)]
    assert accesses == expected


def test_statistics():
    sim, table, pwc, walker, _ = make_walker()
    run_walk(sim, walker, make_entry(0x10))
    run_walk(sim, walker, make_entry(0x11))
    assert walker.walks_completed == 2
    assert walker.memory_accesses == 5  # 4 cold + 1 PWC-assisted
    assert walker.busy_cycles > 0
