"""Unit tests for the L1 → L2 → DRAM data path."""

from repro.engine.simulator import Simulator
from repro.memory.subsystem import MemorySubsystem
from tests.conftest import tiny_config


def make_subsystem():
    sim = Simulator()
    return sim, MemorySubsystem(sim, tiny_config())


def run_access(sim, memory, cu, address):
    done_at = []
    sim.register("test.done", lambda: done_at.append(sim.now))
    memory.data_access(cu, address, ("test.done",))
    sim.run()
    return done_at[0]


def test_cold_access_goes_to_dram():
    sim, memory = make_subsystem()
    latency = run_access(sim, memory, 0, 0x1000)
    # Must include both cache lookup latencies plus a DRAM row activate.
    config = tiny_config()
    floor = config.l1_cache.hit_latency + config.l2_cache.hit_latency
    assert latency > floor


def test_l1_hit_after_fill():
    sim, memory = make_subsystem()
    run_access(sim, memory, 0, 0x1000)
    start = sim.now
    latency = run_access(sim, memory, 0, 0x1000) - start
    assert latency == tiny_config().l1_cache.hit_latency


def test_l2_hit_for_other_cu():
    sim, memory = make_subsystem()
    run_access(sim, memory, 0, 0x1000)  # fills shared L2 (and CU0's L1)
    start = sim.now
    config = tiny_config()
    latency = run_access(sim, memory, 1, 0x1000) - start
    assert latency == config.l1_cache.hit_latency + config.l2_cache.hit_latency


def test_l1_caches_are_private():
    sim, memory = make_subsystem()
    run_access(sim, memory, 0, 0x1000)
    line = 0x1000 // 64
    assert memory.l1_caches[0].contains(line) is True
    assert memory.l1_caches[1].contains(line) is False


def test_page_table_read_completes_later():
    sim, memory = make_subsystem()
    done_at = []
    sim.register("test.done", lambda: done_at.append(sim.now))
    memory.page_table_read(0x2000, ("test.done",))
    start = sim.now
    sim.run()
    assert done_at and done_at[0] > start
    assert memory.page_table_reads == 1


def test_page_table_reads_bypass_caches():
    sim, memory = make_subsystem()
    sim.register("test.ignore", lambda: None)
    memory.page_table_read(0x2000, ("test.ignore",))
    memory.page_table_read(0x2000, ("test.ignore",))
    sim.run()
    assert memory.l2_cache.accesses == 0
    assert memory.dram.accesses == 2


def test_stats_shape():
    sim, memory = make_subsystem()
    run_access(sim, memory, 0, 0x40)
    stats = memory.stats()
    assert stats["data_accesses"] == 1
    assert "dram" in stats and "l2" in stats
