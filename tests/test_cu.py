"""Unit tests for compute-unit stall accounting."""

import pytest

from repro.engine.simulator import Simulator
from repro.gpu.cu import ComputeUnit
from tests.conftest import tiny_config


def make_cu():
    sim = Simulator()
    return sim, ComputeUnit(0, sim, tiny_config())


def advance(sim, cycles):
    sim.register("test.noop", lambda: None)
    sim.post(cycles, "test.noop")
    sim.run()


def test_empty_cu_never_stalls():
    sim, cu = make_cu()
    advance(sim, 100)
    cu.finalize()
    assert cu.stall_cycles == 0


def test_active_wavefront_is_not_a_stall():
    sim, cu = make_cu()
    cu.wavefront_arrived(active=True)
    advance(sim, 100)
    cu.finalize()
    assert cu.stall_cycles == 0


def test_all_blocked_counts_as_stall():
    sim, cu = make_cu()
    cu.wavefront_arrived(active=True)
    cu.wavefront_blocked()
    advance(sim, 100)
    cu.finalize()
    assert cu.stall_cycles == 100


def test_one_active_wavefront_hides_others():
    sim, cu = make_cu()
    cu.wavefront_arrived(active=True)
    cu.wavefront_arrived(active=True)
    cu.wavefront_blocked()  # one blocked, one active: no stall
    advance(sim, 50)
    cu.finalize()
    assert cu.stall_cycles == 0


def test_stall_interval_bounded_by_unblock():
    sim, cu = make_cu()
    cu.wavefront_arrived(active=True)
    cu.wavefront_blocked()
    advance(sim, 30)
    cu.wavefront_unblocked()
    advance(sim, 70)
    cu.finalize()
    assert cu.stall_cycles == 30


def test_departure_accounting():
    sim, cu = make_cu()
    cu.wavefront_arrived(active=True)
    cu.wavefront_departed(was_active=True)
    assert cu.resident_wavefronts == 0
    assert cu.active_wavefronts == 0


def test_underflow_detected():
    sim, cu = make_cu()
    cu.wavefront_arrived(active=True)
    cu.wavefront_blocked()
    with pytest.raises(RuntimeError):
        cu.wavefront_blocked()


def test_overflow_detected():
    sim, cu = make_cu()
    cu.wavefront_arrived(active=True)
    with pytest.raises(RuntimeError):
        cu.wavefront_unblocked()


def test_stats_contains_tlb():
    sim, cu = make_cu()
    assert "l1_tlb" in cu.stats()
