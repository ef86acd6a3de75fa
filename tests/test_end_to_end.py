"""End-to-end invariants: the paper's headline behaviours on small runs.

These are slower than unit tests (each runs a few simulations) but they
pin down the *direction* of every paper claim at a reduced scale, so a
regression in the model or the scheduler shows up here before the full
benchmark harness runs.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.config import baseline_config
from repro.experiments.runner import compare_schedulers, run_simulation
from repro.workloads.synthetic import ParametricWorkload

#: Reduced-size run shared by this module: half trace, one wave of slots.
RUN = dict(num_wavefronts=32, scale=0.25)


@pytest.fixture(scope="module")
def mvt_results():
    return compare_schedulers("MVT", schedulers=("random", "fcfs", "simt"), **RUN)


class TestHeadlineOrdering:
    def test_simt_beats_fcfs_on_irregular(self, mvt_results):
        assert mvt_results["simt"].speedup_over(mvt_results["fcfs"]) > 1.05

    def test_fcfs_beats_random_on_irregular(self, mvt_results):
        assert mvt_results["fcfs"].speedup_over(mvt_results["random"]) > 1.0

    def test_simt_reduces_stalls(self, mvt_results):
        assert mvt_results["simt"].stall_cycles < mvt_results["fcfs"].stall_cycles

    def test_simt_does_not_inflate_walks(self, mvt_results):
        assert (
            mvt_results["simt"].walks_dispatched
            <= mvt_results["fcfs"].walks_dispatched * 1.05
        )

    def test_regular_workload_unaffected(self):
        # At this reduced scale the cold-start transient is a larger
        # fraction of the run than in the full benchmark harness, so the
        # neutrality band is slightly wider than the paper's (the
        # full-scale band is checked by benchmarks/test_fig8_speedup.py).
        results = compare_schedulers("KMN", schedulers=("fcfs", "simt"), **RUN)
        speedup = results["simt"].speedup_over(results["fcfs"])
        assert 0.90 <= speedup <= 1.10


class TestWorkConservation:
    """Scheduling must never change *what* executes, only *when*."""

    def test_instruction_count_is_policy_independent(self, mvt_results):
        counts = {r.instructions for r in mvt_results.values()}
        assert len(counts) == 1

    def test_every_translation_eventually_serviced(self, mvt_results):
        for result in mvt_results.values():
            iommu = result.detail["iommu"]
            assert iommu["requests"] > 0
            # Requests = TLB hits + walks + coalesced joins, exactly.
            assert (
                iommu["requests"]
                == iommu["tlb_hits"]
                + iommu["walks_dispatched"]
                + iommu["coalesced"]
            )


class TestDivergenceSensitivity:
    def test_speedup_grows_with_divergence(self):
        def speedup(pages):
            workload = ParametricWorkload(
                pages_per_instruction=pages,
                instructions_per_wavefront=12,
                reuse_window=3,
                footprint_mb=64.0,
            )
            results = compare_schedulers(
                workload, schedulers=("fcfs", "simt"), num_wavefronts=32
            )
            return results["simt"].speedup_over(results["fcfs"])

        coalesced = speedup(1)
        divergent = speedup(48)
        assert divergent > coalesced

    def test_interleaving_exists_under_fcfs_divergence(self):
        workload = ParametricWorkload(
            pages_per_instruction=32,
            instructions_per_wavefront=12,
            reuse_window=3,
            footprint_mb=64.0,
        )
        result = run_simulation(workload, scheduler="fcfs", num_wavefronts=32)
        assert result.interleaved_fraction > 0.0

    def test_simt_reduces_interleaving(self):
        # reuse_window=8 keeps several instructions' walks buffered
        # concurrently — the regime where batching has leverage.  (At
        # reuse_window=3 arrivals trickle through the L2 TLB port one
        # instruction at a time, fcfs interleaving sits in noise, and
        # the batch pointer — correctly retired once its instruction
        # drains — has nothing to batch against.)
        workload = ParametricWorkload(
            pages_per_instruction=32,
            instructions_per_wavefront=12,
            reuse_window=8,
            footprint_mb=64.0,
        )
        fcfs = run_simulation(workload, scheduler="fcfs", num_wavefronts=32)
        simt = run_simulation(workload, scheduler="simt", num_wavefronts=32)
        assert simt.interleaved_fraction < fcfs.interleaved_fraction
        assert simt.total_cycles < fcfs.total_cycles


class TestSensitivityDirections:
    """Fig 13/14: resource sizing moves the win the way the paper reports."""

    def test_bigger_iommu_buffer_grows_the_win(self):
        def win(buffer_entries):
            config = baseline_config().with_iommu_buffer(buffer_entries)
            results = compare_schedulers(
                "MVT", schedulers=("fcfs", "simt"), config=config, **RUN
            )
            return results["simt"].speedup_over(results["fcfs"])

        assert win(512) > win(32)

    def test_abundant_walkers_remove_the_win(self):
        # With 8× the walkers, translation bandwidth stops being the
        # bottleneck and scheduling is near-neutral (paper Fig 13 trend).
        def win(walkers):
            config = baseline_config().with_walkers(walkers)
            results = compare_schedulers(
                "MVT", schedulers=("fcfs", "simt"), config=config, **RUN
            )
            return results["simt"].speedup_over(results["fcfs"])

        assert win(64) < win(8)


def test_simulation_imports_no_third_party_package():
    # README promises pure Python with no runtime dependencies; numpy is
    # the one that once crept in, so pin its absence after a real run.
    src = Path(__file__).resolve().parents[1] / "src"
    code = (
        "import sys\n"
        "import repro\n"
        "repro.run_simulation('MVT', num_wavefronts=2, scale=0.02)\n"
        "print('numpy' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True,
        text=True, check=True,
    )
    assert done.stdout.strip() == "False"
