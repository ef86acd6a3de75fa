"""Extension: seed-robustness of the headline result.

A reproduction resting on one synthetic trace would be fragile.  This
bench re-runs the headline comparison across several seeds — each seed
regenerates the workload's trace — and checks that the SIMT-aware win
is consistently present, not a artefact of one address sequence.
"""

from repro.experiments.runner import run_many
from repro.obs.aggregate import distribution, sweep_specs

from benchmarks.conftest import BENCH, JOBS, run_once

WORKLOADS = ("MVT", "GEV")
SEEDS = (0, 1, 2)


def run_study():
    """``{workload: [simt-over-fcfs speedup per seed]}``."""
    specs = sweep_specs(WORKLOADS, ("fcfs", "simt"), SEEDS, **BENCH)
    runs = {
        (spec["workload"], spec["scheduler"], spec["seed"]): result
        for spec, result in zip(specs, run_many(specs, jobs=JOBS))
    }
    return {
        workload: [
            runs[workload, "simt", seed].speedup_over(runs[workload, "fcfs", seed])
            for seed in SEEDS
        ]
        for workload in WORKLOADS
    }


def test_extension_seed_stability(benchmark):
    speedups = run_once(benchmark, run_study)
    summaries = {workload: distribution(values) for workload, values in speedups.items()}
    print()
    print(f"Extension: headline stability across seeds {SEEDS}")
    for workload, summary in summaries.items():
        print(
            f"  {workload}: simt/fcfs = {summary['mean']:.3f} ± "
            f"{summary['stdev']:.3f} (n={summary['count']}, "
            f"spread={summary['max'] - summary['min']:.3f})"
        )
    for workload, summary in summaries.items():
        # Every seed lands on the winning side...
        assert len({value > 1.0 for value in speedups[workload]}) == 1, workload
        assert summary["min"] > 1.05, workload
        # ...and the mean matches the single-seed headline ballpark.
        assert summary["mean"] > 1.15, workload
