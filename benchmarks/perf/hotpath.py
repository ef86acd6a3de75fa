"""Scheduler hot-path microbenchmark: indexed buffer vs linear scans.

Two measurements, written to a JSON report (default
``BENCH_hotpath.json`` in the repository root):

* **select throughput** — steady-state ``select → remove → refill``
  churn at fixed buffer occupancy, comparing the indexed SIMT-aware
  scheduler against its naive reference twin (the pre-optimisation
  linear-scan hot path; the buffer builds an index only when a query
  asks for one, and the twin asks for none, so it pays exactly the old
  costs);
* **end-to-end** — a full simulation of an irregular workload with a
  256-entry walk buffer, comparing simulated events per wall-clock
  second and asserting the two runs produce bit-identical results.

Usage::

    PYTHONPATH=src python benchmarks/perf/hotpath.py [--quick] [--output F]

The thresholds asserted here (3.2x select throughput at 256-entry
occupancy, 1.5x end-to-end) guard against future regressions of the
indexed hot path; ``--no-check`` records without asserting.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

from repro.config import baseline_config
from repro.core.buffer import PendingWalkBuffer
from repro.core.reference import make_reference_scheduler
from repro.core.request import TranslationRequest
from repro.core.schedulers import make_scheduler
from repro.experiments.runner import run_simulation
from repro.stats.export import write_bench_report

#: Instruction pool for the churn loop: large enough that per-instruction
#: queues stay short, small enough that batching sometimes hits.
INSTRUCTION_POOL = 32


def _fill(buffer, rng, occupancy):
    for _ in range(occupancy):
        _refill(buffer, rng)


def _refill(buffer, rng):
    iid = rng.randrange(INSTRUCTION_POOL)
    request = TranslationRequest(
        vpn=rng.randrange(1 << 20),
        instruction_id=iid,
        wavefront_id=0,
        cu_id=0,
        issue_time=0,
    )
    buffer.add(request, arrival_time=0, estimated_accesses=rng.randrange(1, 5))


def measure_select_throughput(scheduler, occupancy, selects, seed=0):
    """Selects/second of a steady-state select→remove→refill churn."""
    rng = random.Random(seed)
    buffer = PendingWalkBuffer(occupancy)
    _fill(buffer, rng, occupancy)
    start = time.process_time()
    for _ in range(selects):
        choice = scheduler.select(buffer)
        scheduler.note_dispatch(choice)
        buffer.remove(choice)
        buffer.complete_walk(choice.instruction_id)
        _refill(buffer, rng)
    elapsed = time.process_time() - start
    return selects / elapsed if elapsed > 0 else float("inf")


def bench_select(occupancies, selects, repeats):
    rows = {}
    for occupancy in occupancies:
        indexed, naive = 0.0, 0.0
        # Interleaved best-of-``repeats``: contention only slows a run,
        # so each implementation's maximum is its cleanest estimate.
        for _ in range(repeats):
            indexed = max(
                indexed,
                measure_select_throughput(make_scheduler("simt"), occupancy, selects),
            )
            # The naive twin scans the buffer linearly and never asks an
            # indexed query, so its buffer builds no index.
            naive = max(
                naive,
                measure_select_throughput(
                    make_reference_scheduler("simt"), occupancy, selects
                ),
            )
        rows[f"occupancy_{occupancy}"] = {
            "indexed_selects_per_sec": round(indexed),
            "naive_selects_per_sec": round(naive),
            "speedup": round(indexed / naive, 2),
        }
    return rows


#: End-to-end scenario: a scheduler-stress machine — large lookahead
#: (the Fig 14 buffer-size axis, continued) with the Fig 13 sensitivity
#: studies' 16 walkers, so selects are frequent and the buffer stays
#: occupied.  This is where the pre-change O(n) hot path hurt most.
E2E_BUFFER = 1024
E2E_WALKERS = 16


def bench_end_to_end(workload, scale, num_wavefronts, repeats):
    config = (
        baseline_config().with_iommu_buffer(E2E_BUFFER).with_walkers(E2E_WALKERS)
    )
    rates = {"indexed": [], "naive": []}
    results = {}
    # Interleave the two implementations and keep each one's best rate.
    # Rates are events per *CPU* second (process time), so background
    # load on the machine doesn't masquerade as a regression; what load
    # remains (cache pollution) only ever slows a run down, so the
    # per-implementation maximum is the least-contended estimate.
    for _ in range(repeats):
        for label, scheduler in (
            ("indexed", make_scheduler("simt")),
            ("naive", make_reference_scheduler("simt")),
        ):
            cpu_start = time.process_time()
            result = run_simulation(
                workload,
                config=config,
                scheduler=scheduler,
                num_wavefronts=num_wavefronts,
                scale=scale,
            )
            cpu_seconds = time.process_time() - cpu_start
            rates[label].append(
                result.detail["engine"]["events_processed"] / cpu_seconds
            )
            results[label] = result
    identical = all(
        getattr(results["indexed"], f) == getattr(results["naive"], f)
        for f in ("total_cycles", "stall_cycles", "walks_dispatched")
    )
    indexed, naive = max(rates["indexed"]), max(rates["naive"])
    return {
        "workload": workload,
        "scheduler": "simt",
        "buffer_entries": E2E_BUFFER,
        "num_walkers": E2E_WALKERS,
        "scale": scale,
        "num_wavefronts": num_wavefronts,
        "repeats": repeats,
        "indexed_events_per_cpu_sec": round(indexed),
        "naive_events_per_cpu_sec": round(naive),
        "speedup": round(indexed / naive, 2),
        "identical_results": identical,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="smaller run for CI smoke testing"
    )
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parents[2] / "BENCH_hotpath.json"),
        help="where to write the JSON report",
    )
    parser.add_argument(
        "--no-check", action="store_true", help="record without asserting thresholds"
    )
    args = parser.parse_args(argv)

    if args.quick:
        occupancies, selects, repeats = (64, 256), 2_000, 1
        e2e = dict(workload="XSB", scale=0.1, num_wavefronts=8, repeats=1)
    else:
        occupancies, selects, repeats = (64, 128, 256), 20_000, 3
        e2e = dict(workload="XSB", scale=0.3, num_wavefronts=32, repeats=3)

    select_rows = bench_select(occupancies, selects, repeats)
    end_to_end = bench_end_to_end(**e2e)
    report = {
        "select_throughput": select_rows,
        "end_to_end": end_to_end,
        "params": {"selects_per_point": selects, "quick": args.quick},
    }
    document = write_bench_report("hotpath", report, args.output)
    print(json.dumps(document, indent=2))

    if args.no_check:
        return 0
    failures = []
    at_256 = select_rows.get("occupancy_256")
    if at_256 and at_256["speedup"] < 3.2:
        failures.append(f"select speedup at 256 entries {at_256['speedup']} < 3.2")
    if not end_to_end["identical_results"]:
        failures.append("end-to-end results differ between indexed and naive")
    if not args.quick and end_to_end["speedup"] < 1.5:
        failures.append(f"end-to-end speedup {end_to_end['speedup']} < 1.5")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
