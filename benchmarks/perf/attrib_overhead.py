"""Attribution bench: the single-pass walk matcher must stay cheap.

Attributing a trace (:func:`repro.obs.attrib.attribute_walks`) is a
post-processing pass over a traced sweep's events.  This bench times
that pass over a fixed sweep and writes the events-per-CPU-second rate
into ``BENCH_attrib.json`` (unified envelope from
:mod:`repro.stats.export`).

The rate is a wall-clock number on a shared host, so the floor warns
rather than fails: below :data:`MIN_EVENTS_PER_CPU_SEC` the bench
prints a ``WARN:`` line and still exits 0.  The sweep's deterministic
facts — the attributed walk count, zero reconciliation failures, zero
dropped events and a blame report byte-identical across worker counts —
are tier-1 tests in ``tests/test_obs_attrib.py``.

The *hot-path* cost of the stage-boundary emitters when tracing is off
is deliberately NOT measured here: those emitters sit behind the same
``tracer is None`` / category guards as every other emitter, so the
``tracing_overhead`` bench's ≤3% inert bound already covers them.

Usage::

    PYTHONPATH=src python benchmarks/perf/attrib_overhead.py [--quick]
        [--output F]
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

from repro.config import baseline_config
from repro.experiments.runner import run_many
from repro.obs.attrib import attribute_walks, blame_sweep_specs
from repro.stats.export import write_bench_report

#: Warn below this many trace events attributed per CPU-second: half
#: the 487,213 measured on a 1-CPU host when the bench was introduced.
MIN_EVENTS_PER_CPU_SEC = 243_607

SWEEP = dict(
    workloads=["MVT"],
    schedulers=["fcfs", "simt"],
    seeds=[1],
    num_wavefronts=8,
    scale=0.1,
)


def measure(rounds):
    """Median events-per-CPU-second of the matcher over the sweep's
    combined event stream (one untimed pass warms the interpreter)."""
    specs = blame_sweep_specs(config=baseline_config(), **SWEEP)
    events = []
    for result in run_many(specs, jobs=1):
        events.extend(result.detail["trace"]["events"])
    walks = len(attribute_walks(events).walks)
    rates = []
    for _ in range(rounds):
        cpu_start = time.process_time()
        attribute_walks(events)
        elapsed = time.process_time() - cpu_start
        rates.append(len(events) / elapsed if elapsed > 0 else float("inf"))
    return {
        "sweep": {**SWEEP, "specs": len(specs)},
        "rounds": rounds,
        "analysis": {
            "trace_events": len(events),
            "walks_per_pass": walks,
            "events_per_cpu_sec": round(statistics.median(rates)),
        },
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer timing rounds for CI"
    )
    parser.add_argument(
        "--output",
        default=str(
            Path(__file__).resolve().parents[2] / "BENCH_attrib.json"
        ),
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)

    report = {
        "min_events_per_cpu_sec": MIN_EVENTS_PER_CPU_SEC,
        "measurement": measure(rounds=3 if args.quick else 5),
        "params": {"quick": args.quick},
    }
    document = write_bench_report("attrib", report, args.output)
    print(json.dumps(document, indent=2))

    rate = report["measurement"]["analysis"]["events_per_cpu_sec"]
    print(
        f"attribution: {rate} events/CPU-s "
        f"(floor {MIN_EVENTS_PER_CPU_SEC})"
    )
    if rate < MIN_EVENTS_PER_CPU_SEC:
        print(
            f"WARN: attribution rate {rate} events/CPU-s is below the "
            f"{MIN_EVENTS_PER_CPU_SEC} floor",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
