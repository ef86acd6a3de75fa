"""Repository benchmark: one workload, measured end to end or by layer.

Run from the root of a checkout::

    python3 perfbench/run.py --workload irregular --seed 1 --seconds 25 --trace 0

``--workload all`` runs the four workloads in turn, each in a process of
its own, one JSON line each.
``--trace 0`` repeats the workload's set of simulations for
``--seconds`` and reports the end-to-end metrics (medians over the
repetitions).  ``--trace 1`` runs the set once untraced, then repeats it
with every layer span installed and reports the per-layer metrics.
Either way every simulation is checked against the stored reference
for its seed (``perfbench/reference.json``).  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Exit status: 0 when every simulation passed its checks, 1 when one
failed (the JSON line is still printed), 2 on a usage or set-up error
(nothing printed on standard output).  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Repetitions every run makes at least, whatever ``--seconds`` says:
#: two untraced sets so repetitions can be compared with each other.
MIN_REPS = 2


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> None:
    """Put the checkout's ``src`` first on the path and import it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, "
                         f"not from {SRC}")


def repeat(workload, seed: int, seconds: float, check, min_reps: int) -> list:
    """Run the set at least ``min_reps`` times, then again while one more
    repetition, as long as the last one, still fits in ``seconds``.  Every
    repetition is checked, and timed against the host probe run just
    before and just after it."""
    from suite import PROBE_REFERENCE_S, HostProbe, run_set

    probe = HostProbe()
    runs = []
    start = perf_counter()
    before = probe.measure(workload.jobs)
    while len(runs) < min_reps or (
        perf_counter() - start + runs[-1].wall_s <= seconds
    ):
        run = run_set(workload, seed)
        after = probe.measure(workload.jobs)
        run.host_factor = (before[0] + after[0]) / 2 / PROBE_REFERENCE_S
        run.cpu_factor = (before[1] + after[1]) / 2 / PROBE_REFERENCE_S
        before = after
        check.add(run)
        runs.append(run)
    return runs


def run_workload(workload, args) -> bool:
    """Run one workload, print its table and JSON line; True if correct."""
    from layers import Recorder
    from suite import RESIDUAL_BOUND, Check, end_to_end, layer_metrics, load_reference

    reference = load_reference(workload.name, args.seed)
    if reference is None:
        print(f"perfbench: no stored reference for {workload.name} seed "
              f"{args.seed}; checking repetitions against each other only",
              file=sys.stderr)
    check = Check(reference)

    recorder = Recorder().install(traced=False)
    try:
        if not args.trace:
            runs = repeat(workload, args.seed, args.seconds, check, MIN_REPS)
            metrics = end_to_end(runs)
            print(f"{workload.name}: {len(runs)} repetitions, uncorrected "
                  f"median wall {statistics.median(r.wall_s for r in runs):.4g} s, "
                  f"median host slowdown "
                  f"{statistics.median(r.host_factor for r in runs):.3f}",
                  file=sys.stderr)
        else:
            base = repeat(workload, args.seed, 0, check, 1)[0]
            recorder.uninstall()
            recorder = Recorder().install(traced=True)
            traced = repeat(workload, args.seed,
                            max(0.0, args.seconds - base.wall_s), check, 1)
            metrics = layer_metrics(base, traced)
    finally:
        recorder.uninstall()

    problems = list(check.failures)
    residual = metrics.get("trace.residual_share", (0.0,))[0]
    if residual > RESIDUAL_BOUND:
        problems.append(
            f"trace.residual_share {residual:.3f} exceeds {RESIDUAL_BOUND}")
    for problem in problems:
        print(f"FAILED {problem}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name:10s} {name:28s} {value:14.6g} {unit}",
              file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }), flush=True)
    return not problems


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        import_program()
    except SystemExit as exc:
        print(exc, file=sys.stderr)
        return 2
    from suite import WORKLOADS

    if args.workload == "all":
        # One process per workload: peak memory cannot be reset within a
        # process, so a shared one would report earlier workloads' peaks.
        codes = [
            subprocess.run([
                sys.executable, __file__, "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace),
            ]).returncode
            for name in WORKLOADS
        ]
        return max(codes)
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)} or all", file=sys.stderr)
        return 2
    return 0 if run_workload(WORKLOADS[args.workload], args) else 1


if __name__ == "__main__":
    sys.exit(main())
