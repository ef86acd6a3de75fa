"""Regenerate ``perfbench/reference.json``: the simulated statistics of
every workload's simulations, for every seed in ``suite.SEEDS``.

Run from the root of a checkout::

    python3 perfbench/make_reference.py

Only a change to the simulated model (or to the workload definitions in
``suite.py``) should change this file; a change that claims only a speed
gain must leave it untouched.
"""

from __future__ import annotations

import json
import sys

from run import import_program

#: ``run_many`` worker processes: the reference host's two cores.
JOBS = 2


def main() -> int:
    import_program()
    from repro import run_many
    from suite import REFERENCE_PATH, SCALE, SEEDS, STATS, WAVEFRONTS, WORKLOADS

    # One flat sweep over every (workload, seed) keeps all workers busy.
    jobs = [(w, seed, spec) for w in WORKLOADS.values() for seed in SEEDS
            for spec in w.specs(seed)]
    results = run_many([spec for _, _, spec in jobs], jobs=JOBS)
    table: dict = {}
    for (workload, seed, spec), result in zip(jobs, results):
        key = f"{spec['workload']}/{spec['scheduler']}"
        table.setdefault(f"{workload.name}/{seed}", {})[key] = [
            getattr(result, s) for s in STATS
        ]
    # One line per workload and seed keeps diffs of this file readable.
    rows = ",\n".join(
        f"  {json.dumps(name)}: {json.dumps(stats, sort_keys=True)}"
        for name, stats in sorted(table.items())
    )
    header = json.dumps({"scale": SCALE, "num_wavefronts": WAVEFRONTS,
                         "stats": list(STATS)})[:-1]
    with open(REFERENCE_PATH, "w") as handle:
        handle.write(f'{header}, "references": {{\n{rows}\n}}}}\n')
    print(f"wrote {REFERENCE_PATH} ({len(results)} simulations)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
