"""Exact host-cost ledger: Python calls per walk, by module.

Wall-clock timings move with the host; :mod:`cProfile` call counts do
not.  Each scenario below runs once to warm the process (first-call
imports, lazily built tables) and once more under the profiler.  Its
ledger row records total calls, calls per walk, calls per instruction,
the engine's event count and calls by ``repro`` module.  A builtin (C)
function's calls are charged to the module that made them, so a
``dict.get`` inside the walk buffer counts as buffer work; Python
functions outside the package count as ``other``.  Counts are summed
per code object, so they do not depend on the process that measures
them: a fresh interpreter and a pytest session agree.

Call counts differ between Python versions, so the golden
(``tests/golden_cost.json``) is checked exactly only on the interpreter
that captured it and skipped elsewhere.  A change to a count is a
deliberate re-capture, recorded like any golden's:

    PYTHONPATH=src:. python -c "import tests.test_cost_ledger as t; t.write_golden()"

The inert-tracer and fresh-interpreter checks at the bottom hold on any
interpreter.
"""

from __future__ import annotations

import cProfile
import json
import os
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from typing import Dict

import pytest

import repro
from repro import TraceConfig, baseline_config, run_simulation

GOLDEN_PATH = Path(__file__).parent / "golden_cost.json"
ROOT = Path(__file__).resolve().parent.parent

#: Every scenario runs at this slice and seed.
COMMON = dict(scale=0.1, seed=0)

SCENARIOS: Dict[str, dict] = {
    # Irregular: the walk path under the paper's policy and the baseline.
    "mvt-simt": dict(workload="MVT", scheduler="simt", num_wavefronts=32),
    "mvt-fcfs": dict(workload="MVT", scheduler="fcfs", num_wavefronts=32),
    # Regular: TLBs absorb the walks; data accesses and issue dominate.
    "hot-simt": dict(workload="HOT", scheduler="simt", num_wavefronts=32),
    "xsb-simt": dict(workload="XSB", scheduler="simt", num_wavefronts=8),
    "xsb-fcfs": dict(workload="XSB", scheduler="fcfs", num_wavefronts=8),
    # Observation overhead: a wired tracer recording nothing, and the
    # metrics registry with its sampler.
    "xsb-simt-inert-tracer": dict(
        workload="XSB", scheduler="simt", num_wavefronts=8,
        trace=TraceConfig(categories=frozenset()),
    ),
    "xsb-simt-metrics": dict(
        workload="XSB", scheduler="simt", num_wavefronts=8, metrics=True,
    ),
    # Everything observed at once, on the queued FR-FCFS controller:
    # every trace category, the metrics sampler and the watchdog.
    "xsb-simt-observed": dict(
        workload="XSB", scheduler="simt", num_wavefronts=8,
        config=baseline_config().with_dram_controller("frfcfs"),
        trace=TraceConfig(), metrics=True, watchdog_cycles=5_000_000,
    ),
}


#: The ``repro`` package directory; its files are the ledger's modules.
PACKAGE_DIR = Path(repro.__file__).resolve().parent


def _module_of(filename: str) -> str:
    """The ``repro`` module defining a profiled function, ``other`` for
    Python code outside the package."""
    path = Path(filename).resolve()
    if PACKAGE_DIR not in path.parents:
        return "other"
    names = ["repro", *path.relative_to(PACKAGE_DIR).with_suffix("").parts]
    if names[-1] == "__init__":
        names.pop()
    return ".".join(names)


def measure(**kwargs) -> dict:
    """One scenario's ledger row (``kwargs`` go to ``run_simulation``).

    The counts come from ``Profile.getstats()``, one entry per code
    object.  The ``pstats`` view keys functions by ``(file, line,
    name)`` instead, where every dataclass ``__init__`` is
    ``<string>:2`` and all but one of them are lost.
    """
    kwargs = dict(COMMON, **kwargs)
    run_simulation(**kwargs)
    profiler = cProfile.Profile()
    profiler.enable()
    result = run_simulation(**kwargs)
    profiler.disable()
    by_module: Dict[str, int] = defaultdict(int)
    total = 0
    for entry in profiler.getstats():
        total += entry.callcount
        if isinstance(entry.code, str):
            # A builtin: its Python callers take their share below; a
            # call from the unprofiled caller of ``enable`` stays here.
            by_module["builtin"] += entry.callcount
            continue
        module = _module_of(entry.code.co_filename)
        by_module[module] += entry.callcount
        for callee in entry.calls or ():
            if isinstance(callee.code, str):
                by_module[module] += callee.callcount
                by_module["builtin"] -= callee.callcount
    walks = result.walks_dispatched
    return {
        "calls": total,
        "walks": walks,
        "instructions": result.instructions,
        "events": result.detail["engine"]["events_processed"],
        "calls_per_walk": round(total / walks, 1) if walks else 0.0,
        "calls_per_instruction": round(total / result.instructions, 1),
        "by_module": {k: n for k, n in sorted(by_module.items()) if n},
    }


#: The running interpreter's ``major.minor``; counts are exact per version.
_RUNNING = "%d.%d" % sys.version_info[:2]


def ledger() -> dict:
    """The whole ledger, tagged with the interpreter it came from."""
    return {
        "python": _RUNNING,
        "scenarios": {name: measure(**spec) for name, spec in SCENARIOS.items()},
    }


def write_golden() -> None:
    GOLDEN_PATH.write_text(json.dumps(ledger(), indent=2) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else None


@pytest.mark.skipif(
    GOLDEN is None or GOLDEN["python"] != _RUNNING,
    reason=(
        f"call counts are exact only on Python "
        f"{GOLDEN['python'] if GOLDEN else '?'}, which captured the golden; "
        f"this is {_RUNNING}"
    ),
)
@pytest.mark.parametrize("name", list(SCENARIOS))
def test_ledger_matches_golden(name):
    assert measure(**SCENARIOS[name]) == GOLDEN["scenarios"][name]


def test_inert_tracer_cost_does_not_grow_with_the_run():
    """A wired tracer with no categories must cost a fixed number of
    calls per run, not per walk: doubling the wavefronts (about twice
    the walks) leaves the inert-minus-untraced difference unchanged."""

    def inert_extra(wavefronts: int) -> int:
        spec = dict(workload="XSB", scheduler="simt", num_wavefronts=wavefronts)
        inert = measure(trace=TraceConfig(categories=frozenset()), **spec)
        return inert["calls"] - measure(**spec)["calls"]

    assert inert_extra(8) == inert_extra(16)


def test_a_fresh_interpreter_counts_the_same_calls():
    """The ledger must not depend on the process that measures it: the
    docstring's one-liner runs in a fresh interpreter, the golden check
    in this one, and both must see the same row."""
    code = (
        "import json, tests.test_cost_ledger as t; "
        "print(json.dumps(t.measure(**t.SCENARIOS['xsb-simt'])))"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]))
    fresh = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env,
        capture_output=True, text=True, check=True,
    )
    assert json.loads(fresh.stdout) == measure(**SCENARIOS["xsb-simt"])
