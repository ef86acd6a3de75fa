"""Workload traces, pinned.

Every simulated result starts from a workload's trace, so a generator
rewrite must reproduce each trace exactly, lane for lane.  For the
twelve Table II workloads and :class:`ParametricWorkload`, at two
slices, ``tests/golden_workload_traces.json`` holds the SHA-256 of
``repr(build_trace(...))``.  The traces are plain lists of ints and
every generator draws from seeded ``random.Random`` instances, so the
hashes agree on every interpreter.  A change to any of them is a
deliberate re-capture:

    PYTHONPATH=src:. python -c "import tests.test_workload_trace_golden as t; t.write_golden()"
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

import pytest

from repro.workloads.base import Workload
from repro.workloads.registry import get_workload, workload_names
from repro.workloads.synthetic import ParametricWorkload

GOLDEN_PATH = Path(__file__).parent / "golden_workload_traces.json"

#: The two slices every workload is hashed at.
SLICES: Dict[str, dict] = {
    "scale0.1-wf32-seed1": dict(scale=0.1, num_wavefronts=32, seed=1),
    "scale0.05-wf8-seed3": dict(scale=0.05, num_wavefronts=8, seed=3),
}

#: Table II abbreviations, then the parametric micro-workload.
WORKLOADS = workload_names() + ["SYN"]


def _workload(name: str, scale: float, seed: int) -> Workload:
    if name == "SYN":
        return ParametricWorkload(scale=scale, seed=seed)
    return get_workload(name, scale=scale, seed=seed)


def measure(name: str, scale: float, num_wavefronts: int, seed: int) -> str:
    """SHA-256 of the trace's ``repr`` at one slice."""
    trace = _workload(name, scale, seed).build_trace(num_wavefronts=num_wavefronts)
    return hashlib.sha256(repr(trace).encode()).hexdigest()


def golden() -> dict:
    return {
        label: {name: measure(name, **spec) for name in WORKLOADS}
        for label, spec in SLICES.items()
    }


def write_golden() -> None:
    GOLDEN_PATH.write_text(json.dumps(golden(), indent=2) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("label", list(SLICES))
@pytest.mark.parametrize("name", WORKLOADS)
def test_trace_matches_golden(name, label):
    assert measure(name, **SLICES[label]) == GOLDEN[label][name]


def test_golden_covers_every_workload():
    assert {label: sorted(row) for label, row in GOLDEN.items()} == {
        label: sorted(WORKLOADS) for label in SLICES
    }
