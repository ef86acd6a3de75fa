"""Exported trace bytes, pinned.

What the tracer writes must not depend on how its ring stores events.
Two fixed runs between them reach all sixteen emitters:

* ``xsb-reservation-faults`` — XSB/simt on the reservation DRAM model
  under a safe fault plan (a PWC flush and a DRAM latency spike), with
  the default ring;
* ``mvt-frfcfs-small-ring`` — MVT/simt on the queued FR-FCFS
  controller, with a ring small enough to drop most events.

For each, ``tests/golden_trace.json`` holds the SHA-256 of
``to_jsonl()``, of the file ``write_chrome`` writes and of ``tail(64)``
(as key-sorted compact JSON), the emitted and dropped counts and the
recorded event count per name.  A change to any of them is a deliberate
re-capture:

    PYTHONPATH=src:. python -c "import tests.test_trace_golden as t; t.write_golden()"
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from collections import Counter
from pathlib import Path
from typing import Dict

import pytest

from repro.config import baseline_config
from repro.obs.trace import TraceConfig
from repro.resilience.faults import FaultEvent, FaultPlan

from tests.conftest import dispatched_system

GOLDEN_PATH = Path(__file__).parent / "golden_trace.json"

#: Every scenario runs this slice.
SCALE, SEED, WAVEFRONTS = 0.1, 0, 8

SCENARIOS: Dict[str, dict] = {
    "xsb-reservation-faults": dict(
        workload="XSB",
        faults=FaultPlan(events=(
            FaultEvent("flush_pwc", at_cycle=3_000),
            FaultEvent(
                "dram_spike", at_cycle=5_000, duration=4_000, magnitude=40
            ),
        )),
        trace=TraceConfig(),
    ),
    "mvt-frfcfs-small-ring": dict(
        workload="MVT",
        controller="frfcfs",
        trace=TraceConfig(ring_size=2_048),
    ),
}

#: Flight-recorder window hashed per scenario.
TAIL = 64


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def traced_system(workload, trace, faults=None, controller=None):
    """A finished simt run of ``workload`` with its tracer attached."""
    config = baseline_config("simt")
    if controller is not None:
        config = config.with_dram_controller(controller)
    if faults is not None:
        config = config.with_faults(faults)
    system = dispatched_system(
        config, workload, scale=SCALE, seed=SEED, num_wavefronts=WAVEFRONTS,
        trace=trace,
    )
    system.simulator.run()
    assert system.gpu.finished
    return system


def measure(directory: Path, **spec) -> dict:
    """One scenario's golden row; ``directory`` takes the Chrome file."""
    tracer = traced_system(**spec).tracer
    chrome = directory / "trace.json"
    tracer.write_chrome(chrome)
    tail = json.dumps(tracer.tail(TAIL), sort_keys=True, separators=(",", ":"))
    return {
        "jsonl_sha256": _sha256(tracer.to_jsonl()),
        "chrome_sha256": hashlib.sha256(chrome.read_bytes()).hexdigest(),
        "tail_sha256": _sha256(tail),
        "events_emitted": tracer.events_emitted,
        "events_dropped": tracer.events_dropped,
        "names": dict(sorted(Counter(e["name"] for e in tracer.events()).items())),
    }


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as directory:
        rows = {
            name: measure(Path(directory), **spec)
            for name, spec in SCENARIOS.items()
        }
    GOLDEN_PATH.write_text(json.dumps(rows, indent=2) + "\n")


GOLDEN = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_trace_export_matches_golden(name, tmp_path):
    assert measure(tmp_path, **SCENARIOS[name]) == GOLDEN[name]


def test_goldens_cover_every_emitter():
    """Each of the tracer's sixteen emitters left an event in one of
    the two rings (TLB names carry the TLB and outcome; fault names the
    kind; ``queued`` is ``walk_scheduled``'s span)."""
    names = set()
    for row in GOLDEN.values():
        names.update(row["names"])

    def has(prefix: str) -> bool:
        return any(name.startswith(prefix) for name in names)

    emitters = {
        "walk_created": has("walk_created"),
        "walk_enqueued": has("walk_enqueued"),
        "walk_scheduled": has("queued"),
        "walk_completed": has("walk_completed"),
        "walk_span": "walk" in names,
        "walk_read": has("walk_read"),
        "job_retired": "job" in names,
        "cu_stall": "stall" in names,
        "tlb_lookup": has("iommu_l1_tlb:"),
        "pwc_probe": has("pwc_"),
        "ptw_read": has("ptw_read"),
        "dram_access": "dram" in names,
        "dram_service": has("dram_service"),
        "dram_read_span": has("dram_read"),
        "fault_injected": has("fault:"),
        "counter": has("pending_walks") and has("dram_queue_depth"),
    }
    assert [name for name, seen in emitters.items() if not seen] == []
    assert GOLDEN["mvt-frfcfs-small-ring"]["events_dropped"] > 0
