"""Result export and distribution helpers.

``SimulationResult`` objects flatten to plain dictionaries / JSON so
experiment campaigns can be archived and post-processed outside Python
(the benchmark harness stores one JSON per regenerated figure when asked
to).  ``percentiles`` summarises latency distributions in plain
Python.

This module also owns the **unified benchmark report schema** every
``BENCH_*.json`` file shares.  Each benchmark harness used to capture
its own ad-hoc environment block (or none); :func:`write_bench_report`
wraps a benchmark's payload in one envelope —

.. code-block:: json

    {"format": "repro-bench", "version": 1, "bench": "hotpath",
     "generated_at": "2026-01-01T00:00:00+00:00",
     "environment": {"python": "...", "platform": "...", ...},
     "data": { ... benchmark-specific ... }}

— so the regression gate (:mod:`repro.obs.regress`) can load any bench
file the same way and diff ``data`` without guessing at its provenance.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

from repro.stats.metrics import SimulationResult

#: Identity of the unified benchmark report envelope.
BENCH_FORMAT = "repro-bench"
BENCH_VERSION = 1


#: Default report points: the tail matters in walk-latency studies, so
#: p99.9 ships alongside the usual median/tail trio.
DEFAULT_PERCENTILE_POINTS: Sequence[float] = (50, 90, 99, 99.9)


def percentiles(
    samples: Iterable[float], points: Sequence[float] = DEFAULT_PERCENTILE_POINTS
) -> Dict[float, float]:
    """Empirical percentiles by linear interpolation.

    Raises :class:`ValueError` on an empty sample set or out-of-range
    points.
    """
    values = sorted(samples)
    if not values:
        raise ValueError("percentiles of an empty sample set")
    out: Dict[float, float] = {}
    if len(values) == 1:
        # A single sample IS every percentile; skipping the interpolation
        # avoids a low==high index aliasing that silently returned the
        # sample via two different code paths.
        only = values[0]
        for point in points:
            if not 0 <= point <= 100:
                raise ValueError(f"percentile {point} outside 0..100")
            out[point] = only
        return out
    last = len(values) - 1
    for point in points:
        if not 0 <= point <= 100:
            raise ValueError(f"percentile {point} outside 0..100")
        position = point / 100 * last
        low = int(position)
        high = min(low + 1, last)
        fraction = position - low
        out[point] = values[low] * (1 - fraction) + values[high] * fraction
    return out


def walk_latency_percentiles(
    records, points: Sequence[float] = DEFAULT_PERCENTILE_POINTS
) -> Dict[float, float]:
    """Percentiles of every IOMMU-serviced walk latency in a run."""
    samples: List[int] = []
    for record in records:
        samples.extend(record.walk_latencies)
    if not samples:
        return {point: 0.0 for point in points}
    return percentiles(samples, points)


def result_to_dict(result: SimulationResult) -> Dict[str, object]:
    """Flatten a result to JSON-serialisable primitives."""
    data = asdict(result)
    data["latency_gap"] = result.latency_gap
    return data


def save_results(
    results: Union[SimulationResult, Sequence[SimulationResult]],
    path: Union[str, Path],
) -> None:
    """Write one or more results to ``path`` as a JSON document."""
    if isinstance(results, SimulationResult):
        results = [results]
    document = {
        "format": "repro-results",
        "version": 1,
        "results": [result_to_dict(result) for result in results],
    }
    Path(path).write_text(json.dumps(document, indent=2, default=str))


def bench_environment() -> Dict[str, Any]:
    """The machine/interpreter block every bench report carries.

    Informational provenance, never part of result identity: the
    regression gate compares ``data`` only and reports environment
    drift as context.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "cpu_count": os.cpu_count(),
        "argv": list(sys.argv),
    }


def write_bench_report(
    bench: str, data: Dict[str, Any], path: Union[str, Path]
) -> Dict[str, Any]:
    """Write one benchmark payload in the unified ``BENCH_*`` envelope.

    Returns the full document (envelope + payload) so harnesses can
    print exactly what they wrote.
    """
    document: Dict[str, Any] = {
        "format": BENCH_FORMAT,
        "version": BENCH_VERSION,
        "bench": bench,
        "generated_at": datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        ),
        "environment": bench_environment(),
        "data": data,
    }
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return document


def load_bench_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Read a ``BENCH_*.json`` file, tolerating the pre-envelope shape.

    Legacy files (raw payload, no envelope) come back wrapped in a
    minimal envelope with ``bench=None`` so downstream code always sees
    one schema.
    """
    document = json.loads(Path(path).read_text())
    if document.get("format") == BENCH_FORMAT:
        if "data" not in document:
            raise ValueError(f"{path} has the bench envelope but no data")
        return document
    return {
        "format": BENCH_FORMAT,
        "version": 0,
        "bench": None,
        "generated_at": None,
        "environment": {},
        "data": document,
    }


def load_results(path: Union[str, Path]) -> List[Dict[str, object]]:
    """Read a results document written by :func:`save_results`.

    Returns plain dictionaries (not :class:`SimulationResult` objects):
    archived results are data for analysis, not live objects.
    """
    document = json.loads(Path(path).read_text())
    if document.get("format") != "repro-results":
        raise ValueError(f"{path} is not a repro-results file")
    return list(document["results"])
