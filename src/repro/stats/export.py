"""Distribution helpers and the benchmark report envelope.

``percentiles`` summarises latency distributions in plain Python.

This module also owns the **unified benchmark report schema** every
``BENCH_*.json`` file shares: :func:`write_bench_report` wraps a guard
script's payload in one envelope —

.. code-block:: json

    {"format": "repro-bench", "version": 1, "bench": "hotpath",
     "generated_at": "2026-01-01T00:00:00+00:00",
     "environment": {"python": "...", "platform": "...", ...},
     "data": { ... benchmark-specific ... }}

— so every committed bench file records its provenance the same way.
"""

from __future__ import annotations

import json
import os
import platform
import sys
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, Iterable, List, Sequence, Union

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


def bench_environment() -> Dict[str, Any]:
    """The machine/interpreter block every bench report carries.

    Informational provenance, never part of result identity.
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

