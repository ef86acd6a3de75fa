"""The workload registry: Table II of the paper, by abbreviation.

Order matches the paper's figures: the six irregular applications first
(XSB MVT ATX NW BIC GEV), then the six regular ones (SSP MIS CLR BCK
KMN HOT).
"""

from __future__ import annotations

from typing import Dict, List, Tuple, Type, Union

from repro.workloads.base import Workload
from repro.workloads.pannotia import MIS, SSSP, Color
from repro.workloads.polybench import ATAX, BICG, GESUMMV, MVT
from repro.workloads.rodinia import NW, BackProp, Hotspot, KMeans
from repro.workloads.xsbench import XSBench

#: Paper figure order for the irregular group.
IRREGULAR_WORKLOADS: Tuple[str, ...] = ("XSB", "MVT", "ATX", "NW", "BIC", "GEV")
#: Paper figure order for the regular group.
REGULAR_WORKLOADS: Tuple[str, ...] = ("SSP", "MIS", "CLR", "BCK", "KMN", "HOT")

_REGISTRY: Dict[str, Type[Workload]] = {
    cls.abbrev: cls
    for cls in (
        XSBench,
        MVT,
        ATAX,
        NW,
        BICG,
        GESUMMV,
        SSSP,
        MIS,
        Color,
        BackProp,
        KMeans,
        Hotspot,
    )
}


def workload_names() -> List[str]:
    """All abbreviations, irregular group first (paper order)."""
    return list(IRREGULAR_WORKLOADS + REGULAR_WORKLOADS)


def get_workload(abbrev: str, scale: float = 1.0, seed: int = 0) -> Workload:
    """Instantiate a benchmark model by its Table II abbreviation."""
    try:
        cls = _REGISTRY[abbrev.upper()]
    except KeyError:
        raise ValueError(
            f"unknown workload {abbrev!r}; available: {', '.join(workload_names())}"
        ) from None
    return cls(scale=scale, seed=seed)


def all_workloads(scale: float = 1.0, seed: int = 0) -> List[Workload]:
    """Instantiate every benchmark, in paper order."""
    return [get_workload(name, scale=scale, seed=seed) for name in workload_names()]


def table2_rows(scale: float = 1.0) -> List[Dict[str, Union[str, bool, float]]]:
    """Table II: every benchmark with paper-reported and modelled footprints."""
    return [
        {
            "abbrev": workload.abbrev,
            "suite": workload.suite,
            "irregular": workload.irregular,
            "paper_footprint_mb": workload.nominal_footprint_mb,
            "modelled_footprint_mb": round(workload.modelled_footprint_mb, 2),
            "description": workload.description,
        }
        for workload in all_workloads(scale=scale)
    ]
