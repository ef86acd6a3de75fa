"""Configuration (de)serialisation.

Experiment campaigns archive the exact machine description next to their
results; these helpers round-trip :class:`~repro.config.SystemConfig`
through plain dictionaries and JSON files.  Unknown keys are rejected
(a typo'd override should fail loudly, not silently fall back to a
default).
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields, is_dataclass, replace
from pathlib import Path
from typing import Any, Dict, Optional, Type, TypeVar, Union

from repro.config import SystemConfig
from repro.resilience.faults import FaultEvent, FaultPlan

T = TypeVar("T")

#: Fields rebuilt by hand rather than plain nested-dataclass recursion:
#: a fault plan's ``events`` is a *list* of dataclasses.
_FAULT_FIELD = "faults"


def config_to_dict(config: SystemConfig) -> Dict[str, Any]:
    """Flatten a configuration tree to JSON-serialisable primitives."""
    if not is_dataclass(config):
        raise TypeError(f"expected a dataclass, got {type(config)!r}")
    return asdict(config)


def _build(cls: Type[T], data: Dict[str, Any], base: Optional[T]) -> T:
    """A ``cls`` from ``data``: the given keys overlaid on ``base`` with
    ``dataclasses.replace``, or passed to the constructor when ``base``
    is None.  A key whose ``base`` value is a dataclass names a nested
    section, which overlays that value."""
    if not isinstance(data, dict):
        raise ValueError(
            f"{cls.__name__} must be a JSON object, got {type(data).__name__}"
        )
    known = {field.name for field in fields(cls)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} keys: {', '.join(sorted(unknown))}"
        )
    kwargs: Dict[str, Any] = {}
    for key, value in data.items():
        section = getattr(base, key, None)
        if cls is SystemConfig and key == _FAULT_FIELD:
            if isinstance(value, dict):
                value = _build_fault_plan(value)
        elif is_dataclass(section) and not isinstance(value, type(section)):
            value = _build(type(section), value, section)
        kwargs[key] = value
    return cls(**kwargs) if base is None else replace(base, **kwargs)


def _build_fault_plan(data: Dict[str, Any]) -> FaultPlan:
    known = {field.name for field in fields(FaultPlan)}
    unknown = set(data) - known
    if unknown:
        raise ValueError(
            f"unknown FaultPlan keys: {', '.join(sorted(unknown))}"
        )
    events = tuple(
        event if isinstance(event, FaultEvent) else _build(FaultEvent, event, None)
        for event in data.get("events", ())
    )
    return FaultPlan(seed=data.get("seed", 0), events=events)


def config_from_dict(data: Dict[str, Any]) -> SystemConfig:
    """Rebuild a :class:`SystemConfig` from :func:`config_to_dict` output.

    Partial dictionaries are allowed: omitted keys keep their defaults,
    so ``{"iommu": {"scheduler": "simt"}}`` is a valid override file.
    The defaults are the machine's, ``SystemConfig()``: a partial
    section overlays that machine's section, so ``{"gpu_l2_tlb":
    {"entries": 1024}}`` keeps the GPU L2 TLB's 16 ways and 10-cycle hit.
    """
    return _build(SystemConfig, data, SystemConfig())


def save_config(config: SystemConfig, path: Union[str, Path]) -> None:
    """Write a configuration to ``path`` as JSON."""
    Path(path).write_text(json.dumps(config_to_dict(config), indent=2))


def load_config(path: Union[str, Path]) -> SystemConfig:
    """Read a configuration (possibly partial) from a JSON file."""
    return config_from_dict(json.loads(Path(path).read_text()))
