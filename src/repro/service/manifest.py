"""The versioned campaign manifest: everything a resume needs, on disk.

A campaign is defined once — workloads × schedulers × seeds plus the
run parameters and an optional machine description — and the manifest
pins that definition together with:

* one content-hash ``spec_key`` per spec (the same key the shared
  :class:`~repro.resilience.outcomes.CheckpointStore` files use, so
  manifest rows, result files and in-run checkpoints all correlate);
* the shard placement: which spec indices ride in which queue task;
* an ``attempts`` section, folded back in from the queue's records by
  ``repro service merge`` — the audit trail of how many claims each
  shard needed and why.

The manifest is the *only* authoritative state the broker has, and
``repro service init`` writes it after the last queue task, so its
presence means the queue is complete.  Killing the broker and every
worker loses nothing: ``repro service run`` reaps the dead workers'
leases once they pass their TTL, the queue hands their shards out
again, and the campaign finishes from the shared checkpoint store.
Spec lists are rebuilt deterministically from the definition (same
nesting as :func:`repro.obs.aggregate.sweep_specs`), never serialised
per spec — a manifest stays small even for a 10k-spec sweep.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.config_io import config_from_dict, config_to_dict
from repro.obs.aggregate import sweep_specs
from repro.resilience.outcomes import spec_key
from repro.service.lease import atomic_write_json

MANIFEST_FORMAT = "repro-campaign-manifest"
MANIFEST_VERSION = 1

#: Default specs per queue task.  Small shards re-queue cheaply when a
#: worker dies (only the shard's incomplete specs re-run, and those
#: resume from in-run checkpoints); large shards amortise claim I/O.
DEFAULT_BATCH_SIZE = 2


@dataclass
class CampaignManifest:
    """In-memory form of ``manifest.json``."""

    #: The sweep definition (workloads, schedulers, seeds, scale,
    #: num_wavefronts, metrics, baseline, config-as-dict-or-None).
    campaign: Dict[str, Any]
    #: Content-hash identity of each spec, in spec order.
    spec_keys: List[str]
    #: Shard placement: batches[i] lists the spec indices of task i.
    batches: List[List[int]]
    #: Claim/attempt audit, task id -> summary (written back by merge).
    attempts: Dict[str, Any] = field(default_factory=dict)
    version: int = MANIFEST_VERSION

    def build_specs(self) -> List[Dict[str, Any]]:
        """The deterministic spec list this campaign runs.

        Rebuilt from the definition on every load, so broker, workers
        and merge all agree on spec identity without shipping specs
        around — the spec_keys double-check it.
        """
        campaign = self.campaign
        config = campaign.get("config")
        specs = sweep_specs(
            campaign["workloads"],
            campaign["schedulers"],
            seeds=range(int(campaign["seeds"])),
            config=config_from_dict(config) if config is not None else None,
            num_wavefronts=int(campaign["num_wavefronts"]),
            scale=float(campaign["scale"]),
            metrics=bool(campaign.get("metrics", False)),
        )
        keys = [spec_key(spec) for spec in specs]
        if keys != self.spec_keys:
            raise ValueError(
                "manifest spec_keys do not match the specs rebuilt from its "
                "campaign definition — the manifest was edited or the spec "
                "construction changed; refusing to run the wrong sweep"
            )
        return specs

    def task_id(self, batch_index: int) -> str:
        return f"batch-{batch_index:05d}"

    def as_dict(self) -> Dict[str, Any]:
        return {
            "format": MANIFEST_FORMAT,
            "version": self.version,
            "campaign": self.campaign,
            "spec_keys": list(self.spec_keys),
            "batches": [list(batch) for batch in self.batches],
            "attempts": self.attempts,
        }


def plan_campaign(
    workloads: List[str],
    schedulers: List[str],
    seeds: int,
    scale: float,
    num_wavefronts: int,
    metrics: bool = False,
    baseline: str = "fcfs",
    config=None,
    batch_size: int = DEFAULT_BATCH_SIZE,
) -> CampaignManifest:
    """Shard a sweep definition into a manifest.

    Placement is contiguous round-robin-free chunking in spec order:
    deterministic, and neighbouring specs (same workload/scheduler,
    different seeds) share warm OS caches on whichever worker claims
    the shard.
    """
    if seeds <= 0:
        raise ValueError(f"seeds must be positive, got {seeds}")
    if batch_size <= 0:
        raise ValueError(f"batch_size must be positive, got {batch_size}")
    campaign = {
        "workloads": list(workloads),
        "schedulers": list(schedulers),
        "seeds": int(seeds),
        "scale": float(scale),
        "num_wavefronts": int(num_wavefronts),
        "metrics": bool(metrics),
        "baseline": baseline,
        "config": config_to_dict(config) if config is not None else None,
    }
    specs = sweep_specs(
        campaign["workloads"],
        campaign["schedulers"],
        seeds=range(seeds),
        config=config,
        num_wavefronts=num_wavefronts,
        scale=scale,
        metrics=metrics,
    )
    keys = [spec_key(spec) for spec in specs]
    indices = list(range(len(specs)))
    batches = [
        indices[start:start + batch_size]
        for start in range(0, len(indices), batch_size)
    ]
    return CampaignManifest(campaign=campaign, spec_keys=keys, batches=batches)


def save_manifest(
    path: Union[str, Path], manifest: CampaignManifest
) -> None:
    atomic_write_json(Path(path), manifest.as_dict())


def load_manifest(path: Union[str, Path]) -> CampaignManifest:
    try:
        payload = json.loads(Path(path).read_text())
    except OSError as exc:
        raise FileNotFoundError(
            f"no campaign manifest at {path} — run `repro service init` first"
        ) from exc
    except ValueError as exc:
        raise ValueError(f"{path} is not a campaign manifest") from exc
    if not isinstance(payload, dict) or payload.get("format") != MANIFEST_FORMAT:
        raise ValueError(f"{path} is not a campaign manifest")
    if payload.get("version") != MANIFEST_VERSION:
        raise ValueError(
            f"manifest version {payload.get('version')} unsupported "
            f"(this build reads version {MANIFEST_VERSION})"
        )
    return CampaignManifest(
        campaign=payload["campaign"],
        spec_keys=list(payload["spec_keys"]),
        batches=[list(batch) for batch in payload["batches"]],
        attempts=dict(payload.get("attempts", {})),
    )


def manifest_path(campaign_dir: Union[str, Path]) -> Path:
    return Path(campaign_dir) / "manifest.json"


def queue_root(campaign_dir: Union[str, Path]) -> Path:
    return Path(campaign_dir) / "queue"


def checkpoints_dir(campaign_dir: Union[str, Path]) -> Path:
    return Path(campaign_dir) / "checkpoints"


def shards_dir(campaign_dir: Union[str, Path]) -> Path:
    return Path(campaign_dir) / "shards"


def report_dir(campaign_dir: Union[str, Path]) -> Path:
    return Path(campaign_dir) / "report"
