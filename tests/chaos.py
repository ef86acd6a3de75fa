"""Chaos gate: SIGKILL workers mid-spec, demand a byte-identical report.

The service's whole claim is that delivery-layer violence — killed
workers, expired leases, elastic re-queues, a dead broker, a full
restart — cannot change *what was computed*.  This harness makes that
falsifiable:

1. run the campaign's spec list serially, uninterrupted (``jobs=1``):
   the reference fleet report;
2. run the *same manifest* through the service with a seeded killer
   SIGKILLing workers mid-spec (replacements are spawned, leases are
   reaped, half-done specs resume from in-run checkpoints on other
   workers);
3. optionally finish with a full-restart drill: SIGKILL every remaining
   worker at once (the "broker + cluster died" scenario), then a reap
   with TTL 0 (no claim can have a live owner any more, so the drill
   need not wait out the TTL) and a fresh pool finish the campaign
   from the directory alone;
4. merge, and require the deterministic rendering of the merged report
   to be **byte-identical** to the reference, with zero lost and zero
   duplicated specs (merge itself enforces those).

Kill *timing* is wall-clock and thus not reproducible run-to-run; the
gate holds regardless, which is exactly the point.  The seed pins the
kill schedule's randomness so a failure can be replayed under the same
pressure pattern.

Run it from the repository root (``PYTHONPATH=src`` or an installed
package); it exits 1 if the gate fails::

    python -m tests.chaos chaos-campaign --seed 2018 --workers 2 --max-seconds 480

``tests/test_service.py`` runs a small configuration of the same gate.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import signal
import sys
import time
from pathlib import Path
from typing import Any, Dict, Optional, Sequence, Tuple, Union

from repro.experiments.runner import run_many_resilient
from repro.obs.aggregate import (
    deterministic_view,
    fleet_report,
    render_fleet_report,
)
from repro.service import manifest as manifest_mod
from repro.service.broker import init_campaign, merge_campaign
from repro.service.manifest import load_manifest
from repro.service.queue import FileWorkQueue
from repro.service.worker import spawn_workers

#: Chaos campaigns run hot: leases expire fast so re-queues happen
#: within the harness's patience, and checkpoints are frequent so a
#: kill almost always lands between two of them.
CHAOS_LEASE_TTL = 2.0
CHAOS_HEARTBEAT_SECONDS = 0.4
CHAOS_INRUN_CHECKPOINT_EVERY = 1500
CHAOS_MAX_ATTEMPTS = 10


class ChaosGateError(AssertionError):
    """The merged chaos report diverged from the uninterrupted run."""


def _kill(process) -> bool:
    """SIGKILL one worker process; True if a signal was delivered."""
    if not process.is_alive() or process.pid is None:
        return False
    try:
        os.kill(process.pid, signal.SIGKILL)
    except (ProcessLookupError, PermissionError):
        return False
    process.join(timeout=10)
    return True


def run_chaos(
    campaign_dir: Union[str, Path],
    seed: int = 0,
    workers: int = 2,
    workloads: Sequence[str] = ("MVT",),
    schedulers: Sequence[str] = ("fcfs", "simt"),
    seeds: int = 3,
    scale: float = 0.3,
    num_wavefronts: int = 24,
    batch_size: int = 1,
    max_kills: Optional[int] = None,
    kill_interval: Tuple[float, float] = (0.3, 0.9),
    restart_drill: bool = True,
    max_seconds: float = 240.0,
    quiet: bool = False,
) -> Dict[str, Any]:
    """Run the full gate; returns a summary dict or raises on divergence.

    ``campaign_dir`` must not already hold a campaign.  ``max_kills``
    defaults to ``workers + 2`` individual kills before the (optional)
    full-restart drill.
    """
    campaign_dir = Path(campaign_dir)
    rng = random.Random(seed)
    max_kills = (workers + 2) if max_kills is None else max_kills

    manifest = init_campaign(
        campaign_dir,
        workloads=list(workloads),
        schedulers=list(schedulers),
        seeds=seeds,
        scale=scale,
        num_wavefronts=num_wavefronts,
        batch_size=batch_size,
    )
    specs = manifest.build_specs()

    def say(line: str) -> None:
        if not quiet:
            print(f"chaos: {line}", flush=True)

    # -- reference: the same specs, serial, never interrupted ------------
    say(f"reference run: {len(specs)} spec(s), jobs=1, no interruptions")
    reference_outcomes = run_many_resilient(specs)
    reference = render_fleet_report(
        deterministic_view(
            fleet_report(
                specs, reference_outcomes,
                baseline_scheduler=manifest.campaign["baseline"],
            )
        )
    )
    reference_path = manifest_mod.report_dir(campaign_dir) / "reference.json"
    reference_path.write_text(reference + "\n")

    # -- chaos phase: seeded kills against a live worker pool ------------
    worker_options = dict(
        lease_ttl=CHAOS_LEASE_TTL,
        heartbeat_seconds=CHAOS_HEARTBEAT_SECONDS,
        inrun_checkpoint_every=CHAOS_INRUN_CHECKPOINT_EVERY,
        max_attempts=CHAOS_MAX_ATTEMPTS,
        poll_seconds=0.2,
    )
    queue = FileWorkQueue(manifest_mod.queue_root(campaign_dir))
    pool = spawn_workers(
        campaign_dir, workers, name_prefix="chaos", **worker_options
    )
    spawned = workers
    kills = 0
    restarts_done = False
    deadline = time.monotonic() + max_seconds
    try:
        while not queue.drained():
            if time.monotonic() > deadline:
                raise ChaosGateError(
                    f"chaos campaign did not drain within {max_seconds:g}s "
                    f"(queue: {queue.counts()})"
                )
            queue.reap(CHAOS_LEASE_TTL, max_attempts=CHAOS_MAX_ATTEMPTS)
            alive = [process for process in pool if process.is_alive()]
            if kills < max_kills and alive:
                time.sleep(rng.uniform(*kill_interval))
                victim = rng.choice(alive)
                if _kill(victim):
                    kills += 1
                    say(
                        f"SIGKILL worker pid {victim.pid} "
                        f"({kills}/{max_kills} kills)"
                    )
                    replacement = spawn_workers(
                        campaign_dir, 1,
                        name_prefix=f"chaos-r{spawned}", **worker_options,
                    )
                    pool.extend(replacement)
                    spawned += 1
                continue
            if restart_drill and not restarts_done:
                # Full cluster restart: every worker dies at once and
                # nothing is left running.  The campaign's run state
                # must come back from the directory alone.
                for process in pool:
                    _kill(process)
                restarts_done = True
                say("full-restart drill: killed ALL workers; expiring "
                    "every lease")
                requeued, _abandoned = queue.reap(0.0)
                say(f"reap re-queued {len(requeued)} shard(s)")
                pool = spawn_workers(
                    campaign_dir, workers,
                    name_prefix="chaos-resume", **worker_options,
                )
                spawned += workers
                continue
            if not alive:
                # Killer is done and everything died anyway: refill.
                pool.extend(
                    spawn_workers(
                        campaign_dir, workers,
                        name_prefix=f"chaos-refill{spawned}",
                        **worker_options,
                    )
                )
                spawned += workers
            time.sleep(0.2)
        for process in pool:
            process.join(timeout=30)
    finally:
        for process in pool:
            if process.is_alive():
                process.terminate()

    # -- merge and gate ---------------------------------------------------
    merged = merge_campaign(campaign_dir)
    merged_deterministic = Path(merged["paths"]["deterministic"]).read_text()
    identical = merged_deterministic == reference + "\n"
    say(
        f"merged report {'IDENTICAL to' if identical else 'DIVERGED from'} "
        f"the uninterrupted reference after {kills} kill(s)"
        + (" + full restart" if restarts_done else "")
    )
    if not identical:
        raise ChaosGateError(
            "merged fleet report differs from the uninterrupted jobs=1 "
            f"reference; compare {merged['paths']['deterministic']} against "
            f"{reference_path}"
        )
    updated = load_manifest(manifest_mod.manifest_path(campaign_dir))
    reclaims = sum(
        max(0, entry.get("claims", 1) - 1)
        for entry in updated.attempts.values()
    )
    report = merged["report"]
    return {
        "identical": True,
        "kills": kills,
        "restart_drill": restarts_done,
        "workers_spawned": spawned,
        "shard_reclaims": reclaims,
        "specs": report["specs"],
        "ok": report["ok"],
        "failed": report["failed"],
        "reference_path": str(reference_path),
        "merged_paths": merged["paths"],
    }


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run the gate with every other :func:`run_chaos` default."""
    parser = argparse.ArgumentParser(
        prog="python -m tests.chaos",
        description="SIGKILL service workers mid-spec; exit 1 unless the "
        "merged report is byte-identical to the uninterrupted run",
    )
    parser.add_argument("campaign_dir", help="a fresh campaign directory")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--max-seconds", type=float, default=240.0)
    args = parser.parse_args(argv)
    try:
        summary = run_chaos(
            args.campaign_dir, seed=args.seed, workers=args.workers,
            max_seconds=args.max_seconds,
        )
    except ChaosGateError as exc:
        print(f"chaos gate FAILED: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
