"""Checks of the benchmark harness itself (not of the simulator).

Run from the root of a checkout::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from run import ROOT, import_program  # noqa: E402

import_program()

from layers import Recorder, owner_layer  # noqa: E402
from suite import (  # noqa: E402
    RESIDUAL_BOUND, WORKLOADS, Check, end_to_end, layer_metrics,
    load_reference, run_set,
)

#: A seed other than the one the README's examples use.
SEED = 7


@pytest.fixture(scope="module")
def regular_runs():
    """One untraced and one traced repetition of ``regular``."""
    recorder = Recorder().install(traced=False)
    try:
        base = run_set(WORKLOADS["regular"], SEED)
    finally:
        recorder.uninstall()
    recorder = Recorder().install(traced=True)
    try:
        traced = run_set(WORKLOADS["regular"], SEED)
    finally:
        recorder.uninstall()
    return base, traced


def declared(kind: str) -> set:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {metric["name"] for metric in json.load(handle)[kind]}


def test_check_passes_at_a_second_seed(regular_runs):
    reference = load_reference("regular", SEED)
    assert reference is not None
    check = Check(reference)
    for run in regular_runs:
        check.add(run)
    assert check.failures == []
    assert check.attempted == 6


def test_check_fails_on_a_perturbed_reference(regular_runs):
    reference = copy.deepcopy(load_reference("regular", SEED))
    reference["HOT/simt"][0] += 1
    check = Check(reference)
    check.add(regular_runs[0])
    assert check.failed == 1
    assert check.failures[0].startswith("HOT/simt: stats")


def test_check_fails_when_repetitions_disagree(regular_runs):
    check = Check(None)
    check.add(regular_runs[0])
    check.first = {key: [stats[0] + 1] + stats[1:]
                   for key, stats in check.first.items()}
    check.add(regular_runs[1])
    assert check.failed == 3


def test_metric_names_match_benchmark_json(regular_runs):
    base, traced = regular_runs
    assert set(end_to_end([base])) == declared("end_to_end")
    assert set(layer_metrics(base, [traced])) == declared("per_layer")


def test_layer_split_covers_the_run(regular_runs):
    base, traced = regular_runs
    metrics = layer_metrics(base, [traced])
    assert metrics["trace.residual_share"][0] < RESIDUAL_BOUND
    assert metrics["tlb.lookups"][0] > 0
    assert metrics["gpu.events"][0] > 0


def test_handlers_are_charged_to_their_owner():
    from repro import build_system

    system = build_system()
    # Registered by the GPU despite its kind prefix.
    assert owner_layer(system.simulator._handlers["iommu.xlate"]) == "gpu"
    assert owner_layer(system.simulator._handlers["iommu.reply"]) == "mmu.iommu"


def test_uninstall_restores_the_program():
    from repro.engine.simulator import Simulator
    from repro.experiments import runner

    originals = (runner.run_simulation, Simulator.register)
    Recorder().install(traced=True).uninstall()
    assert (runner.run_simulation, Simulator.register) == originals


def run_cli(workload: str) -> list:
    """The JSON lines ``run.py`` prints for the shortest run of ``workload``."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()
            if line.startswith("{")]


def test_all_reports_each_workloads_own_peak_memory():
    # ``regular`` runs after ``irregular``, whose peak is about 4% larger:
    # sharing one process would report irregular's peak for both.
    results = dict(zip(WORKLOADS, run_cli("all")))
    assert set(results) == set(WORKLOADS)
    alone = run_cli("regular")[0]["metrics"]["peak_rss_mb"]["value"]
    in_all = results["regular"]["metrics"]["peak_rss_mb"]["value"]
    assert in_all == pytest.approx(alone, rel=0.015)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "regular",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stdout == ""
