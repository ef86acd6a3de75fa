"""Lifecycle tracing: ring semantics, determinism, export validity.

The load-bearing guarantees, each pinned here:

* ``build_tracer(None)`` is None and the untraced fast path is the
  pre-observability behaviour (golden equivalence covers the cycle
  counts; here we pin the API contract).
* Tracing never mutates simulation state — a fully-traced run and an
  untraced run of the same spec produce identical results.
* Timestamps are simulation cycles, so the JSONL export is
  byte-identical across runs of the same spec.
* The Chrome export passes its own schema validator, and the job spans
  carry enough data to rebuild the paper's Fig 3 buckets from a trace
  alone.
"""

from __future__ import annotations

import json

import pytest

from repro.experiments.runner import build_system, collect_result, run_simulation
from repro.obs.trace import (
    DEFAULT_RING_SIZE,
    PID_GPU,
    PID_IOMMU,
    TRACE_CATEGORIES,
    TraceConfig,
    Tracer,
    build_tracer,
    validate_chrome_trace,
)
from repro.resilience.faults import FaultEvent, FaultPlan
from repro.resilience.outcomes import result_to_dict
from repro.stats.counters import BucketHistogram
from repro.stats.metrics import FIG3_BUCKETS, instruction_walk_histogram
from repro.workloads.registry import get_workload

from tests.conftest import tiny_config


RUN_KWARGS = dict(num_wavefronts=8, scale=0.05, seed=1)


def _traced_run(trace=None, workload="MVT", **kwargs):
    """build_system + dispatch + run, returning (result, system)."""
    config = kwargs.pop("config", tiny_config())
    bench = get_workload(workload, scale=0.05, seed=1)
    system = build_system(config, trace=trace)
    traces = bench.build_trace(
        num_wavefronts=8, wavefront_size=config.gpu.wavefront_size
    )
    system.gpu.dispatch(traces)
    system.simulator.run()
    assert system.gpu.finished
    return collect_result(system, bench), system


class TestTraceConfig:
    def test_defaults(self):
        config = TraceConfig()
        assert config.categories == TRACE_CATEGORIES
        assert config.ring_size == DEFAULT_RING_SIZE

    def test_list_categories_coerced(self):
        config = TraceConfig(categories=["walk", "job"])
        assert config.categories == frozenset({"walk", "job"})

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            TraceConfig(categories={"walk", "bogus"})

    def test_nonpositive_ring_rejected(self):
        with pytest.raises(ValueError, match="ring_size"):
            TraceConfig(ring_size=0)

    def test_picklable(self):
        import pickle

        config = TraceConfig(categories={"walk"}, ring_size=128)
        assert pickle.loads(pickle.dumps(config)) == config


class TestBuildTracer:
    def test_none_in_none_out(self):
        assert build_tracer(None) is None

    def test_config_yields_tracer(self):
        tracer = build_tracer(TraceConfig())
        assert isinstance(tracer, Tracer)
        assert tracer.enabled

    def test_empty_categories_inert(self):
        tracer = build_tracer(TraceConfig(categories=frozenset()))
        assert not tracer.enabled
        tracer.walk_created(0, 1, 2, 3)
        tracer.job_retired(10, 0, 2, 3, 0, 4, 1, 1)
        assert tracer.events_emitted == 0


class TestRing:
    def test_ring_drops_oldest(self):
        tracer = Tracer(TraceConfig(categories={"walk"}, ring_size=4))
        for i in range(10):
            tracer.walk_created(i, i, i, 0)
        assert tracer.events_emitted == 10
        assert tracer.events_recorded == 4
        assert tracer.events_dropped == 6
        # The survivors are the newest four, in order.
        assert [e["ts"] for e in tracer.events()] == [6, 7, 8, 9]

    def test_tail(self):
        tracer = Tracer(TraceConfig(categories={"walk"}, ring_size=16))
        for i in range(5):
            tracer.walk_created(i, i, i, 0)
        assert [e["ts"] for e in tracer.tail(2)] == [3, 4]
        assert len(tracer.tail(100)) == 5
        assert tracer.tail(0) == []

    def test_mutating_exported_events_leaves_the_ring_alone(self):
        tracer = Tracer(TraceConfig())
        tracer.walk_created(0, 1, 2, 3)
        detail = {"site": "pwc"}
        tracer.fault_injected(5, "flush_pwc", detail)
        detail["site"] = "changed"
        before = tracer.to_jsonl()
        assert '"changed"' not in before
        for event in tracer.events() + tracer.tail(2):
            event["ts"] = 99
            event["args"].clear()
        assert tracer.to_jsonl() == before

    def test_category_gating(self):
        tracer = Tracer(TraceConfig(categories={"walk"}))
        tracer.tlb_lookup(0, "iommu_l1", 1, True)
        tracer.cu_stall(0, 0, 10)
        tracer.counter(0, "depth", 3)
        assert tracer.events_emitted == 0
        tracer.walk_created(0, 1, 2, 3)
        assert tracer.events_emitted == 1


class TestValidator:
    def test_accepts_real_trace(self):
        tracer = Tracer(TraceConfig())
        tracer.walk_created(0, 1, 2, 3)
        tracer.walk_span(0, 10, 1, 1, 2, 4)
        assert validate_chrome_trace(tracer.to_chrome()) >= 2

    def test_rejects_non_object(self):
        with pytest.raises(ValueError, match="JSON object"):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(ValueError, match="traceEvents"):
            validate_chrome_trace({})

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing 'ts'"):
            validate_chrome_trace(
                {"traceEvents": [{"name": "x", "ph": "i", "pid": 0, "tid": 0}]}
            )

    def test_rejects_bad_phase_and_negative_duration(self):
        bad = {
            "traceEvents": [
                {"name": "a", "ph": "Z", "ts": 0, "pid": 0, "tid": 0},
                {"name": "b", "ph": "X", "ts": 0, "dur": -5, "pid": 0, "tid": 0},
            ]
        }
        with pytest.raises(ValueError) as excinfo:
            validate_chrome_trace(bad)
        message = str(excinfo.value)
        assert "unknown phase" in message
        assert "dur >= 0" in message

    def test_accepts_exactly_decomposed_walk_read(self):
        good = {
            "traceEvents": [{
                "name": "walk_read", "ph": "X", "ts": 10, "dur": 9,
                "pid": 2, "tid": 0, "cat": "walk",
                "args": {"level": 1, "bank": 3, "bank_queue": 2,
                         "row_access": 5, "fault_pad": 2, "row_hit": False},
            }]
        }
        assert validate_chrome_trace(good) == 1

    def test_rejects_walk_read_stage_sum_mismatch(self):
        bad = {
            "traceEvents": [{
                "name": "walk_read", "ph": "X", "ts": 10, "dur": 9,
                "pid": 2, "tid": 0, "cat": "walk",
                "args": {"level": 1, "bank": 3, "bank_queue": 2,
                         "row_access": 5, "fault_pad": 0, "row_hit": False},
            }]
        }
        with pytest.raises(ValueError, match="stages sum to 7, dur is 9"):
            validate_chrome_trace(bad)

    def test_rejects_walk_read_missing_stage_args(self):
        bad = {
            "traceEvents": [{
                "name": "walk_read", "ph": "X", "ts": 10, "dur": 9,
                "pid": 2, "tid": 0, "cat": "walk",
                "args": {"level": 1, "bank": 3},
            }]
        }
        with pytest.raises(ValueError, match="walk_read args missing"):
            validate_chrome_trace(bad)

    def test_rejects_walk_read_without_args(self):
        bad = {
            "traceEvents": [{
                "name": "walk_read", "ph": "X", "ts": 10, "dur": 9,
                "pid": 2, "tid": 0,
            }]
        }
        with pytest.raises(ValueError, match="walk_read needs args"):
            validate_chrome_trace(bad)


class TestTracedRuns:
    def test_traced_result_identical_to_untraced(self):
        untraced, _ = _traced_run(trace=None)
        traced, system = _traced_run(trace=TraceConfig())
        assert system.tracer is not None
        assert system.tracer.events_emitted > 0
        assert result_to_dict(traced) == result_to_dict(untraced)

    def test_inert_tracer_result_identical_to_untraced(self):
        untraced, _ = _traced_run(trace=None)
        inert, system = _traced_run(trace=TraceConfig(categories=frozenset()))
        assert system.tracer is not None
        assert system.tracer.events_emitted == 0
        assert result_to_dict(inert) == result_to_dict(untraced)

    def test_jsonl_byte_identical_across_runs(self, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for path in paths:
            run_simulation(
                "MVT", config=tiny_config(), trace=TraceConfig(),
                trace_jsonl_path=str(path), **RUN_KWARGS,
            )
        assert paths[0].read_bytes() == paths[1].read_bytes()
        assert paths[0].stat().st_size > 0

    def test_chrome_export_validates_and_has_tracks(self, tmp_path):
        path = tmp_path / "trace.json"
        result = run_simulation(
            "MVT", config=tiny_config(), trace=TraceConfig(),
            trace_path=str(path), **RUN_KWARGS,
        )
        document = json.loads(path.read_text())
        count = validate_chrome_trace(document)
        assert count == len(document["traceEvents"])
        names = {
            e["args"]["name"]
            for e in document["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        }
        assert {"GPU", "IOMMU", "Walkers", "Memory"} <= names
        summary = result.detail["trace"]
        assert summary["chrome_path"] == str(path)
        assert summary["events_emitted"] > 0

    def test_job_spans_reproduce_fig3_buckets(self):
        result, system = _traced_run(trace=TraceConfig(categories={"job"}))
        job_spans = [
            e for e in system.tracer.events()
            if e["name"] == "job" and e["pid"] == PID_GPU
        ]
        assert job_spans, "traced run emitted no job spans"
        from_trace = BucketHistogram(FIG3_BUCKETS)
        for span in job_spans:
            accesses = span["args"]["walk_accesses"]
            if accesses > 0:
                from_trace.add(accesses)
        from_records = instruction_walk_histogram(
            system.gpu.instruction_records
        )
        assert from_trace.counts() == from_records.counts()
        assert from_trace.total == from_records.total

    def test_walk_lifecycle_events_present(self):
        _, system = _traced_run(trace=TraceConfig(categories={"walk"}))
        names = {e["name"] for e in system.tracer.events()}
        assert {"walk_created", "queued", "walk", "walk_completed"} <= names
        # Every queued span sits on the IOMMU track with non-negative wait.
        for event in system.tracer.events():
            if event["name"] == "queued":
                assert event["pid"] == PID_IOMMU
                assert event["dur"] >= 0

    def test_walk_read_spans_decompose_in_real_traces(self):
        _, system = _traced_run(trace=TraceConfig(categories={"walk"}))
        reads = [
            e for e in system.tracer.events() if e["name"] == "walk_read"
        ]
        assert reads, "traced run emitted no walk_read spans"
        levels = set()
        for event in reads:
            args = event["args"]
            levels.add(args["level"])
            assert args["bank_queue"] + args["row_access"] + args["fault_pad"] \
                == event["dur"]
            assert args["bank_queue"] >= 0 and args["fault_pad"] >= 0
        # A 4-level radix walk touches every level at least once.
        assert levels == {1, 2, 3, 4}
        # The whole export — including the new stage-boundary spans —
        # still passes the Chrome validator.
        assert validate_chrome_trace(system.tracer.to_chrome()) > 0

    def test_queued_controller_emits_dram_service_spans(self):
        import dataclasses

        config = tiny_config()
        config = dataclasses.replace(
            config, dram=dataclasses.replace(config.dram, controller="frfcfs")
        )
        _, system = _traced_run(
            trace=TraceConfig(categories={"memory"}), config=config
        )
        names = {e["name"] for e in system.tracer.events()}
        assert "dram_service" in names
        assert "dram_read" in names
        service = [
            e for e in system.tracer.events() if e["name"] == "dram_service"
        ]
        for event in service:
            assert event["dur"] >= 0
            assert "bank" in event["args"]
        assert validate_chrome_trace(system.tracer.to_chrome()) > 0

    def test_fault_injections_become_instant_events(self):
        plan = FaultPlan(events=(
            FaultEvent("flush_tlb", at_cycle=1_000, site="iommu_l2"),
            FaultEvent("flush_pwc", at_cycle=2_000),
        ))
        config = tiny_config().with_faults(plan)
        result = run_simulation(
            "MVT", config=config, trace=TraceConfig(embed_events=True),
            **RUN_KWARGS,
        )
        faults = [
            e for e in result.detail["trace"]["events"]
            if e["cat"] == "fault"
        ]
        assert {e["name"] for e in faults} == {
            "fault:flush_tlb", "fault:flush_pwc"
        }
        assert all(e["ph"] == "i" and e["s"] == "g" for e in faults)
        by_name = {e["name"]: e["ts"] for e in faults}
        assert by_name["fault:flush_tlb"] == 1_000
        assert by_name["fault:flush_pwc"] == 2_000

    def test_embed_events_off_by_default(self):
        result = run_simulation(
            "MVT", config=tiny_config(), trace=TraceConfig(), **RUN_KWARGS
        )
        assert "events" not in result.detail["trace"]

    def test_trace_path_without_trace_config_rejected(self):
        with pytest.raises(ValueError, match="trace_path"):
            run_simulation(
                "MVT", config=tiny_config(), trace_path="/tmp/nope.json",
                **RUN_KWARGS,
            )
