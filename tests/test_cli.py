"""Tests for the ``python -m repro`` command-line interface."""

import json
import pickle

import pytest

from repro.__main__ import build_parser, main


def test_list_command(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    assert "MVT" in out
    assert "simt" in out


def test_run_command_small(capsys):
    code = main(
        ["run", "kmn", "--scale", "0.05", "--wavefronts", "4", "--scheduler", "simt"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "KMN" in out and "simt" in out


def test_run_checkpoint_then_resume(tmp_path, capsys):
    ckpt = str(tmp_path / "run.ckpt")
    code = main(
        ["run", "kmn", "--scale", "0.05", "--wavefronts", "4",
         "--scheduler", "simt", "--checkpoint-every", "100",
         "--checkpoint-path", ckpt]
    )
    assert code == 0
    first = capsys.readouterr().out
    # The completed run leaves its last mid-run checkpoint behind;
    # resuming it replays the tail to the same final statistics.
    assert main(["resume", ckpt]) == 0
    assert capsys.readouterr().out == first


def test_run_checkpoint_every_requires_path(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "kmn", "--scale", "0.05", "--wavefronts", "4",
              "--checkpoint-every", "500"])
    assert excinfo.value.code == 2
    assert "--checkpoint-path" in capsys.readouterr().err


def _assert_one_line_error(capsys, argv, prefix):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(prefix), captured.err


def test_resume_missing_checkpoint_exits_2(tmp_path, capsys):
    _assert_one_line_error(
        capsys, ["resume", str(tmp_path / "missing.ckpt")], "resume: "
    )


def test_resume_text_file_exits_2(tmp_path, capsys):
    path = tmp_path / "notes.ckpt"
    path.write_text("not a checkpoint\n")
    _assert_one_line_error(capsys, ["resume", str(path)], "resume: ")


def test_resume_checkpoint_from_other_code_exits_2(tmp_path, capsys):
    # A genuine checkpoint re-stamped with another code fingerprint: its
    # pickle names classes and handlers of code that is not running, so
    # it must be refused before anything is simulated.
    path = tmp_path / "run.ckpt"
    assert main(["run", "kmn", "--scale", "0.05", "--wavefronts", "4",
                 "--checkpoint-every", "100",
                 "--checkpoint-path", str(path)]) == 0
    capsys.readouterr()
    payload = pickle.loads(path.read_bytes())
    payload["code"] = "0" * 16
    path.write_bytes(pickle.dumps(payload))
    _assert_one_line_error(capsys, ["resume", str(path)], "resume: ")


def test_compare_command_small(capsys):
    code = main(
        [
            "compare",
            "kmn",
            "--schedulers",
            "fcfs,simt",
            "--scale",
            "0.05",
            "--wavefronts",
            "4",
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "speedup=" in out


def test_figure_table1(capsys):
    assert main(["figure", "table1"]) == 0
    assert "Table I" in capsys.readouterr().out


def test_figure_unknown_name(capsys):
    assert main(["figure", "fig99"]) == 2
    assert "unknown figure" in capsys.readouterr().err


def test_figure_small_run(capsys):
    code = main(["figure", "fig5", "--scale", "0.05", "--wavefronts", "4"])
    assert code == 0
    assert "Fig 5" in capsys.readouterr().out


def test_figure_honours_run_flags(tmp_path, capsys):
    import json

    from repro.config import SystemConfig
    from repro.config_io import load_config
    from repro.obs.figures import run_figure

    tiny = ["--scale", "0.05", "--wavefronts", "4"]
    run = dict(scale=0.05, num_wavefronts=4)
    outputs = {}
    for flags, expected in (
        ([], run_figure("fig6_first_last_latency", **run)),
        (["--seed", "1"], run_figure("fig6_first_last_latency", seed=1, **run)),
        (["--dram-controller", "frfcfs"], run_figure(
            "fig6_first_last_latency",
            config=SystemConfig().with_dram_controller("frfcfs"), **run,
        )),
    ):
        assert main(["figure", "fig6", *tiny, *flags]) == 0
        out = capsys.readouterr().out
        assert out == expected.text() + "\n"
        outputs[tuple(flags)] = out
    path = tmp_path / "machine.json"
    path.write_text(json.dumps({"iommu": {"num_walkers": 2}}))
    assert main(["figure", "fig6", *tiny, "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert out == run_figure(
        "fig6_first_last_latency", config=load_config(str(path)), **run
    ).text() + "\n"
    outputs["config"] = out
    # Every flag changes what is simulated, so every output differs.
    assert len(set(outputs.values())) == len(outputs)


def test_run_with_config_file(tmp_path, capsys):
    import json

    path = tmp_path / "machine.json"
    path.write_text(json.dumps({"iommu": {"scheduler": "simt"}}))
    code = main(
        ["run", "kmn", "--config", str(path), "--scale", "0.05", "--wavefronts", "4"]
    )
    assert code == 0
    assert "simt" in capsys.readouterr().out


def test_trace_command_writes_valid_trace(tmp_path, capsys):
    import json

    from repro.obs.trace import validate_chrome_trace

    out = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    code = main(
        [
            "run", "kmn", "--scheduler", "simt",
            "--scale", "0.05", "--wavefronts", "4",
            "--trace", str(out), "--trace-jsonl", str(jsonl),
        ]
    )
    assert code == 0
    captured = capsys.readouterr().out
    assert "perfetto" in captured
    assert validate_chrome_trace(json.loads(out.read_text())) > 0
    assert jsonl.read_text().count("\n") > 0


def test_trace_command_category_filter(tmp_path):
    import json

    out = tmp_path / "walks.json"
    code = main(
        [
            "run", "kmn", "--scale", "0.05", "--wavefronts", "4",
            "--trace", str(out), "--trace-categories", "walk,job",
            "--ring-size", "1024",
        ]
    )
    assert code == 0
    categories = {
        e["cat"]
        for e in json.loads(out.read_text())["traceEvents"]
        if e["ph"] != "M"
    }
    assert categories <= {"walk", "job"}


def test_metrics_command(tmp_path, capsys):
    import json

    out = tmp_path / "metrics.json"
    code = main(
        [
            "run", "kmn", "--scale", "0.05", "--wavefronts", "4",
            "--metrics-interval", "50", "--metrics", str(out),
        ]
    )
    assert code == 0
    data = json.loads(out.read_text())
    assert data["samples_taken"] > 0
    assert "iommu.walks_dispatched" in data["counters"]


def test_run_observation_flags_keep_the_summary(tmp_path, capsys):
    tiny = ["run", "kmn", "--scale", "0.05", "--wavefronts", "4"]
    assert main(tiny) == 0
    plain = capsys.readouterr().out.splitlines()
    assert len(plain) == 3
    assert main([
        *tiny,
        "--trace", str(tmp_path / "t.json"),
        "--trace-jsonl", str(tmp_path / "t.jsonl"),
        "--metrics", str(tmp_path / "m.json"),
    ]) == 0
    # Observing a run changes nothing it simulates: the summary lines
    # come first and match; the written files are listed after them.
    assert capsys.readouterr().out.splitlines()[:3] == plain


#: ``--config`` files the rows below name, written outside the working
#: directory (which must stay empty); none of them loads.
_BAD_CONFIGS = {
    "zero_channels.json": '{"dram": {"channels": 0}}',
    "line_128.json": json.dumps({"l1_cache": {
        "size_bytes": 32 * 1024, "associativity": 16, "line_size": 128,
    }}),
    "not_json.json": "{not json",
    "unknown_key.json": '{"walkers": 16}',
    "a_list.json": "[1]",
    "dram_not_object.json": '{"dram": 5}',
    "zero_cus.json": '{"gpu": {"num_cus": 0}}',
    "bogus_coalesce.json": '{"iommu": {"coalesce_walks": "bogus"}}',
    "nope_scheduler.json": '{"iommu": {"scheduler": "nope"}}',
    "clock.json": '{"gpu": {"clock_ghz": 2.0}}',
    "tlb_hit_latency.json": '{"iommu": {"tlb_hit_latency": 20}}',
}

#: A run small enough to finish at once wherever a bad config loads.
_TINY = ["--scale", "0.05", "--wavefronts", "4"]


@pytest.mark.parametrize("argv, flag", [
    (["run", "bogus"], "workload"),
    (["run", "mvt", "--scale", "0"], "--scale"),
    (["figure", "fig8", "--scale", "-1"], "--scale"),
    (["service", "init", "C", "--seeds", "0"], "--seeds"),
    (["compare", "mvt", "--schedulers", "fcfs,bogus"], "--schedulers"),
    (["fleet-report", "--schedulers", "bogus"], "--schedulers"),
    (["fleet-report", "--seeds", "0"], "--seeds"),
    (["faults", "--runs", "0"], "--runs"),
    (["run", "mvt", "--trace", "t.json", "--ring-size", "0"], "--ring-size"),
    (["run", "mvt", "--trace", "t.json", "--trace-categories", "bogus"],
     "--trace-categories"),
    (["run", "mvt", "--metrics", "m.json", "--metrics-interval", "0"],
     "--metrics-interval"),
    (["compare", "mvt", "--retries", "-1"], "--retries"),
    (["fleet-report", "--retries", "-1"], "--retries"),
    (["faults", "--retries", "-1"], "--retries"),
    (["service", "run", "C", "--workers", "0"], "--workers"),
    (["run", "xsb", "--config", "zero_channels.json"], "--config"),
    (["run", "xsb", "--config", "line_128.json"], "--config"),
    (["run", "xsb", "--config", "not_json.json"], "--config"),
    (["run", "xsb", "--config", "unknown_key.json"], "--config"),
    (["run", "xsb", "--config", "missing.json"], "--config"),
    (["compare", "xsb", "--config", "a_list.json"], "--config"),
    (["fleet-report", "--config", "zero_channels.json"], "--config"),
    (["service", "init", "C", "--config", "line_128.json"], "--config"),
    (["figure", "fig8", "--config", "dram_not_object.json"], "--config"),
    (["run", "xsb", *_TINY, "--config", "zero_cus.json"], "--config"),
    (["run", "xsb", *_TINY, "--config", "bogus_coalesce.json"], "--config"),
    (["run", "xsb", *_TINY, "--config", "nope_scheduler.json"], "--config"),
    (["run", "xsb", *_TINY, "--config", "clock.json"], "--config"),
    (["run", "xsb", *_TINY, "--config", "tlb_hit_latency.json"], "--config"),
])
def test_bad_input_fails_at_parse_time(argv, flag, tmp_path, tmp_path_factory,
                                       monkeypatch, capsys):
    configs = tmp_path_factory.mktemp("configs")
    for name, text in _BAD_CONFIGS.items():
        (configs / name).write_text(text)
    argv = [str(configs / arg) if arg in _BAD_CONFIGS else arg for arg in argv]
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: argument {flag}: " in captured.err
    assert "Traceback" not in captured.err
    # Nothing ran, so nothing was written.
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, message", [
    (["--trace-categories", "walk"], "require --trace or --trace-jsonl"),
    (["--ring-size", "1024"], "require --trace or --trace-jsonl"),
    (["--metrics-interval", "50"], "--metrics-interval requires --metrics"),
])
def test_run_observation_options_need_their_output(argv, message, capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["run", "kmn", "--scale", "0.05", "--wavefronts", "4", *argv])
    assert excinfo.value.code == 2
    assert message in capsys.readouterr().err


def test_command_tree(capsys):
    for argv, usage in [
        ([], "{list,run,resume,compare,faults,fleet-report,blame,figure,"
             "report,qos,service}"),
        (["service"], "{init,worker,run,status,merge}"),
    ]:
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--help"])
        assert excinfo.value.code == 0
        assert usage in capsys.readouterr().out


@pytest.mark.parametrize("argv", [
    ["report", "X", "--serve"],
    ["service", "resume", "X"],
    ["service", "chaos", "X"],
])
def test_removed_commands_are_usage_errors(argv, tmp_path, monkeypatch,
                                           capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2
    assert "error: " in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("sub", ["init", "worker", "run", "status", "merge"])
def test_service_bad_directory_is_one_line_and_creates_nothing(
    sub, tmp_path, capsys
):
    campaign = str(tmp_path / "C")
    if sub == "init":
        # For init, a bad directory is one that already holds a campaign.
        assert main(["service", "init", campaign, "--quiet"]) == 0
    before = sorted(
        (str(path), path.stat().st_mtime_ns) for path in tmp_path.rglob("*")
    )
    _assert_one_line_error(
        capsys, ["service", sub, campaign], f"service {sub}: "
    )
    assert sorted(
        (str(path), path.stat().st_mtime_ns) for path in tmp_path.rglob("*")
    ) == before


def test_blame_missing_trace_exits_2(tmp_path, capsys):
    _assert_one_line_error(
        capsys, ["blame", str(tmp_path / "missing.json")], "blame: "
    )


def test_blame_text_file_exits_2(tmp_path, capsys):
    path = tmp_path / "notes.txt"
    path.write_text("not a trace\n")
    _assert_one_line_error(capsys, ["blame", str(path)], "blame: ")


def test_fleet_report_blame_matches_the_library(tmp_path, capsys):
    from repro.experiments.runner import run_many
    from repro.obs.attrib import (
        blame_sweep_report,
        blame_sweep_specs,
        render_blame_report,
    )

    out = tmp_path / "blame.json"
    code = main([
        "fleet-report", "--workloads", "kmn", "--schedulers", "fcfs,simt",
        "--seeds", "1", "--scale", "0.05", "--wavefronts", "4",
        "--out", str(tmp_path / "fleet.json"), "--blame", str(out),
        "--quiet",
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    specs = blame_sweep_specs(
        ["KMN"], ["fcfs", "simt"], range(1), num_wavefronts=4, scale=0.05
    )
    expected = render_blame_report(blame_sweep_report(specs, run_many(specs)))
    assert out.read_text() == expected + "\n"


def test_faults_trace_dir(tmp_path, capsys):
    import json

    from repro.obs.trace import validate_chrome_trace

    trace_dir = tmp_path / "traces"
    code = main(
        ["faults", "--runs", "2", "--trace-dir", str(trace_dir)]
    )
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert all(case["trace_file"] for case in report["cases"])
    traces = sorted(trace_dir.glob("case_*.json"))
    assert len(traces) == 2
    for path in traces:
        document = json.loads(path.read_text())
        validate_chrome_trace(document)
        # Fault injections are on the timeline as instant events.
        assert any(
            e["name"].startswith("fault:")
            for e in document["traceEvents"]
        )


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_rejects_unknown_scheduler():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["run", "MVT", "--scheduler", "bogus"])


def test_fleet_report_command(tmp_path, capsys):
    import json

    out = tmp_path / "fleet.json"
    md = tmp_path / "fleet.md"
    code = main([
        "fleet-report", "--workloads", "kmn", "--schedulers", "fcfs,simt",
        "--seeds", "1", "--scale", "0.05", "--wavefronts", "4",
        "--out", str(out), "--markdown", str(md),
    ])
    assert code == 0
    assert "# Fleet report" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["format"] == "repro-fleet-report"
    assert report["ok"] == 2
    assert "KMN/simt" in report["groups"]
    assert "# Fleet report" in md.read_text()


def test_fleet_report_progress_and_log(tmp_path, capsys):
    import json

    log = tmp_path / "fleet.jsonl"
    code = main([
        "fleet-report", "--workloads", "kmn", "--schedulers", "fcfs",
        "--seeds", "1", "--scale", "0.05", "--wavefronts", "4",
        "--out", str(tmp_path / "fleet.json"),
        "--progress", "--fleet-log", str(log), "--quiet",
    ])
    assert code == 0
    captured = capsys.readouterr()
    assert captured.out == ""          # --quiet silences stdout
    assert "fleet:" in captured.err    # --progress streams to stderr
    events = [json.loads(l)["event"] for l in log.read_text().splitlines()]
    assert events[0] == "sweep_started" and events[-1] == "sweep_finished"
    # The quiet report also lands in the JSON's telemetry summary.
    report = json.loads((tmp_path / "fleet.json").read_text())
    assert report["telemetry"]["ok"] == 1


def test_fleet_report_progress_quiet_not_exclusive():
    # --quiet silences the stdout report; --progress streams to stderr.
    # They compose (quiet progress-bar usage), so both at once parse.
    parser = build_parser()
    args = parser.parse_args([
        "fleet-report", "--quiet", "--progress", "--out", "x.json",
    ])
    assert args.quiet and args.progress


def test_compare_quiet_suppresses_stdout(capsys):
    code = main([
        "compare", "kmn", "--schedulers", "fcfs,simt",
        "--scale", "0.05", "--wavefronts", "4", "--quiet",
    ])
    assert code == 0
    assert capsys.readouterr().out == ""


def test_faults_quiet_with_output_file(tmp_path, capsys):
    import json

    out = tmp_path / "campaign.json"
    code = main([
        "faults", "--runs", "2", "--output", str(out), "--quiet",
    ])
    assert code == 0
    assert capsys.readouterr().out == ""
    report = json.loads(out.read_text())
    assert report["completed"] == 2
    assert report["retried"] == 0 and report["timed_out"] == 0
