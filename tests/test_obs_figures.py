"""Figure registry and HTML campaign report tests.

The determinism tests are the load-bearing ones: the figure pipeline's
contract is that ``jobs=1`` and ``jobs=2`` sweeps of the same specs
produce byte-identical Vega-Lite specs, CSVs and HTML.  The golden
tests pin the emitted bytes of one representative figure so accidental
format drift (key order, float rendering, palette edits) fails loudly
instead of silently rewriting every downstream artifact.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

import pytest

from tests.conftest import tiny_config
from repro.experiments.runner import run_many_resilient
from repro.obs.aggregate import fleet_report, sweep_specs
from repro.obs.figures import (
    CATEGORICAL_PALETTE,
    FIGURES,
    CampaignData,
    FigureSkipped,
    build_figures,
    emit_figures,
    figure_names,
    load_campaign_input,
    scheduler_color,
    validate_figure,
)
from repro.obs.report import (
    audit_from_manifest,
    build_report_html,
    write_campaign_report,
)

GOLDEN_DIR = Path(__file__).parent / "golden_figures"


def _sweep_report(jobs=1, metrics=True):
    specs = sweep_specs(
        ["MVT"], ["fcfs", "simt"], range(2),
        config=tiny_config(), num_wavefronts=4, scale=0.05, metrics=metrics,
    )
    outcomes = run_many_resilient(specs, jobs=jobs)
    return fleet_report(specs, outcomes)


@pytest.fixture(scope="module")
def report():
    return _sweep_report()


@pytest.fixture(scope="module")
def campaign(report):
    return CampaignData.from_reports([("tiny", report)])


# ----------------------------------------------------------------------
# Registry + builders
# ----------------------------------------------------------------------


def test_registry_covers_the_paper_charts():
    # The registry holds exactly 19 figures, including every headline
    # chart of the paper's evaluation.
    names = figure_names()
    assert len(names) == 19
    for required in (
        "fig2_scheduler_impact", "fig6_first_last_latency", "fig8_speedup",
        "fig9_stalls", "fig10_latency_gap", "fig11_walk_count",
        "fig13_sensitivity", "fig14_sensitivity",
        "scheduler_comparison", "latency_cdf",
    ):
        assert required in names


def test_every_figure_builds_and_validates(campaign):
    figures, skipped = build_figures(campaign)
    assert not skipped
    assert len(figures) == len(FIGURES)
    for figure in figures:
        assert validate_figure(figure) == []
        assert figure.rows, figure.name


def test_fig8_has_geomean_row(campaign):
    figures, _ = build_figures(campaign, ["fig8_speedup"])
    rows = figures[0].rows
    assert any(row["workload"] == "GEOMEAN" for row in rows)
    # The baseline never gets a speedup bar of its own.
    assert all(row["scheduler"] != "fcfs" for row in rows)


def test_latency_cdf_requires_metrics():
    report = _sweep_report(metrics=False)
    data = CampaignData.from_reports([("plain", report)])
    figures, skipped = build_figures(data)
    assert "latency_cdf" in skipped
    assert "metrics" in skipped["latency_cdf"]
    # Even without metrics the acceptance floor of 8 figures holds.
    assert len(figures) >= 8


def test_latency_cdf_is_monotone(campaign):
    figures, _ = build_figures(campaign, ["latency_cdf"])
    by_scheduler = {}
    for row in figures[0].rows:
        by_scheduler.setdefault(row["scheduler"], []).append(row["cdf"])
    assert set(by_scheduler) == {"fcfs", "simt"}
    for fractions in by_scheduler.values():
        assert fractions == sorted(fractions)
        assert fractions[-1] == pytest.approx(1.0)


def test_scheduler_color_is_fixed_assignment():
    encoding = scheduler_color(["simt", "fcfs"])
    assert encoding["scale"]["domain"] == ["fcfs", "simt"]
    assert encoding["scale"]["range"] == list(CATEGORICAL_PALETTE[:2])
    # Same schedulers, different arrival order: identical assignment.
    assert scheduler_color(["fcfs", "simt"]) == encoding


def test_scheduler_color_never_cycles_the_palette():
    too_many = [f"sched{i}" for i in range(len(CATEGORICAL_PALETTE) + 1)]
    with pytest.raises(FigureSkipped):
        scheduler_color(too_many)


def test_build_figures_rejects_unknown_names(campaign):
    with pytest.raises(ValueError, match="unknown figure"):
        build_figures(campaign, ["no_such_figure"])


def test_campaign_data_rejects_non_reports():
    with pytest.raises(ValueError, match="not a fleet report"):
        CampaignData.from_reports([("bad", {"format": "something-else"})])


def test_normalised_figures_null_out_zero_baselines(report):
    doctored = json.loads(json.dumps(report))
    for run in doctored["runs"]:
        if run["scheduler"] == "fcfs":
            run["stall_cycles"] = 0
    data = CampaignData.from_reports([("tiny", doctored)])
    with pytest.raises(FigureSkipped, match="zero"):
        FIGURES["fig9_stalls"].build(data)


# ----------------------------------------------------------------------
# Blame (walk-stage attribution) figures
# ----------------------------------------------------------------------


def test_blame_stage_share_rows_sum_to_one(campaign):
    from repro.obs.attrib import STAGES

    figures, _ = build_figures(campaign, ["blame_stage_share"])
    rows = figures[0].rows
    by_scheduler = {}
    for row in rows:
        by_scheduler.setdefault(row["scheduler"], []).append(row)
    assert set(by_scheduler) == {"fcfs", "simt"}
    for scheduler_rows in by_scheduler.values():
        assert sum(row["share"] for row in scheduler_rows) == pytest.approx(
            1.0, abs=1e-4
        )
        # Stacked in pipeline order, one row per counter-backed stage
        # (service_gap is a trace-only residue slot — no counter).
        expected = [stage for stage in STAGES if stage != "service_gap"]
        assert [row["stage"] for row in scheduler_rows] == expected
        orders = [row["order"] for row in scheduler_rows]
        assert orders == sorted(orders)


def test_blame_waterfall_segments_tile_without_gaps(campaign):
    figures, _ = build_figures(campaign, ["blame_waterfall"])
    by_scheduler = {}
    for row in figures[0].rows:
        by_scheduler.setdefault(row["scheduler"], []).append(row)
    for scheduler_rows in by_scheduler.values():
        cursor = 0.0
        for row in scheduler_rows:
            assert row["start"] == pytest.approx(cursor)
            assert row["end"] >= row["start"]
            cursor = row["end"]
        assert cursor > 0


def test_blame_figures_skip_without_metrics():
    report = _sweep_report(metrics=False)
    data = CampaignData.from_reports([("plain", report)])
    _, skipped = build_figures(data)
    assert "blame_stage_share" in skipped
    assert "blame_waterfall" in skipped
    assert "metrics" in skipped["blame_stage_share"]


def test_blame_stage_colors_are_stable(campaign):
    figures, _ = build_figures(campaign, ["blame_stage_share"])
    color = figures[0].spec["encoding"]["color"]
    # The color scale is keyed by stage in pipeline order with a fixed
    # slot per stage, so adding a scheduler (or a report without some
    # stage) never reshuffles stage colors between reports.
    from repro.obs.attrib import STAGES

    present = [stage for stage in STAGES if stage != "service_gap"]
    assert color["scale"]["domain"] == present
    assert color["scale"]["range"] == [
        CATEGORICAL_PALETTE[STAGES.index(stage) % len(CATEGORICAL_PALETTE)]
        for stage in present
    ]


# ----------------------------------------------------------------------
# Emission + golden pins
# ----------------------------------------------------------------------


def test_emit_figures_writes_specs_csvs_and_manifest(campaign, tmp_path):
    manifest = emit_figures(campaign, *build_figures(campaign), tmp_path)
    assert manifest["format"] == "repro-figures"
    assert len(manifest["figures"]) == len(FIGURES)
    for entry in manifest["figures"]:
        spec_path = tmp_path / entry["spec"]
        csv_path = tmp_path / entry["csv"]
        spec = json.loads(spec_path.read_text())
        assert spec["$schema"].endswith("vega-lite/v5.json")
        assert spec["data"]["url"] == csv_path.name
        header = csv_path.read_text().splitlines()[0]
        for field in {
            channel.get("field")
            for unit in spec.get("layer", [spec])
            for channel in unit.get("encoding", {}).values()
            if isinstance(channel, dict) and channel.get("field")
        }:
            assert field in header.split(",")
    listed = json.loads((tmp_path / "figures.json").read_text())
    assert listed == manifest


def test_fig8_matches_golden(campaign):
    figures, _ = build_figures(campaign, ["fig8_speedup"])
    figure = figures[0]
    golden_spec = (GOLDEN_DIR / "fig8_speedup.vl.json").read_text()
    golden_csv = (GOLDEN_DIR / "fig8_speedup.csv").read_text()
    assert figure.spec_json() == golden_spec
    assert figure.csv() == golden_csv


def test_latency_cdf_spec_matches_golden(campaign):
    figures, _ = build_figures(campaign, ["latency_cdf"])
    golden_spec = (GOLDEN_DIR / "latency_cdf.vl.json").read_text()
    assert figures[0].spec_json() == golden_spec


def test_blame_stage_share_spec_matches_golden(campaign):
    figures, _ = build_figures(campaign, ["blame_stage_share"])
    golden_spec = (GOLDEN_DIR / "blame_stage_share.vl.json").read_text()
    assert figures[0].spec_json() == golden_spec


# ----------------------------------------------------------------------
# Determinism across worker counts
# ----------------------------------------------------------------------


def test_pipeline_byte_identical_across_jobs(tmp_path):
    outputs = {}
    for jobs in (1, 2):
        report = _sweep_report(jobs=jobs)
        data = CampaignData.from_reports([("tiny", report)])
        out_dir = tmp_path / f"jobs{jobs}"
        figures, skipped = build_figures(data)
        emit_figures(data, figures, skipped, out_dir)
        html = build_report_html([("tiny", report)], figures, skipped)
        outputs[jobs] = (
            {
                path.name: path.read_bytes()
                for path in sorted(out_dir.iterdir())
            },
            html,
        )
    assert outputs[1][0] == outputs[2][0]
    assert outputs[1][1] == outputs[2][1]


# ----------------------------------------------------------------------
# HTML campaign report
# ----------------------------------------------------------------------


def test_report_html_is_self_contained(report, campaign):
    figures, skipped = build_figures(campaign)
    html = build_report_html([("tiny", report)], figures, skipped)
    assert html.startswith("<!DOCTYPE html>")
    for figure in figures:
        assert figure.title in html
        # Data values ride inline: the page never needs the CSV files.
        assert f'id="vis-{figure.name}"' in html
    assert '"values"' in html and '"url"' not in html.split("</head>")[1]
    assert "Failures" in html


def test_report_audit_section_flags_reclaimed_shards(report, campaign):
    manifest = {
        "attempts": {
            "batch-00000": {"claims": 1, "abandoned": False},
            "batch-00001": {"claims": 3, "abandoned": False},
            "batch-00002": {"claims": 2, "abandoned": True},
        }
    }
    audit = audit_from_manifest(manifest)
    assert audit["tasks_total"] == 3
    flagged = {row["task"]: row["status"] for row in audit["tasks_flagged"]}
    assert flagged == {
        "batch-00001": "reclaimed", "batch-00002": "abandoned",
    }
    figures, skipped = build_figures(campaign)
    html = build_report_html(
        [("tiny", report)], figures, skipped,
        manifests={"tiny": manifest},
    )
    assert "batch-00001" in html and "abandoned" in html


def test_write_campaign_report_one_call(report, campaign, tmp_path):
    manifest = write_campaign_report([("tiny", report)], tmp_path)
    figures, skipped = build_figures(campaign)
    # One call writes both outputs from the same built figures.
    html = (tmp_path / "campaign_report.html").read_text()
    assert html == build_report_html([("tiny", report)], figures, skipped)
    assert "<h1>" in html and "fig8_speedup" in html
    assert manifest == json.loads(
        (tmp_path / "figures" / "figures.json").read_text()
    )
    assert len(manifest["figures"]) == len(figures)


def test_load_campaign_input_file_and_dir(report, tmp_path):
    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    label, loaded, manifest = load_campaign_input(report_path)
    assert label == "fleet_report"
    assert loaded["specs"] == report["specs"]
    assert manifest is None

    campaign_dir = tmp_path / "camp"
    (campaign_dir / "report").mkdir(parents=True)
    (campaign_dir / "report" / "fleet_report.json").write_text(
        json.dumps(report)
    )
    (campaign_dir / "manifest.json").write_text(json.dumps({"attempts": {}}))
    label, loaded, manifest = load_campaign_input(campaign_dir)
    assert label == "camp"
    assert manifest == {"attempts": {}}

    unmerged = tmp_path / "empty"
    unmerged.mkdir()
    with pytest.raises(FileNotFoundError, match="service merge"):
        load_campaign_input(unmerged)


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------


def test_cli_figures_list(capsys):
    from repro.__main__ import main

    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in figure_names():
        assert f"  {name} " in out


def test_cli_figures_emits_specs_csvs_and_html(report, tmp_path, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    out_dir = tmp_path / "figs"
    code = main([
        "report", str(report_path), "--out", str(out_dir),
    ])
    assert code == 0
    out = capsys.readouterr().out
    manifest = json.loads((out_dir / "figures" / "figures.json").read_text())
    assert len(manifest["figures"]) >= 8
    html = (out_dir / "campaign_report.html").read_text()
    assert html.startswith("<!DOCTYPE html>")
    assert "wrote" in out


def test_cli_figures_requires_input(capsys):
    from repro.__main__ import main

    with pytest.raises(SystemExit) as excinfo:
        main(["report"])
    assert excinfo.value.code == 2
    assert "required" in capsys.readouterr().err


def test_cli_figures_only_subset(report, tmp_path, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    out_dir = tmp_path / "figs"
    code = main([
        "report", str(report_path), "--out", str(out_dir),
        "--only", "fig8_speedup,latency_cdf", "--quiet",
    ])
    assert code == 0
    capsys.readouterr()
    names = sorted(
        path.name for path in (out_dir / "figures").iterdir()
        if path.suffix == ".json"
    )
    assert names == [
        "fig8_speedup.vl.json", "figures.json", "latency_cdf.vl.json",
    ]


def test_cli_report_static(report, tmp_path, monkeypatch, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    # A file input renders into ./report, never beside the input.
    monkeypatch.chdir(tmp_path)
    code = main(["report", str(report_path), "--quiet"])
    assert code == 0
    capsys.readouterr()
    assert "fig8_speedup" in (
        tmp_path / "report" / "campaign_report.html"
    ).read_text()
    assert (tmp_path / "report" / "figures" / "fig8_speedup.csv").exists()


def test_cli_report_campaign_dir_rewrites_merge_output(tmp_path, capsys):
    from repro.__main__ import main
    from repro.service import init_campaign, merge_campaign, run_worker

    campaign = tmp_path / "camp"
    init_campaign(
        campaign, workloads=["MVT"], schedulers=["fcfs", "simt"], seeds=1,
        scale=0.05, num_wavefronts=4, metrics=True,
    )
    run_worker(campaign, worker_id="w")
    merge_campaign(campaign)
    report_dir = campaign / "report"
    before = {
        path.relative_to(report_dir): path.read_bytes()
        for path in sorted(report_dir.rglob("*")) if path.is_file()
    }
    # A lone campaign dir renders into <campaign>/report: the same files
    # `service merge` wrote, byte for byte, and no second page.
    shutil.rmtree(report_dir / "figures")
    (report_dir / "campaign_report.html").unlink()
    assert main(["report", str(campaign), "--quiet"]) == 0
    capsys.readouterr()
    after = {
        path.relative_to(report_dir): path.read_bytes()
        for path in sorted(report_dir.rglob("*")) if path.is_file()
    }
    assert after == before
    assert not (report_dir / "figures" / "campaign_report.html").exists()


def test_cli_figures_page_does_not_depend_on_working_directory(
    report, tmp_path, monkeypatch, capsys
):
    from repro.__main__ import main

    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    pages = []
    for index, cwd in enumerate((Path(__file__).resolve().parents[1], tmp_path)):
        monkeypatch.chdir(cwd)
        out_dir = tmp_path / f"figs{index}"
        code = main([
            "report", str(report_path), "--out", str(out_dir), "--quiet",
        ])
        assert code == 0
        pages.append((out_dir / "campaign_report.html").read_bytes())
    capsys.readouterr()
    assert pages[0] == pages[1]


def _one_line_error(capsys):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err, err
    return err


def test_cli_figures_bad_input_exits_2(report, tmp_path, capsys):
    from repro.__main__ import main

    report_path = tmp_path / "fleet_report.json"
    report_path.write_text(json.dumps(report))
    out = ["--out", str(tmp_path / "figs")]
    assert main(["report", str(report_path), *out, "--only", "nosuch"]) == 2
    assert "nosuch" in _one_line_error(capsys)
    assert main(["report", str(tmp_path / "missing.json"), *out]) == 2
    assert "missing.json" in _one_line_error(capsys)
    assert not (tmp_path / "figs").exists()


def test_cli_report_bad_input_exits_2(tmp_path, capsys):
    from repro.__main__ import main

    out = ["--out", str(tmp_path / "page")]
    assert main(["report", str(tmp_path / "missing.json"), *out]) == 2
    assert "missing.json" in _one_line_error(capsys)
    foreign = tmp_path / "foreign.json"
    foreign.write_text(json.dumps({"format": "something-else"}))
    assert main(["report", str(foreign), *out]) == 2
    assert "not a fleet report" in _one_line_error(capsys)
    assert not (tmp_path / "page").exists()
