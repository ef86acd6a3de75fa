"""Self-contained HTML campaign report.

One page per campaign, built from the same deterministic inputs as the
figure registry: every registered figure (Vega-Lite spec with its data
values inlined, plus an accessible data table), the retry/timeout audit
from the campaign manifest, and the failure list.  The page is a single
file with zero required network access — the tables and summaries *are*
the report; the inlined specs progressively enhance into charts when a
Vega-Lite runtime is reachable (the standard CDN script tags are
included but optional).

Determinism contract: the bytes are a function of the campaign data
alone.  No timestamps, no hostnames, no wall-clock numbers; every
iteration is sorted; all numbers render through
:mod:`repro.stats.formatting`.  ``jobs=1`` and ``jobs=16`` clean runs
of the same specs produce the identical page, which the figure
determinism tests diff byte-for-byte.
"""

from __future__ import annotations

import html
import json
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.obs.figures import CampaignData, Figure, build_figures, emit_figures
from repro.stats.formatting import format_count, format_number, format_ratio

REPORT_TITLE = "Page-walk scheduling — campaign report"

#: Optional chart runtime.  The page never *requires* these: offline,
#: each figure's table and description stand alone.
_VEGA_CDN = (
    '<script src="https://cdn.jsdelivr.net/npm/vega@5"></script>\n'
    '<script src="https://cdn.jsdelivr.net/npm/vega-lite@5"></script>\n'
    '<script src="https://cdn.jsdelivr.net/npm/vega-embed@6"></script>'
)

#: Light/dark surfaces and ink from the validated reference palette;
#: the figure specs themselves pin the light theme, the page chrome
#: follows the reader's preference.
_CSS = """
:root {
  --surface: #fcfcfb;
  --ink: #0b0b0b;
  --ink-2: #52514e;
  --line: #e8e7e3;
  --ok: #008300;
  --bad: #e34948;
  --warn: #eda100;
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface: #1a1a19;
    --ink: #f2f1ef;
    --ink-2: #b4b2ad;
    --line: #3a3936;
  }
}
body {
  background: var(--surface);
  color: var(--ink);
  font: 15px/1.5 system-ui, sans-serif;
  margin: 2rem auto;
  max-width: 64rem;
  padding: 0 1rem;
}
h1, h2, h3 { line-height: 1.2; }
h2 { border-top: 1px solid var(--line); margin-top: 2.5rem; padding-top: 1.5rem; }
p.desc { color: var(--ink-2); max-width: 48rem; }
table { border-collapse: collapse; margin: 0.75rem 0; }
th, td {
  border-bottom: 1px solid var(--line);
  padding: 0.3rem 0.9rem 0.3rem 0;
  text-align: left;
}
td.num, th.num { text-align: right; }
.status-ok { color: var(--ok); }
.status-bad { color: var(--bad); }
.status-warn { color: var(--warn); }
.vis { margin: 1rem 0; min-height: 1rem; }
details { margin: 0.5rem 0 1.5rem; }
details summary { color: var(--ink-2); cursor: pointer; }
code { background: var(--line); border-radius: 3px; padding: 0 0.25rem; }
.skip { color: var(--ink-2); font-style: italic; }
"""

_EMBED_JS = """
if (window.vegaEmbed) {
  document.querySelectorAll("script.vl-spec").forEach(function (node) {
    var target = document.getElementById(node.dataset.target);
    if (target) {
      vegaEmbed(target, JSON.parse(node.textContent), {actions: false});
    }
  });
}
"""


def _status_class(status: str) -> str:
    if status == "ok":
        return "status-ok"
    if status in ("failed", "timeout"):
        return "status-bad"
    return "status-warn"


def _cell(value: Any) -> str:
    if value is None:
        return "—"
    if isinstance(value, float):
        return format_number(value)
    return html.escape(str(value))


def _table(
    columns: Sequence[str],
    rows: Sequence[Mapping[str, Any]],
    numeric: Sequence[str] = (),
    status_column: Optional[str] = None,
) -> str:
    head = "".join(
        "<th{}>{}</th>".format(
            ' class="num"' if column in numeric else "",
            html.escape(column),
        )
        for column in columns
    )
    body: List[str] = []
    for row in rows:
        cells: List[str] = []
        for column in columns:
            classes = []
            if column in numeric:
                classes.append("num")
            if status_column == column:
                classes.append(_status_class(str(row.get(column))))
            attr = f' class="{" ".join(classes)}"' if classes else ""
            cells.append(f"<td{attr}>{_cell(row.get(column))}</td>")
        body.append("<tr>" + "".join(cells) + "</tr>")
    return (
        f"<table><thead><tr>{head}</tr></thead>"
        f"<tbody>{''.join(body)}</tbody></table>"
    )


# ----------------------------------------------------------------------
# Sections
# ----------------------------------------------------------------------


def _summary_section(
    reports: Sequence[Tuple[str, Mapping[str, Any]]]
) -> str:
    rows = []
    for label, report in reports:
        rows.append(
            {
                "campaign": label,
                "baseline": report.get("baseline_scheduler"),
                "specs": format_count(report.get("specs")),
                "ok": format_count(report.get("ok")),
                "failed": format_count(
                    (report.get("failed") or 0) + (report.get("timeout") or 0)
                ),
                "retried": format_count(report.get("retried")),
            }
        )
    return "<h2>Campaign summary</h2>" + _table(
        ["campaign", "baseline", "specs", "ok", "failed", "retried"],
        rows,
        numeric=("specs", "ok", "failed", "retried"),
    )


def _figure_section(figure: Figure) -> str:
    spec = dict(figure.spec)
    # The emitted .vl.json references its sibling CSV; the HTML page
    # must stand alone, so the values ride inline instead.
    spec["data"] = {"values": figure.rows}
    spec_json = json.dumps(spec, indent=None, sort_keys=True)
    table = _table(
        figure.columns,
        figure.rows,
        numeric=tuple(
            column
            for column in figure.columns
            if figure.rows and isinstance(
                figure.rows[0].get(column), (int, float)
            )
        ),
    )
    return (
        f'<h2 id="{html.escape(figure.name)}">{html.escape(figure.title)}</h2>'
        f'<p class="desc">{html.escape(figure.description)}</p>'
        f'<div class="vis" id="vis-{html.escape(figure.name)}"></div>'
        f'<script type="application/json" class="vl-spec" '
        f'data-target="vis-{html.escape(figure.name)}">{spec_json}</script>'
        f"<details><summary>Data table "
        f"({len(figure.rows)} rows)</summary>{table}</details>"
    )


def _skipped_section(skipped: Mapping[str, str]) -> str:
    if not skipped:
        return ""
    items = "".join(
        f"<li><code>{html.escape(name)}</code> — "
        f'<span class="skip">{html.escape(reason)}</span></li>'
        for name, reason in sorted(skipped.items())
    )
    return f"<h2>Figures skipped</h2><ul>{items}</ul>"


def audit_from_manifest(
    manifest: Optional[Mapping[str, Any]]
) -> Optional[Dict[str, Any]]:
    """Condense a campaign manifest's attempt history into audit rows.

    ``merge_campaign`` folds per-task claim counts and abandonment back
    into ``manifest.json``; this keeps only what a reader needs — which
    shards needed more than one claim, and which were abandoned — in
    deterministic task-id order.
    """
    if manifest is None:
        return None
    attempts = manifest.get("attempts") or {}
    tasks = []
    for task_id, record in sorted(attempts.items()):
        claims = int(record.get("claims", 0))
        abandoned = bool(record.get("abandoned"))
        if claims <= 1 and not abandoned:
            continue
        tasks.append(
            {
                "task": task_id,
                "claims": claims,
                "status": "abandoned" if abandoned else "reclaimed",
            }
        )
    return {
        "tasks_total": len(attempts),
        "tasks_flagged": tasks,
    }


def _audit_section(
    reports: Sequence[Tuple[str, Mapping[str, Any]]],
    audits: Mapping[str, Optional[Dict[str, Any]]],
) -> str:
    parts = ["<h2>Retry &amp; timeout audit</h2>"]
    rows = []
    for label, report in reports:
        rows.append(
            {
                "campaign": label,
                "retried runs": format_count(report.get("retried")),
                "timeouts": format_count(report.get("timeout")),
                "failed": format_count(report.get("failed")),
            }
        )
    parts.append(
        _table(
            ["campaign", "retried runs", "timeouts", "failed"],
            rows,
            numeric=("retried runs", "timeouts", "failed"),
        )
    )
    for label, audit in sorted(audits.items()):
        if audit is None:
            continue
        flagged = audit.get("tasks_flagged", [])
        if not flagged:
            parts.append(
                f"<p class='desc'><code>{html.escape(label)}</code>: all "
                f"{format_count(audit.get('tasks_total'))} shard task(s) "
                "completed on their first claim.</p>"
            )
            continue
        parts.append(
            f"<h3><code>{html.escape(label)}</code> — shards needing "
            "attention</h3>"
        )
        parts.append(
            _table(
                ["task", "claims", "status"],
                flagged,
                numeric=("claims",),
                status_column="status",
            )
        )
    return "".join(parts)


def _blame_section(
    reports: Sequence[Tuple[str, Mapping[str, Any]]]
) -> str:
    """Per-scheduler walk-stage blame table, when the reports carry the
    always-on ``walk.stage.*`` counter summary (see
    :mod:`repro.obs.attrib`)."""
    from repro.obs.attrib import STAGES

    rows = []
    stages_present: List[str] = []
    for label, report in reports:
        summary = report.get("walk_stages_by_scheduler") or {}
        for scheduler in sorted(summary):
            entry = summary[scheduler]
            shares = entry.get("stage_shares", {})
            row: Dict[str, Any] = {"campaign": label, "scheduler": scheduler}
            for stage in STAGES:
                if stage not in shares:
                    continue
                if stage not in stages_present:
                    stages_present.append(stage)
                row[stage] = format_ratio(shares[stage])
            rows.append(row)
    if not rows:
        return ""
    stage_columns = [s for s in STAGES if s in stages_present]
    return (
        "<h2>Walk-stage blame</h2>"
        "<p class='desc'>Share of total walk cycles spent in each "
        "pipeline stage, from the always-on walk.stage.* counters "
        "(no tracing needed). See docs/OBSERVABILITY.md "
        "&sect;&nbsp;Latency attribution.</p>"
        + _table(
            ["campaign", "scheduler", *stage_columns],
            rows,
            numeric=tuple(stage_columns),
        )
    )


def _failures_section(
    reports: Sequence[Tuple[str, Mapping[str, Any]]]
) -> str:
    rows = []
    for label, report in reports:
        for failure in report.get("failures", []):
            rows.append(
                {
                    "campaign": label,
                    "spec": failure.get("spec"),
                    "status": failure.get("status"),
                    "error type": failure.get("error_type"),
                    "error": failure.get("error"),
                }
            )
    if not rows:
        return (
            "<h2>Failures</h2><p class='desc'>None — every spec "
            "completed.</p>"
        )
    rows.sort(key=lambda r: (r["campaign"], str(r["spec"])))
    return "<h2>Failures</h2>" + _table(
        ["campaign", "spec", "status", "error type", "error"],
        rows,
        status_column="status",
    )


# ----------------------------------------------------------------------
# Page assembly
# ----------------------------------------------------------------------


def build_report_html(
    reports: Sequence[Tuple[str, Mapping[str, Any]]],
    figures: Sequence[Figure],
    skipped: Mapping[str, str],
    manifests: Optional[Mapping[str, Optional[Mapping[str, Any]]]] = None,
    title: str = REPORT_TITLE,
) -> str:
    """Assemble the whole page from already-built pieces."""
    audits = {
        label: audit_from_manifest((manifests or {}).get(label))
        for label, _report in reports
    }
    figure_toc = "".join(
        f'<li><a href="#{html.escape(figure.name)}">'
        f"{html.escape(figure.title)}</a></li>"
        for figure in figures
    )
    sections = [
        f"<h1>{html.escape(title)}</h1>",
        _summary_section(reports),
        f"<h2>Figures</h2><ul>{figure_toc}</ul>",
        *[_figure_section(figure) for figure in figures],
        _blame_section(reports),
        _skipped_section(skipped),
        _audit_section(reports, audits),
        _failures_section(reports),
    ]
    return (
        "<!DOCTYPE html>\n"
        '<html lang="en">\n<head>\n<meta charset="utf-8">\n'
        f"<title>{html.escape(title)}</title>\n"
        f"{_VEGA_CDN}\n"
        f"<style>{_CSS}</style>\n</head>\n<body>\n"
        + "\n".join(section for section in sections if section)
        + f"\n<script>{_EMBED_JS}</script>\n</body>\n</html>\n"
    )


def write_campaign_report(
    reports: Sequence[Tuple[str, Mapping[str, Any]]],
    out_dir: Union[str, Path],
    manifests: Optional[Mapping[str, Optional[Mapping[str, Any]]]] = None,
    names: Optional[Sequence[str]] = None,
    baseline: Optional[str] = None,
) -> Dict[str, Any]:
    """Build the figures once and write both outputs of a campaign report.

    ``out_dir/figures/`` receives every figure's Vega-Lite spec and CSV
    plus the ``figures.json`` manifest (:func:`emit_figures`), and
    ``out_dir/campaign_report.html`` the page.  Figures are built and
    validated before anything is written.  Returns the figure manifest.
    """
    data = CampaignData.from_reports(reports, baseline=baseline)
    figures, skipped = build_figures(data, names)
    page = build_report_html(reports, figures, skipped, manifests=manifests)
    out_dir = Path(out_dir)
    manifest = emit_figures(data, figures, skipped, out_dir / "figures")
    (out_dir / "campaign_report.html").write_text(page)
    return manifest
