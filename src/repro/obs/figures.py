"""The figure registry: every paper figure, defined once.

A merged sweep report (:func:`repro.obs.aggregate.fleet_report`) holds
everything the paper's evaluation charts need — per-run cycles, stalls,
walk counts, latency shape, TLB epochs, geomean speedups, merged metric
histograms — but as JSON nobody can *see*.  This module is the registry
pattern from ProjectScylla's ``generate_figures.py``: figure names map
to generator functions over tidy rows, and each figure is emitted as

* ``<name>.vl.json`` — a Vega-Lite v5 spec (open it in any Vega
  editor, embed it in the HTML campaign report, or hand it to CI);
* ``<name>.csv`` — the companion tidy data the spec references;
* :meth:`Figure.text` — an aligned text table of the same rows (what
  ``python -m repro figure NAME`` and the ``benchmarks/`` claims print).

A paper figure's entry also names its **sweep**: one or more labelled
:class:`Campaign` records of :func:`~repro.experiments.runner.run_simulation`
specs (the Fig 13/14 variants are one campaign each).
:func:`run_figure` runs the sweep through
:func:`~repro.experiments.runner.run_many_resilient`, folds each
campaign with ``fleet_report`` and builds the figure from the result —
the same builder that draws the figure from any campaign's reports.
A :class:`~repro.resilience.outcomes.CheckpointStore` directory shared
between ``run_figure`` calls means a spec two figures have in common
(Figs 8–12 all reuse the FCFS/SIMT pairs) is simulated once.

No display stack is imported — matplotlib-free by design, the specs
*are* the figures — and the output is deterministic: rows derive only
from the report's deterministic view, every reduction iterates in
sorted order, numbers render through
:mod:`repro.stats.formatting`, and specs serialise with sorted keys.
``jobs=1`` and ``jobs=16`` sweeps of the same specs produce
byte-identical figures, which the figure pipeline bench and
``tests/test_obs_figures.py`` both pin.

``python -m repro list`` lists the registry;
``docs/OBSERVABILITY.md`` tabulates each figure and its sweep.

Multiple campaign reports can be loaded side by side (each tagged with
a campaign label), which turns the sensitivity figures into true
multi-point series; a single report still emits every figure with one
point per axis value.  Tables I and II are row functions beside the
data they print: :func:`repro.config.table1_rows` and
:func:`repro.workloads.registry.table2_rows`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.config import (
    DEFAULT_SCALE,
    DEFAULT_WAVEFRONTS,
    SystemConfig,
    baseline_config,
)
from repro.obs.aggregate import deterministic_view, fleet_report, sweep_specs
from repro.obs.metrics import MetricsRegistry
from repro.stats.counters import BucketHistogram
from repro.stats.formatting import format_number, text_table
from repro.stats.metrics import FIG3_BUCKETS, geometric_mean
from repro.workloads.registry import IRREGULAR_WORKLOADS, REGULAR_WORKLOADS

VEGA_LITE_SCHEMA = "https://vega.github.io/schema/vega-lite/v5.json"

#: Categorical series palette (validated reference palette, light-mode
#: steps; see docs/OBSERVABILITY.md).  Slots are assigned to scheduler
#: names in sorted order — fixed assignment, never cycled — so the same
#: scheduler wears the same hue in every figure of a campaign.
CATEGORICAL_PALETTE: Tuple[str, ...] = (
    "#2a78d6",  # blue
    "#eb6834",  # orange
    "#1baf7a",  # aqua
    "#eda100",  # yellow
    "#e87ba4",  # magenta
    "#008300",  # green
    "#4a3aa7",  # violet
    "#e34948",  # red
)

#: Single-hue sequential ramp (light→dark blue) for magnitude encodings.
SEQUENTIAL_RANGE: Tuple[str, ...] = ("#cde2fb", "#86b6ef", "#3987e5", "#1c5cab", "#0d366b")

#: Shared Vega-Lite theme: recessive grid and axes, thin rounded bars.
_VEGA_CONFIG: Dict[str, Any] = {
    "axis": {
        "domainColor": "#d6d5d0",
        "gridColor": "#e8e7e3",
        "labelColor": "#52514e",
        "tickColor": "#d6d5d0",
        "titleColor": "#0b0b0b",
    },
    "background": "#fcfcfb",
    "bar": {"cornerRadiusEnd": 2},
    "legend": {"labelColor": "#52514e", "titleColor": "#0b0b0b"},
    "view": {"stroke": None},
}

#: Synthetic workload label for the cross-workload geomean bar (Fig 8).
GEOMEAN_LABEL = "GEOMEAN"


class FigureSkipped(Exception):
    """A figure generator declining its input (missing columns/metrics).

    Skipping is an expected outcome, not an error: a campaign without
    ``--metrics`` has no latency histograms, so ``latency_cdf`` reports
    *why* it was skipped instead of emitting an empty chart.
    """


@dataclass
class Figure:
    """One generated figure: tidy rows plus the Vega-Lite spec."""

    name: str
    title: str
    description: str
    columns: List[str]
    rows: List[Dict[str, Any]]
    spec: Dict[str, Any]

    def csv(self) -> str:
        """The companion CSV, rendered through the stable formatter."""
        lines = [",".join(self.columns)]
        for row in self.rows:
            lines.append(
                ",".join(_csv_cell(row.get(column)) for column in self.columns)
            )
        return "\n".join(lines) + "\n"

    def spec_json(self) -> str:
        return json.dumps(self.spec, indent=2, sort_keys=True) + "\n"

    def text(self) -> str:
        """The rows as an aligned text table under the chart title."""
        return text_table(self.spec["title"], self.columns, self.rows)


@dataclass(frozen=True)
class Campaign:
    """One labelled slice of a paper figure's sweep: every workload
    under every scheduler, on one machine."""

    label: str
    workloads: Tuple[str, ...]
    schedulers: Tuple[str, ...]
    #: Derives this variant's machine from the requested one.  None runs
    #: the requested machine as given, so unvaried campaigns of
    #: different figures share specs (and checkpointed results).
    vary: Optional[Callable[[SystemConfig], SystemConfig]] = None

    def specs(
        self,
        scale: float,
        num_wavefronts: int,
        seed: int,
        config: Optional[SystemConfig],
    ) -> List[Dict[str, Any]]:
        if self.vary is not None:
            config = self.vary(config or baseline_config())
        return sweep_specs(
            self.workloads, self.schedulers, [seed], config=config,
            num_wavefronts=num_wavefronts, scale=scale,
        )


@dataclass(frozen=True)
class FigureDef:
    """A registry entry: the name, what it shows, its generator, and —
    for a paper figure — the sweep that feeds it."""

    name: str
    title: str
    description: str
    build: Callable[["CampaignData"], Figure]
    sweep: Tuple[Campaign, ...] = ()
    #: The scheduler the sweep's speedups are measured against.
    baseline: str = "fcfs"


#: The registry.  Ordered dict in registration order; ``--list`` and
#: the HTML report iterate it in this order.
FIGURES: Dict[str, FigureDef] = {}


def register_figure(
    name: str,
    title: str,
    description: str,
    sweep: Sequence[Campaign] = (),
    baseline: str = "fcfs",
):
    """Class ProjectScylla-style registration decorator."""

    def wrap(builder: Callable[["CampaignData"], Figure]):
        if name in FIGURES:
            raise ValueError(f"figure {name!r} registered twice")
        FIGURES[name] = FigureDef(
            name, title, description, builder, tuple(sweep), baseline
        )
        return builder

    return wrap


def figure_names() -> List[str]:
    return list(FIGURES)


# ----------------------------------------------------------------------
# Campaign data: tidy rows from one or more fleet reports
# ----------------------------------------------------------------------


@dataclass
class CampaignData:
    """Tidy per-run rows (plus merged metrics) from ≥1 fleet reports.

    Rows are built from each report's *deterministic view* — wall-clock
    and delivery-layer fields never reach a figure — and tagged with a
    ``campaign`` label column so several campaigns (say, a
    wavefront-count sensitivity series) plot side by side.
    """

    rows: List[Dict[str, Any]]
    baseline: str
    labels: List[str]
    #: scheduler -> merged MetricsRegistry dump, across all campaigns.
    metrics_by_scheduler: Dict[str, Dict[str, Any]] = field(default_factory=dict)

    @classmethod
    def from_reports(
        cls,
        reports: Sequence[Tuple[str, Mapping[str, Any]]],
        baseline: Optional[str] = None,
    ) -> "CampaignData":
        if not reports:
            raise ValueError("at least one fleet report is required")
        rows: List[Dict[str, Any]] = []
        labels: List[str] = []
        merged_metrics: Dict[str, MetricsRegistry] = {}
        for label, report in reports:
            if report.get("format") != "repro-fleet-report":
                raise ValueError(
                    f"campaign {label!r} is not a fleet report "
                    f"(format={report.get('format')!r})"
                )
            labels.append(label)
            view = deterministic_view(dict(report))
            for run in view.get("runs", []):
                row = dict(run)
                row["campaign"] = label
                rows.append(row)
            for scheduler, dump in sorted(
                view.get("metrics_by_scheduler", {}).items()
            ):
                registry = merged_metrics.setdefault(scheduler, MetricsRegistry())
                registry.merge(MetricsRegistry.from_dict(dump))
        if baseline is None:
            baseline = str(reports[0][1].get("baseline_scheduler", "fcfs"))
        metrics = {
            scheduler: registry.as_dict()
            for scheduler, registry in sorted(merged_metrics.items())
        }
        return cls(
            rows=rows, baseline=baseline, labels=labels,
            metrics_by_scheduler=metrics,
        )

    # -- derived views --------------------------------------------------

    def schedulers(self) -> List[str]:
        return sorted({row["scheduler"] for row in self.rows})

    def workloads(self) -> List[str]:
        return sorted({row["workload"] for row in self.rows})

    def require_columns(self, columns: Sequence[str], figure: str) -> None:
        if not self.rows:
            raise FigureSkipped("the report has no successful runs")
        missing = [c for c in columns if c not in self.rows[0]]
        if missing:
            raise FigureSkipped(
                f"report rows lack column(s) {', '.join(missing)} "
                f"(regenerate the report with this repo version)"
            )

    def speedup_samples(
        self, axis: Optional[str] = None
    ) -> List[Tuple[Tuple[Any, ...], str, str, float]]:
        """Paired per-(campaign, workload, seed) speedups vs baseline.

        Returns ``(axis_key, workload, scheduler, speedup)`` samples in
        deterministic order; ``axis`` names an extra row column (e.g.
        ``wavefronts``) carried through for sensitivity figures.
        """
        cases: Dict[Tuple[Any, ...], Dict[str, Dict[str, Any]]] = {}
        for row in self.rows:
            key = (row["campaign"], row["workload"], row["seed"])
            cases.setdefault(key, {})[row["scheduler"]] = row
        samples: List[Tuple[Tuple[Any, ...], str, str, float]] = []
        for key in sorted(cases, key=lambda k: tuple(map(str, k))):
            by_scheduler = cases[key]
            base = by_scheduler.get(self.baseline)
            if base is None or base["total_cycles"] <= 0:
                continue
            for scheduler in sorted(by_scheduler):
                if scheduler == self.baseline:
                    continue
                row = by_scheduler[scheduler]
                if row["total_cycles"] <= 0:
                    continue
                axis_key = (row.get(axis),) if axis else ()
                samples.append(
                    (
                        axis_key,
                        row["workload"],
                        scheduler,
                        base["total_cycles"] / row["total_cycles"],
                    )
                )
        return samples

    def mean_by(
        self, value: str, keys: Sequence[str]
    ) -> Dict[Tuple[Any, ...], float]:
        """Mean of a row column, grouped by ``keys``, in sorted order."""
        groups: Dict[Tuple[Any, ...], List[float]] = {}
        for row in self.rows:
            groups.setdefault(
                tuple(row[k] for k in keys), []
            ).append(float(row[value]))
        return {
            key: sum(values) / len(values)
            for key, values in sorted(
                groups.items(), key=lambda kv: tuple(map(str, kv[0]))
            )
        }

    def scheduler_histogram(self, name: str) -> Dict[str, BucketHistogram]:
        """Per-scheduler merged :class:`BucketHistogram` by metric name."""
        out: Dict[str, BucketHistogram] = {}
        for scheduler, dump in sorted(self.metrics_by_scheduler.items()):
            histogram = dump.get("histograms", {}).get(name)
            if histogram is None:
                continue
            out[scheduler] = BucketHistogram.from_counts(
                [tuple(bucket) for bucket in histogram["buckets"]],
                histogram["counts"],
                histogram.get("out_of_range", 0),
            )
        return out


# ----------------------------------------------------------------------
# Spec construction helpers
# ----------------------------------------------------------------------


def scheduler_color(schedulers: Sequence[str]) -> Dict[str, Any]:
    """Fixed-order categorical color: sorted schedulers → palette slots."""
    return _palette_color("scheduler", sorted(schedulers))


def _palette_color(field_name: str, domain: Sequence[str]) -> Dict[str, Any]:
    """Categorical color over ``domain`` in the order given, one fixed
    palette slot per value — never cycled."""
    if len(domain) > len(CATEGORICAL_PALETTE):
        raise FigureSkipped(
            f"{len(domain)} {field_name}s exceed the {len(CATEGORICAL_PALETTE)}"
            f"-slot categorical palette; split the campaign"
        )
    return {
        "field": field_name,
        "type": "nominal",
        "title": field_name,
        "scale": {
            "domain": list(domain),
            "range": list(CATEGORICAL_PALETTE[: len(domain)]),
        },
    }


def base_spec(
    name: str,
    title: str,
    width: int = 420,
    height: int = 260,
) -> Dict[str, Any]:
    """The envelope every figure spec shares (CSV url, theme, size)."""
    return {
        "$schema": VEGA_LITE_SCHEMA,
        "config": dict(_VEGA_CONFIG),
        "data": {"format": {"type": "csv"}, "url": f"{name}.csv"},
        "description": title,
        "height": height,
        "title": title,
        "width": width,
    }


def _bar_spec(
    name: str,
    title: str,
    y: Dict[str, Any],
    group: str,
    domain: Sequence[str],
    x_sort: Optional[List[str]] = None,
) -> Dict[str, Any]:
    """Bars per workload, one per ``group`` value (colored and offset
    over ``domain`` in order), heights from the ``y`` channel."""
    spec = base_spec(name, title)
    spec["mark"] = {"type": "bar"}
    x: Dict[str, Any] = {"field": "workload", "type": "nominal", "title": "workload"}
    if x_sort is not None:
        x["sort"] = x_sort
    spec["encoding"] = {
        "color": _palette_color(group, domain),
        "x": x,
        "xOffset": {"field": group, "sort": list(domain)},
        "y": y,
    }
    return spec


def _csv_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        if any(ch in value for ch in ',"\n'):
            return '"' + value.replace('"', '""') + '"'
        return value
    return format_number(value)


def _round(value: float) -> float:
    return round(float(value), 6)


def _figure(
    name: str, columns: List[str], rows: List[Dict[str, Any]], spec: Dict[str, Any]
) -> Figure:
    """A built figure under its registry entry's name, title and description."""
    definition = FIGURES[name]
    return Figure(
        definition.name, definition.title, definition.description,
        columns, rows, spec,
    )


# ----------------------------------------------------------------------
# Paper sweeps
# ----------------------------------------------------------------------

#: The four applications the paper's motivation figures (2-6) use.
MOTIVATION_WORKLOADS: Tuple[str, ...] = ("MVT", "ATX", "BIC", "GEV")

ALL_WORKLOADS: Tuple[str, ...] = IRREGULAR_WORKLOADS + REGULAR_WORKLOADS

#: The comparison at the heart of the paper: FCFS against SIMT-aware.
FCFS_SIMT: Tuple[str, ...] = ("fcfs", "simt")

#: Fig 13 variants: campaign label -> (GPU L2 TLB entries, walkers).
FIG13_VARIANTS: Dict[str, Tuple[int, int]] = {
    "a_1024tlb_8walkers": (1024, 8),
    "b_512tlb_16walkers": (512, 16),
    "c_1024tlb_16walkers": (1024, 16),
}

#: Fig 14 variants: campaign label -> IOMMU buffer entries.
FIG14_VARIANTS: Dict[str, int] = {"buffer_128": 128, "buffer_512": 512}


def _paper(
    workloads: Tuple[str, ...], schedulers: Tuple[str, ...] = FCFS_SIMT
) -> Tuple[Campaign, ...]:
    """The one-campaign sweep of a figure run on the requested machine."""
    return (Campaign("paper", workloads, schedulers),)


# ----------------------------------------------------------------------
# Registered figures
# ----------------------------------------------------------------------


@register_figure(
    "fig2_scheduler_impact",
    "Scheduler impact: speedup vs baseline per workload",
    "Paper Fig. 2 — how much the walk scheduler alone moves end-to-end "
    "runtime; every scheduler's per-workload geomean speedup over the "
    "baseline (random in the paper sweep), baseline shown at 1.0.",
    sweep=_paper(MOTIVATION_WORKLOADS, ("random", "fcfs", "simt")),
    baseline="random",
)
def fig2_scheduler_impact(data: CampaignData) -> Figure:
    data.require_columns(["total_cycles"], "fig2_scheduler_impact")
    samples = data.speedup_samples()
    if not samples:
        raise FigureSkipped("no (workload, seed) pair has a healthy baseline run")
    grouped: Dict[Tuple[str, str], List[float]] = {}
    for _axis, workload, scheduler, speedup in samples:
        grouped.setdefault((workload, scheduler), []).append(speedup)
    rows = [
        {"workload": workload, "scheduler": data.baseline, "speedup": 1.0}
        for workload in data.workloads()
    ]
    for (workload, scheduler), values in sorted(grouped.items()):
        rows.append(
            {
                "workload": workload,
                "scheduler": scheduler,
                "speedup": _round(geometric_mean(values)),
            }
        )
    rows.sort(key=lambda r: (r["workload"], r["scheduler"]))
    spec = _bar_spec(
        "fig2_scheduler_impact", "Fig 2 — scheduler impact",
        {"field": "speedup", "type": "quantitative",
         "title": f"speedup vs {data.baseline}"},
        "scheduler", data.schedulers(),
    )
    return _figure(
        "fig2_scheduler_impact", ["workload", "scheduler", "speedup"], rows, spec
    )


@register_figure(
    "fig3_walk_work_distribution",
    "Page-walk work per instruction",
    "Paper Fig. 3 — the share of walk-generating SIMD instructions per "
    "page-walk memory-access bucket; the distribution is bimodal, the "
    "variance that makes shortest-job-first scheduling worthwhile.",
    sweep=_paper(MOTIVATION_WORKLOADS, ("fcfs",)),
)
def fig3_walk_work_distribution(data: CampaignData) -> Figure:
    data.require_columns(["walk_work_fractions"], "fig3_walk_work_distribution")
    buckets = [f"{low}-{high}" for low, high in FIG3_BUCKETS]
    runs: Dict[Tuple[str, str], List[List[float]]] = {}
    for row in data.rows:
        runs.setdefault((row["workload"], row["scheduler"]), []).append(
            row["walk_work_fractions"]
        )
    rows = [
        {
            "workload": workload,
            "scheduler": scheduler,
            "bucket": bucket,
            "order": order,
            "fraction": _round(
                sum(fractions[order] for fractions in histograms)
                / len(histograms)
            ),
        }
        for (workload, scheduler), histograms in sorted(runs.items())
        for order, bucket in enumerate(buckets)
    ]
    spec = base_spec(
        "fig3_walk_work_distribution", "Fig 3 — walk work per instruction"
    )
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": _palette_color("bucket", buckets),
        "order": {"field": "order", "type": "quantitative"},
        "x": {"field": "workload", "type": "nominal", "title": "workload"},
        "xOffset": {"field": "scheduler", "sort": data.schedulers()},
        "y": {
            "field": "fraction",
            "type": "quantitative",
            "title": "share of walk-generating instructions",
        },
    }
    return _figure(
        "fig3_walk_work_distribution",
        ["workload", "scheduler", "bucket", "order", "fraction"],
        rows,
        spec,
    )


@register_figure(
    "fig5_interleaving",
    "Interleaved multi-walk instructions",
    "Paper Fig. 5 — the fraction of multi-walk instructions whose walks "
    "were dispatched interleaved with other instructions' walks.",
    sweep=_paper(MOTIVATION_WORKLOADS, ("fcfs",)),
)
def fig5_interleaving(data: CampaignData) -> Figure:
    data.require_columns(["interleaved_fraction"], "fig5_interleaving")
    means = data.mean_by("interleaved_fraction", ("workload", "scheduler"))
    rows = [
        {
            "workload": workload,
            "scheduler": scheduler,
            "interleaved_fraction": _round(value),
        }
        for (workload, scheduler), value in means.items()
    ]
    spec = _bar_spec(
        "fig5_interleaving", "Fig 5 — interleaved walks",
        {"field": "interleaved_fraction", "type": "quantitative",
         "title": "interleaved multi-walk instructions",
         "scale": {"domain": [0, 1]}},
        "scheduler", data.schedulers(),
    )
    return _figure(
        "fig5_interleaving",
        ["workload", "scheduler", "interleaved_fraction"],
        rows,
        spec,
    )


@register_figure(
    "fig6_first_last_latency",
    "First vs last walk latency per instruction",
    "Paper Fig. 6 — mean latency of the first- and last-completing walk "
    "of multi-walk instructions; the vertical span is the window an "
    "instruction stays blocked after its first translation returned.",
    sweep=_paper(MOTIVATION_WORKLOADS, ("fcfs",)),
)
def fig6_first_last_latency(data: CampaignData) -> Figure:
    data.require_columns(
        ["first_walk_latency", "last_walk_latency"], "fig6_first_last_latency"
    )
    first = data.mean_by("first_walk_latency", ("workload", "scheduler"))
    last = data.mean_by("last_walk_latency", ("workload", "scheduler"))
    rows = [
        {
            "workload": workload,
            "scheduler": scheduler,
            "first_walk_latency": _round(first_value),
            "last_walk_latency": _round(last[(workload, scheduler)]),
        }
        for (workload, scheduler), first_value in first.items()
    ]
    spec = base_spec("fig6_first_last_latency", "Fig 6 — first vs last walk latency")
    color = scheduler_color(data.schedulers())
    shared_x = {"field": "workload", "type": "nominal", "title": "workload"}
    offset = {"field": "scheduler", "sort": sorted(data.schedulers())}
    spec["layer"] = [
        {
            "mark": {"type": "rule", "strokeWidth": 2},
            "encoding": {
                "color": color,
                "x": shared_x,
                "xOffset": offset,
                "y": {
                    "field": "first_walk_latency",
                    "type": "quantitative",
                    "title": "walk latency (cycles)",
                },
                "y2": {"field": "last_walk_latency"},
            },
        },
        {
            "mark": {"type": "point", "filled": True, "size": 60},
            "encoding": {
                "color": color,
                "x": shared_x,
                "xOffset": offset,
                "y": {"field": "first_walk_latency", "type": "quantitative"},
            },
        },
        {
            "mark": {"type": "point", "filled": True, "size": 60},
            "encoding": {
                "color": color,
                "x": shared_x,
                "xOffset": offset,
                "y": {"field": "last_walk_latency", "type": "quantitative"},
            },
        },
    ]
    return _figure(
        "fig6_first_last_latency",
        ["workload", "scheduler", "first_walk_latency", "last_walk_latency"],
        rows,
        spec,
    )


@register_figure(
    "fig8_speedup",
    "Speedup over baseline, per workload plus GEOMEAN",
    "Paper Fig. 8 — the headline chart: per-workload geomean speedup of "
    "every non-baseline scheduler, with the cross-workload GEOMEAN bar "
    "the paper quotes (+30% for SIMT-aware over FCFS).",
    sweep=_paper(ALL_WORKLOADS),
)
def fig8_speedup(data: CampaignData) -> Figure:
    data.require_columns(["total_cycles"], "fig8_speedup")
    samples = data.speedup_samples()
    if not samples:
        raise FigureSkipped("no (workload, seed) pair has a healthy baseline run")
    per_workload: Dict[Tuple[str, str], List[float]] = {}
    per_scheduler: Dict[str, List[float]] = {}
    for _axis, workload, scheduler, speedup in samples:
        per_workload.setdefault((workload, scheduler), []).append(speedup)
        per_scheduler.setdefault(scheduler, []).append(speedup)
    rows = [
        {
            "workload": workload,
            "scheduler": scheduler,
            "speedup": _round(geometric_mean(values)),
        }
        for (workload, scheduler), values in sorted(per_workload.items())
    ]
    for scheduler, values in sorted(per_scheduler.items()):
        rows.append(
            {
                "workload": GEOMEAN_LABEL,
                "scheduler": scheduler,
                "speedup": _round(geometric_mean(values)),
            }
        )
    spec = _bar_spec(
        "fig8_speedup", "Fig 8 — speedup over baseline",
        {"field": "speedup", "type": "quantitative",
         "title": f"speedup vs {data.baseline}"},
        "scheduler", sorted(per_scheduler),
        x_sort=data.workloads() + [GEOMEAN_LABEL],
    )
    return _figure(
        "fig8_speedup", ["workload", "scheduler", "speedup"], rows, spec
    )


def _normalised_figure(
    name: str, value_column: str, axis_title: str, data: CampaignData
) -> Figure:
    """Shared shape of Figs 9/10/11: per-group mean normalised to baseline.

    Workloads whose baseline mean is zero get a null value (the spec
    drops nulls) — a tiny sweep with no stalls must not divide by zero
    or silently change the chart's meaning.
    """
    data.require_columns([value_column], name)
    means = data.mean_by(value_column, ("workload", "scheduler"))
    rows: List[Dict[str, Any]] = []
    for workload in data.workloads():
        base = means.get((workload, data.baseline))
        for scheduler in data.schedulers():
            if scheduler == data.baseline:
                continue
            value = means.get((workload, scheduler))
            if value is None:
                continue
            normalised = (
                _round(value / base) if base else None
            )
            rows.append(
                {
                    "workload": workload,
                    "scheduler": scheduler,
                    value_column: _round(value),
                    "normalised": normalised,
                }
            )
    if not any(row["normalised"] is not None for row in rows):
        raise FigureSkipped(
            f"every workload's baseline {value_column} is zero — nothing to normalise"
        )
    spec = _bar_spec(
        name, FIGURES[name].title,
        {"field": "normalised", "type": "quantitative", "title": axis_title},
        "scheduler", [s for s in data.schedulers() if s != data.baseline],
    )
    return _figure(
        name, ["workload", "scheduler", value_column, "normalised"], rows, spec
    )


@register_figure(
    "fig9_stalls",
    "CU stall cycles, normalised to baseline",
    "Paper Fig. 9 — execution-stage stall cycles under each scheduler "
    "relative to the baseline scheduler (lower is better).",
    sweep=_paper(ALL_WORKLOADS),
)
def fig9_stalls(data: CampaignData) -> Figure:
    return _normalised_figure(
        "fig9_stalls", "stall_cycles",
        "stall cycles (baseline = 1)", data,
    )


@register_figure(
    "fig10_latency_gap",
    "Walk-latency gap, normalised to baseline",
    "Paper Figs. 6/10 — the last-minus-first walk latency gap per "
    "multi-walk instruction, normalised to the baseline scheduler; the "
    "quantity SIMT-aware scheduling exists to shrink.",
    sweep=_paper(IRREGULAR_WORKLOADS),
)
def fig10_latency_gap(data: CampaignData) -> Figure:
    return _normalised_figure(
        "fig10_latency_gap", "latency_gap",
        "latency gap (baseline = 1)", data,
    )


@register_figure(
    "fig11_walk_count",
    "Page walks dispatched, normalised to baseline",
    "Paper Fig. 11 — page-table walks dispatched under each scheduler "
    "relative to baseline; scheduling changes TLB-miss interleaving and "
    "therefore the walk count itself.",
    sweep=_paper(IRREGULAR_WORKLOADS),
)
def fig11_walk_count(data: CampaignData) -> Figure:
    return _normalised_figure(
        "fig11_walk_count", "walks_dispatched",
        "walks dispatched (baseline = 1)", data,
    )


@register_figure(
    "fig12_active_wavefronts",
    "Wavefronts per L2-TLB epoch, normalised to baseline",
    "Paper Fig. 12 — distinct wavefronts touching the shared GPU L2 TLB "
    "per epoch, relative to baseline; fewer means less inter-wavefront "
    "TLB contention, the mechanism behind Fig 11's walk reduction.",
    sweep=_paper(IRREGULAR_WORKLOADS),
)
def fig12_active_wavefronts(data: CampaignData) -> Figure:
    return _normalised_figure(
        "fig12_active_wavefronts", "wavefronts_per_epoch",
        "wavefronts per epoch (baseline = 1)", data,
    )


def _variant_figure(name: str, chart_title: str, data: CampaignData) -> Figure:
    """Shared shape of Figs 13/14: per-workload speedup bars, one per
    campaign (machine variant), plus each variant's GEOMEAN bar."""
    data.require_columns(["total_cycles"], name)
    samples = data.speedup_samples(axis="campaign")
    if not samples:
        raise FigureSkipped("no (workload, seed) pair has a healthy baseline run")
    per_workload: Dict[Tuple[str, str, str], List[float]] = {}
    per_variant: Dict[Tuple[str, str], List[float]] = {}
    for (campaign,), workload, scheduler, speedup in samples:
        per_workload.setdefault((campaign, workload, scheduler), []).append(speedup)
        per_variant.setdefault((campaign, scheduler), []).append(speedup)
    rows = [
        {
            "campaign": campaign,
            "workload": workload,
            "scheduler": scheduler,
            "speedup": _round(geometric_mean(values)),
        }
        for (campaign, workload, scheduler), values in sorted(per_workload.items())
    ]
    for (campaign, scheduler), values in sorted(per_variant.items()):
        rows.append(
            {
                "campaign": campaign,
                "workload": GEOMEAN_LABEL,
                "scheduler": scheduler,
                "speedup": _round(geometric_mean(values)),
            }
        )
    spec = _bar_spec(
        name, chart_title,
        {"field": "speedup", "type": "quantitative",
         "title": f"speedup vs {data.baseline}"},
        "campaign", data.labels,
        x_sort=data.workloads() + [GEOMEAN_LABEL],
    )
    # One row of bars per scheduler, so several never overlap.
    spec["encoding"]["row"] = {
        "field": "scheduler", "type": "nominal", "title": "scheduler",
    }
    return _figure(name, ["campaign", "workload", "scheduler", "speedup"], rows, spec)


@register_figure(
    "fig13_sensitivity",
    "Speedup per L2 TLB × walker variant",
    "Paper Fig. 13a/b/c — SIMT-aware over FCFS with a 1024-entry GPU L2 "
    "TLB, 16 walkers, or both; the win shrinks as translation resources "
    "grow but stays positive.  One campaign per variant.",
    sweep=tuple(
        Campaign(
            label, IRREGULAR_WORKLOADS, FCFS_SIMT,
            lambda config, entries=entries, walkers=walkers: (
                config.with_l2_tlb_entries(entries).with_walkers(walkers)
            ),
        )
        for label, (entries, walkers) in FIG13_VARIANTS.items()
    ),
)
def fig13_sensitivity(data: CampaignData) -> Figure:
    return _variant_figure(
        "fig13_sensitivity", "Fig 13 — speedup per L2 TLB × walker variant", data
    )


@register_figure(
    "fig14_sensitivity",
    "Speedup per IOMMU buffer size",
    "Paper Fig. 14 — SIMT-aware over FCFS with a 128- and a 512-entry "
    "IOMMU buffer (the baseline is 256): the buffer bounds the "
    "scheduler's lookahead, so the win grows with it.  One campaign per "
    "buffer size.",
    sweep=tuple(
        Campaign(
            label, IRREGULAR_WORKLOADS, FCFS_SIMT,
            lambda config, entries=entries: config.with_iommu_buffer(entries),
        )
        for label, entries in FIG14_VARIANTS.items()
    ),
)
def fig14_sensitivity(data: CampaignData) -> Figure:
    return _variant_figure(
        "fig14_sensitivity", "Fig 14 — speedup per IOMMU buffer size", data
    )


@register_figure(
    "translation_overhead",
    "Translation overhead: runtime vs an oracle MMU",
    "Paper §I motivation — each workload's baseline-scheduler runtime "
    "relative to the last campaign (in the paper sweep, an oracle MMU "
    "whose translations are free and never miss): irregular workloads "
    "slow down by multiples, regular ones barely.",
    sweep=(
        Campaign("mmu", ALL_WORKLOADS, ("fcfs",)),
        Campaign(
            "oracle", ALL_WORKLOADS, ("fcfs",),
            lambda config: replace(config, perfect_translation=True),
        ),
    ),
)
def translation_overhead(data: CampaignData) -> Figure:
    data.require_columns(["total_cycles"], "translation_overhead")
    means = data.mean_by("total_cycles", ("campaign", "workload", "scheduler"))
    reference = data.labels[-1]
    rows: List[Dict[str, Any]] = []
    for label in data.labels:
        for workload in data.workloads():
            value = means.get((label, workload, data.baseline))
            base = means.get((reference, workload, data.baseline))
            if value is None or not base:
                continue
            rows.append(
                {
                    "campaign": label,
                    "workload": workload,
                    "mean_total_cycles": _round(value),
                    "slowdown": _round(value / base),
                }
            )
    if not rows:
        raise FigureSkipped(
            f"no {data.baseline} runs to compare with campaign {reference!r}"
        )
    spec = _bar_spec(
        "translation_overhead", "Translation overhead vs an oracle MMU",
        {"field": "slowdown", "type": "quantitative",
         "title": f"runtime vs {reference}"},
        "campaign", data.labels,
    )
    return _figure(
        "translation_overhead",
        ["campaign", "workload", "mean_total_cycles", "slowdown"],
        rows,
        spec,
    )


def _sensitivity_figure(name: str, axis: str, axis_title: str, data: CampaignData) -> Figure:
    data.require_columns([axis, "total_cycles"], name)
    samples = data.speedup_samples(axis=axis)
    if not samples:
        raise FigureSkipped("no (workload, seed) pair has a healthy baseline run")
    grouped: Dict[Tuple[Any, str], List[float]] = {}
    for axis_key, _workload, scheduler, speedup in samples:
        grouped.setdefault((axis_key[0], scheduler), []).append(speedup)
    rows = [
        {
            axis: axis_value,
            "scheduler": scheduler,
            "speedup": _round(geometric_mean(values)),
        }
        for (axis_value, scheduler), values in sorted(
            grouped.items(), key=lambda kv: (str(kv[0][0]), kv[0][1])
        )
    ]
    schedulers = sorted({row["scheduler"] for row in rows})
    spec = base_spec(name, FIGURES[name].title)
    spec["mark"] = {"type": "line", "point": {"filled": True, "size": 70}, "strokeWidth": 2}
    spec["encoding"] = {
        "color": scheduler_color(schedulers),
        "x": {"field": axis, "type": "ordinal", "title": axis_title},
        "y": {
            "field": "speedup",
            "type": "quantitative",
            "title": f"geomean speedup vs {data.baseline}",
        },
    }
    return _figure(name, [axis, "scheduler", "speedup"], rows, spec)


@register_figure(
    "sensitivity_wavefronts",
    "Sensitivity: geomean speedup vs wavefront count",
    "Geomean speedup per scheduler over the campaigns' wavefront counts "
    "as concurrency grows; feed several campaign reports to widen the "
    "axis.",
)
def sensitivity_wavefronts(data: CampaignData) -> Figure:
    return _sensitivity_figure(
        "sensitivity_wavefronts", "wavefronts", "wavefronts per run", data
    )


@register_figure(
    "sensitivity_scale",
    "Sensitivity: geomean speedup vs footprint scale",
    "Geomean speedup per scheduler over the campaigns' workload footprint "
    "scales; feed several campaign reports to widen the axis.",
)
def sensitivity_scale(data: CampaignData) -> Figure:
    return _sensitivity_figure(
        "sensitivity_scale", "scale", "workload scale", data
    )


@register_figure(
    "scheduler_comparison",
    "Normalised runtime heatmap, workload × scheduler",
    "Generic scheduler-comparison chart for any policy zoo: mean total "
    "cycles normalised to the baseline scheduler per workload (lower / "
    "lighter is better), one cell per workload × scheduler.",
)
def scheduler_comparison(data: CampaignData) -> Figure:
    data.require_columns(["total_cycles"], "scheduler_comparison")
    means = data.mean_by("total_cycles", ("workload", "scheduler"))
    rows: List[Dict[str, Any]] = []
    for workload in data.workloads():
        base = means.get((workload, data.baseline))
        if not base:
            continue
        for scheduler in data.schedulers():
            value = means.get((workload, scheduler))
            if value is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "scheduler": scheduler,
                    "mean_total_cycles": _round(value),
                    "normalised_runtime": _round(value / base),
                }
            )
    if not rows:
        raise FigureSkipped("no workload has a baseline run to normalise against")
    spec = base_spec("scheduler_comparison", "Scheduler comparison — normalised runtime")
    spec["mark"] = {"type": "rect"}
    spec["encoding"] = {
        "color": {
            "field": "normalised_runtime",
            "type": "quantitative",
            "title": "runtime vs baseline",
            "scale": {"range": list(SEQUENTIAL_RANGE)},
        },
        "x": {"field": "scheduler", "type": "nominal", "sort": data.schedulers()},
        "y": {"field": "workload", "type": "nominal", "sort": data.workloads()},
    }
    return _figure(
        "scheduler_comparison",
        ["workload", "scheduler", "mean_total_cycles", "normalised_runtime"],
        rows,
        spec,
    )


@register_figure(
    "zoo_walk_traffic",
    "Walk traffic vs baseline, per scheduler family",
    "Scheduler-zoo comparison chart: page-walk memory accesses per "
    "workload normalised to the baseline scheduler.  The zoo families "
    "move this in opposite directions — WaSP's distance-ahead prefetch "
    "adds speculative walks, IRU's pending-buffer reordering merges "
    "divergent same-page walks away, and Mosaic's region TLB bypasses "
    "the walk machinery entirely — so traffic, not runtime, is where "
    "the families are told apart.",
)
def zoo_walk_traffic(data: CampaignData) -> Figure:
    data.require_columns(["walk_memory_accesses"], "zoo_walk_traffic")
    means = data.mean_by("walk_memory_accesses", ("workload", "scheduler"))
    rows: List[Dict[str, Any]] = []
    for workload in data.workloads():
        base = means.get((workload, data.baseline))
        if not base:
            continue
        for scheduler in data.schedulers():
            value = means.get((workload, scheduler))
            if value is None:
                continue
            rows.append(
                {
                    "workload": workload,
                    "scheduler": scheduler,
                    "mean_walk_accesses": _round(value),
                    "normalised_traffic": _round(value / base),
                }
            )
    if not rows:
        raise FigureSkipped(
            "no workload has a baseline run to normalise walk traffic against"
        )
    spec = _bar_spec(
        "zoo_walk_traffic", "Zoo — walk traffic vs baseline",
        {"field": "normalised_traffic", "type": "quantitative",
         "title": f"walk accesses vs {data.baseline}"},
        "scheduler", data.schedulers(), x_sort=data.workloads(),
    )
    return _figure(
        "zoo_walk_traffic",
        ["workload", "scheduler", "mean_walk_accesses", "normalised_traffic"],
        rows,
        spec,
    )


@register_figure(
    "latency_cdf",
    "Walk-latency CDF per scheduler",
    "Cumulative distribution of per-walk completion latency from the "
    "merged metrics histograms (campaigns run with --metrics); the "
    "bucketed CDF exported by BucketHistogram.cdf_points.",
)
def latency_cdf(data: CampaignData) -> Figure:
    histograms = data.scheduler_histogram("walk.latency_cycles")
    if not histograms:
        raise FigureSkipped(
            "no walk.latency_cycles histograms in the report — rerun the "
            "campaign with --metrics"
        )
    rows: List[Dict[str, Any]] = []
    for scheduler, histogram in sorted(histograms.items()):
        for upper, fraction in histogram.cdf_points():
            rows.append(
                {
                    "scheduler": scheduler,
                    "latency_cycles": upper,
                    "cdf": _round(fraction),
                }
            )
    spec = base_spec("latency_cdf", "Walk-latency CDF")
    spec["mark"] = {"type": "line", "interpolate": "monotone", "strokeWidth": 2}
    spec["encoding"] = {
        "color": scheduler_color(sorted(histograms)),
        "x": {
            "field": "latency_cycles",
            "type": "quantitative",
            "title": "walk latency (cycles)",
        },
        "y": {
            "field": "cdf",
            "type": "quantitative",
            "title": "fraction of walks",
            "scale": {"domain": [0, 1]},
        },
    }
    return _figure(
        "latency_cdf", ["scheduler", "latency_cycles", "cdf"], rows, spec
    )


def _stage_color(stages: Sequence[str]) -> Dict[str, Any]:
    """Fixed stage → palette-slot assignment, in pipeline order.

    Unlike :func:`scheduler_color` the domain is the attribution stage
    taxonomy (``repro.obs.attrib.STAGES``), ordered as the walk pipeline
    runs, so 'queue_wait' wears the same hue in every blame chart.
    """
    from repro.obs.attrib import STAGES

    domain = [stage for stage in STAGES if stage in set(stages)]
    return {
        "field": "stage",
        "type": "nominal",
        "title": "stage",
        "scale": {
            "domain": domain,
            "range": [
                CATEGORICAL_PALETTE[STAGES.index(stage) % len(CATEGORICAL_PALETTE)]
                for stage in domain
            ],
        },
    }


def _blame_summary(data: CampaignData, figure: str) -> Dict[str, Dict[str, Any]]:
    from repro.obs.attrib import stage_summary

    summary = stage_summary(data.metrics_by_scheduler)
    if not summary:
        raise FigureSkipped(
            f"no walk.stage.* counters in the report — rerun the campaign "
            f"with --metrics (figure {figure})"
        )
    return summary


@register_figure(
    "blame_stage_share",
    "Walk-latency blame: stage share per scheduler",
    "Where walk cycles went under each scheduler — the always-on "
    "walk.stage.* counters stacked as shares of total attributed cycles "
    "(paper Figs. 9-11 territory: queueing delay vs DRAM service vs "
    "overflow wait). Tracing-free; any --metrics campaign has it.",
)
def blame_stage_share(data: CampaignData) -> Figure:
    from repro.obs.attrib import STAGES

    summary = _blame_summary(data, "blame_stage_share")
    rows: List[Dict[str, Any]] = []
    for scheduler in sorted(summary):
        entry = summary[scheduler]
        for order, stage in enumerate(STAGES):
            if stage not in entry["stage_cycles"]:
                continue
            rows.append(
                {
                    "scheduler": scheduler,
                    "stage": stage,
                    "order": order,
                    "cycles": entry["stage_cycles"][stage],
                    "share": _round(entry["stage_shares"][stage]),
                }
            )
    spec = base_spec("blame_stage_share", "Blame — walk-stage shares")
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": _stage_color([row["stage"] for row in rows]),
        "order": {"field": "order", "type": "quantitative"},
        "x": {
            "field": "scheduler",
            "type": "nominal",
            "sort": sorted(summary),
            "title": "scheduler",
        },
        "y": {
            "field": "share",
            "type": "quantitative",
            "title": "share of attributed walk cycles",
            "scale": {"domain": [0, 1]},
        },
    }
    return _figure(
        "blame_stage_share",
        ["scheduler", "stage", "order", "cycles", "share"],
        rows,
        spec,
    )


@register_figure(
    "blame_waterfall",
    "Walk-latency blame: per-walk critical-path waterfall",
    "The mean walk's life as a waterfall: cumulative cycles per stage in "
    "pipeline order (created -> overflow wait -> scheduler queue -> DRAM "
    "bank queue -> row access -> fault pad -> delivery hold), one track "
    "per scheduler. Stage widths are walk.stage.* cycles divided by "
    "completed walks.",
)
def blame_waterfall(data: CampaignData) -> Figure:
    from repro.obs.attrib import STAGES

    summary = _blame_summary(data, "blame_waterfall")
    rows: List[Dict[str, Any]] = []
    for scheduler in sorted(summary):
        entry = summary[scheduler]
        per_walk = entry.get("per_walk")
        if not per_walk:
            continue
        cursor = 0.0
        for order, stage in enumerate(STAGES):
            width = per_walk.get(stage)
            if width is None:
                continue
            rows.append(
                {
                    "scheduler": scheduler,
                    "stage": stage,
                    "order": order,
                    "start": _round(cursor),
                    "end": _round(cursor + width),
                    "cycles": _round(width),
                }
            )
            cursor += width
    if not rows:
        raise FigureSkipped(
            "no iommu.walks_completed counter to normalise per walk — "
            "rerun the campaign with --metrics"
        )
    spec = base_spec("blame_waterfall", "Blame — mean-walk stage waterfall")
    spec["mark"] = {"type": "bar"}
    spec["encoding"] = {
        "color": _stage_color([row["stage"] for row in rows]),
        "x": {
            "field": "start",
            "type": "quantitative",
            "title": "cycles into the mean walk",
        },
        "x2": {"field": "end"},
        "y": {
            "field": "scheduler",
            "type": "nominal",
            "sort": sorted(summary),
            "title": "scheduler",
        },
    }
    return _figure(
        "blame_waterfall",
        ["scheduler", "stage", "order", "start", "end", "cycles"],
        rows,
        spec,
    )


# ----------------------------------------------------------------------
# Validation, generation, emission
# ----------------------------------------------------------------------


def _encoding_fields(spec_or_layer: Mapping[str, Any]) -> List[str]:
    fields = []
    for channel in spec_or_layer.get("encoding", {}).values():
        field_name = channel.get("field") if isinstance(channel, Mapping) else None
        if field_name:
            fields.append(field_name)
    return fields


def validate_figure(figure: Figure) -> List[str]:
    """Structural validity of one figure; returns problems (empty = ok).

    Not a full Vega-Lite schema check (that needs the JS toolchain) but
    everything the pipeline can get wrong: envelope fields, the CSV
    url/spec name agreement, marks present, and every encoded field
    actually existing in the emitted columns.
    """
    problems: List[str] = []
    spec = figure.spec
    if spec.get("$schema") != VEGA_LITE_SCHEMA:
        problems.append("spec $schema is not Vega-Lite v5")
    data = spec.get("data", {})
    if data.get("url") != f"{figure.name}.csv":
        problems.append(f"spec data.url must be {figure.name}.csv")
    units = spec.get("layer", [spec])
    for unit in units:
        if "mark" not in unit:
            problems.append("spec unit has no mark")
        for field_name in _encoding_fields(unit):
            if field_name not in figure.columns:
                problems.append(
                    f"encoded field {field_name!r} missing from CSV columns"
                )
    if not figure.rows:
        problems.append("figure has no data rows")
    for row in figure.rows:
        for column in row:
            if column not in figure.columns:
                problems.append(f"row key {column!r} missing from columns")
                break
    return problems


def build_figures(
    data: CampaignData, names: Optional[Sequence[str]] = None
) -> Tuple[List[Figure], Dict[str, str]]:
    """Run the registry; returns (built figures, skipped name → reason)."""
    selected = list(names) if names else figure_names()
    unknown = [name for name in selected if name not in FIGURES]
    if unknown:
        raise ValueError(
            f"unknown figure(s) {', '.join(unknown)}; "
            f"known: {', '.join(figure_names())}"
        )
    figures: List[Figure] = []
    skipped: Dict[str, str] = {}
    for name in selected:
        try:
            figures.append(FIGURES[name].build(data))
        except FigureSkipped as why:
            skipped[name] = str(why)
    return figures, skipped


def paper_figure(name: str) -> FigureDef:
    """The registry entry of a paper figure, by its name or by the
    ``figN`` prefix of its name (``fig8`` → ``fig8_speedup``)."""
    if name in FIGURES and not FIGURES[name].sweep:
        raise ValueError(
            f"figure {name!r} has no paper sweep; draw it from campaign "
            f"reports with `python -m repro report`"
        )
    matches = [
        definition for figure_name, definition in FIGURES.items()
        if definition.sweep
        and (figure_name == name or figure_name.startswith(f"{name}_"))
    ]
    if len(matches) != 1:
        raise ValueError(
            f"unknown figure {name!r}; paper figures: "
            + ", ".join(n for n, d in FIGURES.items() if d.sweep)
        )
    return matches[0]


def run_figure(
    name: str,
    scale: float = DEFAULT_SCALE,
    num_wavefronts: int = DEFAULT_WAVEFRONTS,
    seed: int = 0,
    config: Optional[SystemConfig] = None,
    jobs: Optional[int] = None,
    checkpoint: Optional[str] = None,
) -> Figure:
    """Run a paper figure's sweep on ``config`` and build the figure.

    Every campaign's specs go through one
    :func:`~repro.experiments.runner.run_many_resilient` call, so
    ``jobs`` workers share the whole sweep; each campaign is then folded
    with :func:`~repro.obs.aggregate.fleet_report` against the figure's
    baseline scheduler.  ``checkpoint`` names a
    :class:`~repro.resilience.outcomes.CheckpointStore` directory: specs
    already stored there — by this figure or any other — are loaded
    instead of simulated.  A failed spec raises
    :class:`~repro.resilience.outcomes.SpecExecutionError`: a paper
    figure is never drawn from a partial sweep.
    """
    # The runner imports repro.obs, so it is imported here, not at the top.
    from repro.experiments.runner import SpecExecutionError, run_many_resilient

    definition = paper_figure(name)
    campaigns = [
        (campaign.label, campaign.specs(scale, num_wavefronts, seed, config))
        for campaign in definition.sweep
    ]
    specs = [spec for _label, batch in campaigns for spec in batch]
    outcomes = run_many_resilient(specs, jobs=jobs, checkpoint=checkpoint)
    for outcome in outcomes:
        if not outcome.ok:
            raise SpecExecutionError(outcome)
    reports = []
    start = 0
    for label, batch in campaigns:
        batch_outcomes = outcomes[start:start + len(batch)]
        start += len(batch)
        reports.append(
            (label, fleet_report(batch, batch_outcomes, definition.baseline))
        )
    data = CampaignData.from_reports(reports, baseline=definition.baseline)
    return definition.build(data)


def emit_figures(
    data: CampaignData,
    figures: Sequence[Figure],
    skipped: Mapping[str, str],
    out_dir: Union[str, Path],
) -> Dict[str, Any]:
    """Validate and write built figures; returns the manifest.

    Writes ``<name>.vl.json`` + ``<name>.csv`` per figure and one
    ``figures.json`` manifest listing what was written, what was
    skipped and why — the HTML report and the CI job both read it.
    Any structural validation problem raises :class:`ValueError`
    before a file is written.
    """
    for figure in figures:
        problems = validate_figure(figure)
        if problems:
            raise ValueError(
                f"figure {figure.name} failed validation: {'; '.join(problems)}"
            )
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: List[Dict[str, Any]] = []
    for figure in figures:
        spec_path = out_dir / f"{figure.name}.vl.json"
        csv_path = out_dir / f"{figure.name}.csv"
        spec_path.write_text(figure.spec_json())
        csv_path.write_text(figure.csv())
        written.append(
            {
                "name": figure.name,
                "title": figure.title,
                "rows": len(figure.rows),
                "spec": spec_path.name,
                "csv": csv_path.name,
                "problems": [],
            }
        )
    manifest = {
        "format": "repro-figures",
        "version": 1,
        "baseline": data.baseline,
        "campaigns": list(data.labels),
        "figures": written,
        "skipped": dict(sorted(skipped.items())),
    }
    (out_dir / "figures.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n"
    )
    return manifest


# ----------------------------------------------------------------------
# Input loading (CLI + service merge)
# ----------------------------------------------------------------------


def load_campaign_input(path: Union[str, Path]) -> Tuple[str, Dict[str, Any], Optional[Dict[str, Any]]]:
    """Resolve one CLI input into ``(label, report, manifest-or-None)``.

    Accepts either a campaign directory (reads
    ``report/fleet_report.json`` as written by ``repro service merge``,
    plus ``manifest.json`` for the attempt audit) or a bare fleet
    report JSON file (as written by ``repro fleet-report``).
    """
    path = Path(path)
    if path.is_dir():
        report_path = path / "report" / "fleet_report.json"
        if not report_path.exists():
            raise FileNotFoundError(
                f"{report_path} not found — run `python -m repro service "
                f"merge {path}` first (or pass a fleet_report.json file)"
            )
        report = json.loads(report_path.read_text())
        manifest_path = path / "manifest.json"
        manifest = (
            json.loads(manifest_path.read_text())
            if manifest_path.exists() else None
        )
        return path.name, report, manifest
    report = json.loads(path.read_text())
    return path.stem, report, None
