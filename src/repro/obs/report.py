"""Deterministic run reports (``repro report``).

Folds one observed serving run — or a flight-recorder bundle from a past
run — into a single markdown (optionally HTML-wrapped) document: workload
summary, per-device occupancy, per-link interconnect accounting, expert
heat windows, MoE-CAP sparse-vs-dense utilization, SLO budgets, alerts
and a metrics digest.

Every emitter here is **byte-stable**: numbers render at fixed precision,
iteration order is explicit, and nothing reads the host clock or
environment — re-running the same seeded workload must reproduce the
report byte-for-byte (``repro gate`` replays the ``--slo-gate`` report
and the burn-rate scenario's JSON report in every execution mode).
"""

from __future__ import annotations

import html
import json
import pathlib
from typing import Any, TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.instrument import Instrumentation
    from repro.serving.engine import ServingResult

__all__ = [
    "render_run_report",
    "render_scenario_report",
    "render_bundle_report",
    "report_html",
    "BUNDLE_FILES",
]

#: Flight-recorder bundle files a report folds, in render order.
BUNDLE_FILES: tuple[str, ...] = (
    "alert.json", "slo.json", "cluster.json", "routing.json",
    "metrics.json", "events.json",
)

_MAX_WINDOW_ROWS = 12
_MAX_METRIC_ROWS = 40


def _f(x: float) -> str:
    """Fixed-precision float rendering (byte-stable, locale-free)."""
    return format(float(x), ".6g")


def _table(header: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join("---" for _ in header) + "|"]
    lines.extend("| " + " | ".join(r) + " |" for r in rows)
    return lines


def _section_serving(result: "ServingResult") -> list[str]:
    finished = sum(1 for r in result.requests if r.finish_time is not None)
    return [
        "## Serving summary", "",
        *_table(
            ["metric", "value"],
            [
                ["requests", str(len(result.requests))],
                ["finished", str(finished)],
                ["makespan", f"{_f(result.makespan)} s"],
                ["throughput", f"{_f(result.throughput_tok_s)} tok/s"],
                ["mean TTFT", f"{_f(result.mean_ttft())} s"],
                ["p99 TTFT", f"{_f(result.p99_ttft())} s"],
                ["p99 E2E", f"{_f(result.p99_e2e())} s"],
                ["preemptions", str(result.num_preemptions)],
            ],
        ), "",
    ]


def _section_cluster(summary: dict[str, Any]) -> list[str]:
    """Device/link/heat/utilization sections from a cluster summary dict
    (live ``ClusterTelemetry.summary()`` or a bundle's ``cluster.json``)."""
    lines: list[str] = []
    occ = summary["occupancy"]
    active = occ["busy_s"] + occ["comm_blocked_s"]
    denom = active + occ["idle_s"]
    lines += [
        "## Device occupancy", "",
        f"{summary['devices']} lockstep device(s), plan `{summary['plan']}` "
        f"on {summary['hardware']}; {int(occ['iterations'])} engine "
        f"iterations.", "",
        *_table(
            ["devices", "busy (s)", "comm-blocked (s)", "idle (s)",
             "busy fraction"],
            [[str(summary["devices"]), _f(occ["busy_s"]),
              _f(occ["comm_blocked_s"]), _f(occ["idle_s"]),
              _f(occ["busy_s"] / denom) if denom > 0 else "0"]],
        ), "",
    ]
    links = summary.get("links", {})
    lines += ["## Interconnect", ""]
    if not links:
        lines += ["Single-device deployment: no interconnect links.", ""]
    else:
        rows = [
            [name, spec["fabric"], _f(spec["capacity_gbps"]),
             _f(spec["bytes_total"]), _f(spec["busy_seconds"]),
             f"{spec['utilization']:.4f}"]
            for name, spec in sorted(links.items())
        ]
        lines += _table(
            ["link", "fabric", "capacity (GB/s)", "bytes", "busy (s)",
             "utilization"], rows) + [""]
    heat = summary.get("expert_heat", {})
    lines += [
        "## Expert heat", "",
        f"{heat.get('windows', 0)} closed window(s) of "
        f"{_f(summary['window_s'])} s "
        f"({heat.get('non_empty_windows', 0)} with routed tokens); peak "
        f"max/mean imbalance {_f(heat.get('peak_imbalance', 0.0))}, last "
        f"non-empty Gini {_f(heat.get('last_gini', 0.0))}.", "",
    ]
    util = summary.get("utilization", {})
    if util:
        lines += [
            "## Utilization (MoE-CAP)", "",
            *_table(
                ["gauge", "dense", "sparse"],
                [["MFU", f"{util['dense_mfu']:.5f}",
                  f"{util['sparse_mfu']:.5f}"],
                 ["MBU", f"{util['dense_mbu']:.5f}",
                  f"{util['sparse_mbu']:.5f}"]],
            ), "",
            "Dense MFU/MBU score the run as if every expert computed and "
            "streamed each step; the sparse gauges count only activated "
            "experts and coverage-scaled weight traffic (MoE-CAP, "
            "arXiv 2505.11415) — the dense numbers overstate how close a "
            "MoE deployment is to its roofline.", "",
        ]
    return lines


def _section_waterfall(cluster) -> list[str]:
    """Per-window comm waterfall from live telemetry (capped rows)."""
    if not cluster.links or not cluster.link_windows:
        return []
    names = list(cluster.links)
    rows = []
    shown = cluster.link_windows[:_MAX_WINDOW_ROWS]
    for idx, util in enumerate(shown):
        rows.append([str(idx), _f(idx * cluster.window_s)] +
                    [f"{util.get(n, 0.0):.4f}" for n in names])
    lines = ["### Comm waterfall", "",
             *_table(["window", "t_start (s)"] + names, rows)]
    hidden = len(cluster.link_windows) - len(shown)
    if hidden > 0:
        lines.append(f"\n… {hidden} more window(s) elided.")
    return lines + [""]


def _section_heat_windows(cluster) -> list[str]:
    if not cluster.windows:
        return []
    rows = []
    for w in cluster.windows[:_MAX_WINDOW_ROWS]:
        rows.append([str(w.index), _f(w.t_start), str(w.tokens),
                     _f(w.gini), _f(w.imbalance)])
    lines = ["### Heat windows", "",
             *_table(["window", "t_start (s)", "tokens", "gini",
                      "max/mean"], rows)]
    hidden = len(cluster.windows) - min(len(cluster.windows),
                                        _MAX_WINDOW_ROWS)
    if hidden > 0:
        lines.append(f"\n… {hidden} more window(s) elided.")
    return lines + [""]


def _section_slo(report: dict[str, Any]) -> list[str]:
    budgets = report.get("budgets", [])
    if not budgets:
        return []
    rows = []
    for b in budgets:
        rows.append([
            str(b.get("slo", "?")),
            str(b.get("objective", "")),
            str(b.get("bad", "")), str(b.get("total", "")),
            _f(b.get("attainment", 0.0)),
            _f(b.get("budget_consumed", 0.0)),
        ])
    return ["## SLO budgets", "",
            *_table(["SLO", "objective", "bad", "total", "attainment",
                     "budget consumed"], rows), ""]


def _section_alerts(alerts: list[dict[str, Any]]) -> list[str]:
    lines = ["## Alerts", ""]
    if not alerts:
        return lines + ["No alerts fired.", ""]
    for a in alerts:
        lines.append(f"- `{a['rule']}` at t={_f(a['time'])}s — "
                     f"{a['message']}")
    return lines + [""]


def _section_metrics(snapshot: dict[str, Any]) -> list[str]:
    """Counters and gauges (histograms are summarised) from a metrics
    snapshot (``MetricsRegistry.snapshot()`` / ``metrics.json``), sorted
    by name then labels."""
    rows: list[list[str]] = []
    entries = sorted(snapshot.get("metrics", []),
                     key=lambda e: (e["name"], sorted(e["labels"].items())))
    for entry in entries:
        labels = ",".join(f"{k}={v}" for k, v in
                          sorted(entry["labels"].items()))
        if entry["kind"] == "histogram":
            value = (f"count={entry['count']} "
                     f"sum={_f(entry['sum'])}")
        else:
            value = _f(entry["value"])
        rows.append([entry["name"], labels, entry["kind"], value])
    hidden = len(rows) - _MAX_METRIC_ROWS
    rows = rows[:_MAX_METRIC_ROWS]
    lines = ["## Metrics", "",
             *_table(["metric", "labels", "kind", "value"], rows)]
    if hidden > 0:
        lines.append(f"\n… {hidden} more metric(s) elided.")
    return lines + [""]


def render_run_report(result: "ServingResult", obs: "Instrumentation",
                      title: str = "Run report") -> str:
    """One observed engine run as deterministic markdown."""
    lines: list[str] = [f"# {title}", ""]
    lines += _section_serving(result)
    if obs.cluster is not None:
        lines += _section_cluster(obs.cluster.summary())
        lines += _section_waterfall(obs.cluster)
        lines += _section_heat_windows(obs.cluster)
    if obs.slo is not None:
        lines += _section_slo(obs.slo.report(result.makespan))
    if obs.alerts is not None:
        lines += _section_alerts(obs.alerts.summary())
    lines += _section_metrics(obs.metrics.snapshot())
    return "\n".join(lines).rstrip("\n") + "\n"


def render_scenario_report(scenario: dict[str, Any],
                           bundle_root: pathlib.Path | None = None,
                           title: str = "SLO gate run report") -> str:
    """The ``run_slo_scenario`` dict (plus its flight-recorder bundles)
    as deterministic markdown — the CI slo-gate artifact."""
    lines = [f"# {title}", "",
             f"Scenario `{scenario['scenario']}`, budget hour "
             f"{_f(scenario['hour_s'])} s.", "",
             "## Objectives", ""]
    lines += [f"- {s}" for s in scenario["slos"]] + [""]
    summary = scenario.get("summary", {})
    if summary:
        rows = [[str(k), _f(v) if isinstance(v, float) else str(v)]
                for k, v in sorted(summary.items())]
        lines += ["## Chaos run", "", *_table(["metric", "value"], rows), ""]
    lines += _section_slo(scenario)
    lines += _section_alerts(scenario.get("alerts", []))
    if "cluster" in scenario:
        lines += _section_cluster(scenario["cluster"])
    if bundle_root is not None:
        bundles = sorted(p for p in bundle_root.iterdir() if p.is_dir())
        for bundle in bundles:
            lines += ["---", ""]
            lines += render_bundle_report(
                bundle, title=f"Flight recorder: {bundle.name}"
            ).splitlines()
            lines += [""]
    return "\n".join(lines).rstrip("\n") + "\n"


def render_bundle_report(bundle_dir: str | pathlib.Path,
                         title: str | None = None) -> str:
    """A flight-recorder bundle directory as deterministic markdown.

    Renders whichever of the known bundle files exist; paths never leak
    into the output (only the bundle's basename), so a report built from
    a bundle in a temp directory is byte-stable across runs.
    """
    bundle = pathlib.Path(bundle_dir)
    if not bundle.is_dir():
        raise FileNotFoundError(f"no flight-recorder bundle at {bundle}")
    name = title if title is not None else f"Flight recorder: {bundle.name}"
    lines: list[str] = [f"# {name}", ""]

    def _load(fname: str) -> Any | None:
        path = bundle / fname
        if not path.exists():
            return None
        return json.loads(path.read_text())

    alert = _load("alert.json")
    if alert is not None:
        lines += ["## Alert", "",
                  f"- rule: `{alert['rule']}`",
                  f"- simulated time: {_f(alert['time'])} s",
                  f"- {alert['message']}", ""]
    slo = _load("slo.json")
    if slo is not None:
        lines += _section_slo(slo)
    cluster = _load("cluster.json")
    if cluster is not None:
        lines += _section_cluster(cluster)
    routing = _load("routing.json")
    if routing is not None:
        rows = [[str(k), _f(v) if isinstance(v, float) else str(v)]
                for k, v in sorted(routing.items())
                if not isinstance(v, (list, dict))]
        if rows:
            lines += ["## Expert routing", "",
                      *_table(["metric", "value"], rows), ""]
    metrics = _load("metrics.json")
    if metrics is not None:
        lines += _section_metrics(metrics)
    events = _load("events.json")
    if events is not None:
        lines += [
            "## Event tail", "",
            f"{len(events)} event(s) captured before the alert; last "
            f"simulated timestamp "
            f"{_f(events[-1]['time']) if events else '0'} s.", "",
        ]
    return "\n".join(lines).rstrip("\n") + "\n"


_HTML_TEMPLATE = """<!DOCTYPE html>
<html lang="en">
<head>
<meta charset="utf-8">
<title>{title}</title>
<style>
body {{ font: 14px/1.5 system-ui, sans-serif; max-width: 60rem;
       margin: 2rem auto; padding: 0 1rem; color: #1a1a2e; }}
pre {{ background: #f6f8fa; padding: 1rem; overflow-x: auto; }}
</style>
</head>
<body>
<pre>{body}</pre>
</body>
</html>
"""


def report_html(markdown: str, title: str = "repro run report") -> str:
    """Minimal dependency-free HTML wrapper around a markdown report.

    Deliberately renders the markdown verbatim inside ``<pre>`` — no
    markdown engine is vendored, and a byte-stable wrapper matters more
    here than typography.
    """
    return _HTML_TEMPLATE.format(title=html.escape(title),
                                 body=html.escape(markdown))
