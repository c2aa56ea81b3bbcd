"""Observability lints (OBS0xx).

The metrics registry and the span tracer only stay trustworthy if two
conventions hold everywhere:

* **OBS001** — every metric name carries a unit suffix from the UNIT
  vocabulary (``_seconds``, ``_tok_s``, ``_bytes``, ...) or a Prometheus
  dimensionless suffix (``_total``, ``_ratio``, ``_utilization``, ...).
  A bare ``ttft`` or ``queue_wait`` metric is a unit bug waiting to
  happen: dashboards and burn-rate math cannot tell milliseconds from
  seconds once the name is loose in a time series.
* **OBS002** — spans emitted inside the simulated serving stack
  (``repro.serving``, ``repro.faults``, and the cluster-telemetry module
  that derives device/link timelines from it) must stamp *simulated*
  time: the
  timestamp argument must be an expression over the engine clock
  (``self.clock``, ``obs.now``, ...), never a wall-clock read and never a
  hard-coded literal, and the tracer's ``wall_span`` channel is off
  limits there.  DET001 already bans host-clock reads wholesale; OBS002
  additionally pins the *span timestamp slot* so a wall read can't sneak
  in through an allowlisted helper or a literal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.core import (
    Rule,
    SourceFile,
    Violation,
    dotted_name,
    import_aliases,
    register_rule,
    resolve_call,
)
from repro.lint.determinism import _WALL_CALLS
from repro.lint.units import SUFFIX_UNITS

__all__ = ["MetricUnitSuffixRule", "SimClockSpanRule", "ALLOWED_SUFFIXES"]

#: Prometheus-convention dimensionless suffixes, allowed in addition to
#: the UNIT vocabulary's physical-unit suffixes.
_DIMENSIONLESS_SUFFIXES: tuple[str, ...] = (
    "_total", "_seconds", "_ratio", "_fraction", "_utilization", "_count",
    "_info",
)

ALLOWED_SUFFIXES: tuple[str, ...] = tuple(
    sorted({s for s, _ in SUFFIX_UNITS} | set(_DIMENSIONLESS_SUFFIXES),
           key=lambda s: (-len(s), s)))
"""Every suffix a metric name may end with, longest first."""

#: registry factory methods whose first argument is a metric name
_METRIC_FACTORIES = ("counter", "gauge", "histogram")


def _is_metrics_receiver(name: str) -> bool:
    """``obs.metrics.counter`` / ``self.metrics.gauge`` /
    ``registry.histogram`` — the chain must go through a metrics registry,
    which keeps Chrome trace counters (``obs.tracer.counter``) out of
    scope."""
    parts = name.split(".")
    if len(parts) < 2 or parts[-1] not in _METRIC_FACTORIES:
        return False
    receiver = parts[-2]
    return receiver in ("metrics", "registry") or \
        receiver.endswith("_metrics") or receiver.endswith("_registry")


@register_rule
class MetricUnitSuffixRule(Rule):
    id = "OBS001"
    name = "metric-unit-suffix"
    severity = "error"
    description = (
        "metric name without a unit suffix: every registry metric must "
        "end in a UNIT-vocabulary suffix (_seconds, _tok_s, _bytes, ...) "
        "or a dimensionless one (_total, _ratio, _utilization, ...)"
    )
    include = ("src/repro",)

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        for node in sf.nodes:
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None or not _is_metrics_receiver(name):
                continue
            if not node.args:
                continue
            first = node.args[0]
            if not (isinstance(first, ast.Constant)
                    and isinstance(first.value, str)):
                continue  # dynamic names can't be checked statically
            metric = first.value
            if any(metric.endswith(suffix) for suffix in ALLOWED_SUFFIXES):
                continue
            yield sf.violation(
                self, node,
                f"metric {metric!r} has no unit suffix; name it with a "
                f"UNIT-vocabulary suffix (e.g. {metric}_seconds, "
                f"{metric}_total) so its dimension travels with the "
                f"time series",
            )


#: tracer methods taking a timestamp, with the positional index of ``ts``
_SPAN_METHODS = {"begin": 1, "instant": 1, "counter": 1, "end": 0}


def _is_tracer_receiver(name: str) -> bool:
    parts = name.split(".")
    return len(parts) >= 2 and parts[-2] == "tracer" \
        or len(parts) == 2 and parts[0] in ("tracer", "t")


def _ts_argument(node: ast.Call, method: str) -> ast.AST | None:
    for kw in node.keywords:
        if kw.arg == "ts":
            return kw.value
    index = _SPAN_METHODS[method]
    if len(node.args) > index:
        return node.args[index]
    return None


@register_rule
class SimClockSpanRule(Rule):
    id = "OBS002"
    name = "sim-clock-span"
    severity = "error"
    description = (
        "span timestamp inside repro.serving/repro.faults (and the "
        "cluster telemetry derived from them) must be the simulated "
        "clock: no wall-clock reads, no hard-coded literals, no "
        "wall_span channel"
    )
    # obs/cluster.py sits in the obs layer but its device lanes and link
    # counters are *simulated-time* series — it gets the same clock pin
    # as the serving stack it mirrors, while the rest of repro.obs keeps
    # ownership of the wall channel.
    include = ("src/repro/serving/", "src/repro/faults/",
               "src/repro/obs/cluster.py")

    def check(self, sf: SourceFile) -> Iterator[Violation]:
        aliases = import_aliases(sf)
        for node in sf.nodes:
            if isinstance(node, ast.Attribute) and node.attr == "wall_span":
                yield sf.violation(
                    self, node,
                    "wall_span stamps host time; simulated serving code "
                    "must emit spans on the simulated clock",
                )
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            parts = name.split(".")
            method = parts[-1]
            if method not in _SPAN_METHODS or not _is_tracer_receiver(name):
                continue
            ts = _ts_argument(node, method)
            if ts is None:
                continue  # no timestamp passed: a TypeError, not our beat
            if isinstance(ts, ast.Constant):
                yield sf.violation(
                    self, ts,
                    f"span timestamp of {name}() is the literal "
                    f"{ts.value!r}; pass the simulated clock "
                    f"(engine.clock / obs.now)",
                )
                continue
            for sub in ast.walk(ts):
                if isinstance(sub, ast.Call) and \
                        resolve_call(sub, aliases) in _WALL_CALLS:
                    yield sf.violation(
                        self, sub,
                        f"span timestamp of {name}() reads the host clock "
                        f"({resolve_call(sub, aliases)}); pass the "
                        f"simulated clock instead",
                    )
