"""Alert rules over live engine state, with flight-recorder bundles.

An :class:`AlertMonitor` hangs off the :class:`Instrumentation` handle and
is consulted by the serving engine once per iteration and once at run end.
Each :class:`AlertRule` watches one pathology the paper's serving
experiments actually exhibit:

* :class:`ExpertImbalanceRule` — the rolling expert-load imbalance from the
  routing probe crosses a max/mean threshold (hot experts).
* :class:`PreemptionStormRule` — too many preemption events inside a
  sliding simulated-time window (KV thrash / recompute livelock).
* :class:`KvHighWaterRule` — the paged KV cache crosses a utilization
  high-water mark.
* :class:`EmptyPercentileRule` — the run produced iterations but no
  percentile-able latency samples (every percentile would raise), the
  classic silently-broken-dashboard anomaly.
* :class:`FaultStormRule` — too many injected fault events inside a
  sliding simulated-time window (the deployment is flapping faster than
  recovery can drain).
* :class:`UnrecoverableLossRule` — the fault injector declared the
  deployment unrecoverable (expert coverage lost with no degrade
  headroom, or every device lost); fires at the iteration of loss so the
  flight-recorder bundle captures the state that led there.

When a rule trips (once per rule per run), the monitor records an
:class:`Alert` and — if a :class:`FlightRecorder` is attached — dumps a
bundle (the alert, the last-N engine events, a metrics snapshot, the trace
tail, routing telemetry) into a deterministically-named directory for
postmortem debugging.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass, field
from typing import Any, Sequence, TYPE_CHECKING

from repro.serving.events import Event, EventType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.serving.engine import ServingEngine, ServingResult

__all__ = [
    "Alert",
    "AlertRule",
    "ExpertImbalanceRule",
    "PreemptionStormRule",
    "KvHighWaterRule",
    "EmptyPercentileRule",
    "FaultStormRule",
    "UnrecoverableLossRule",
    "DeviceSaturationRule",
    "FlightRecorder",
    "AlertMonitor",
    "default_rules",
]


@dataclass(frozen=True)
class Alert:
    """One fired alert, stamped with the simulated time it tripped."""

    rule: str
    time: float
    message: str
    context: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return {"rule": self.rule, "time": self.time,
                "message": self.message, "context": self.context}


class AlertRule:
    """Base rule: override :meth:`check` (per iteration) and/or
    :meth:`check_end` (once per run). Return an :class:`Alert` to fire.

    A rule that can bound its own firing also overrides
    :meth:`quiet_iterations`, which lets the engine advance decode
    windows while the rule is armed."""

    name = "alert"

    def check(self, engine: "ServingEngine") -> Alert | None:
        return None

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        """How many leading iterations of a decode window this rule
        provably does not fire on.

        ``plan`` holds the window's DECODE events, one per iteration, with
        the end clock as ``time`` and the post-iteration ``kv_utilization``;
        inside a window no request arrives, completes or is preempted, and
        the engine state it would show is not materialized.  The default
        answers 0, so a rule without a window contract keeps the engine on
        the scalar path, where :meth:`check` sees every iteration."""
        return 0

    def check_end(self, engine: "ServingEngine",
                  result: "ServingResult") -> Alert | None:
        return None


class ExpertImbalanceRule(AlertRule):
    """Rolling expert-load imbalance (max/mean over the probe's window)
    exceeds ``threshold`` after at least ``min_batches`` routed batches."""

    name = "expert_imbalance"

    def __init__(self, threshold: float = 2.0, min_batches: int = 32) -> None:
        self.threshold = threshold
        self.min_batches = min_batches

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        obs = engine.obs
        return len(plan) if obs is None or obs.routing is None else 0

    def check(self, engine: "ServingEngine") -> Alert | None:
        obs = engine.obs
        if obs is None or obs.routing is None:
            return None
        telemetry = obs.routing.telemetry
        if len(telemetry.imbalance_series) < self.min_batches:
            return None
        imbalance = telemetry.rolling_imbalance()
        if imbalance < self.threshold:
            return None
        return Alert(
            self.name, engine.clock,
            f"rolling expert imbalance {imbalance:.3f} >= "
            f"{self.threshold:.3f} (max/mean over window of "
            f"{telemetry.window} batches)",
            {"imbalance": imbalance, "threshold": self.threshold,
             "window": telemetry.window,
             "hottest_experts": telemetry.activation_ordering()[:4]},
        )


class PreemptionStormRule(AlertRule):
    """More than ``max_events`` preemptions within the trailing
    ``window_s`` of simulated time."""

    name = "preemption_storm"

    def __init__(self, max_events: int = 4, window_s: float = 1.0) -> None:
        self.max_events = max_events
        self.window_s = window_s

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        # a window records no preemption: the trailing count only ages out
        return len(plan)

    def check(self, engine: "ServingEngine") -> Alert | None:
        preemptions = engine.log.of_type(EventType.PREEMPTION)
        cutoff = engine.clock - self.window_s
        recent = 0
        for event in reversed(preemptions):
            if event.time < cutoff:
                break
            recent += 1
        if recent <= self.max_events:
            return None
        return Alert(
            self.name, engine.clock,
            f"{recent} preemptions in the last {self.window_s:g}s of "
            f"simulated time (> {self.max_events})",
            {"recent_preemptions": recent, "window_s": self.window_s,
             "total_preemptions": len(preemptions),
             "kv_utilization": engine.kv.utilization},
        )


class KvHighWaterRule(AlertRule):
    """Paged KV cache utilization crosses ``threshold``."""

    name = "kv_high_water"

    def __init__(self, threshold: float = 0.95) -> None:
        self.threshold = threshold

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        # stop before the first iteration whose block crossing reaches
        # the mark (the event carries the utilization check() would read)
        for j, event in enumerate(plan):
            if event.kv_utilization >= self.threshold:
                return j
        return len(plan)

    def check(self, engine: "ServingEngine") -> Alert | None:
        utilization = engine.kv.utilization
        if utilization < self.threshold:
            return None
        return Alert(
            self.name, engine.clock,
            f"KV cache at {utilization:.1%} (high-water mark "
            f"{self.threshold:.0%})",
            {"utilization": utilization, "threshold": self.threshold,
             "num_blocks": engine.kv.num_blocks},
        )


class EmptyPercentileRule(AlertRule):
    """The run executed iterations yet produced no latency samples —
    every percentile accessor (``p50_ttft``, ``p99_itl``, ...) would raise,
    so dashboards reading them silently show nothing."""

    name = "empty_percentiles"

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        return len(plan)  # fires only at run end

    def check_end(self, engine: "ServingEngine",
                  result: "ServingResult") -> Alert | None:
        if engine.log.num_iterations == 0:
            return None
        ttft_samples = sum(
            1 for r in result.requests
            if r.is_finished and r.ttft is not None
        )
        if ttft_samples > 0:
            return None
        return Alert(
            self.name, engine.clock,
            f"{engine.log.num_iterations} iterations ran but no request "
            "produced a TTFT sample — percentile metrics are undefined",
            {"iterations": engine.log.num_iterations,
             "requests": len(result.requests)},
        )


class FaultStormRule(AlertRule):
    """More than ``max_events`` injected faults within the trailing
    ``window_s`` of simulated time — the cluster is flapping faster than
    the recovery policies can drain the damage."""

    name = "fault_storm"

    def __init__(self, max_events: int = 3, window_s: float = 1.0) -> None:
        self.max_events = max_events
        self.window_s = window_s

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        # a window records no fault: the trailing count only ages out
        return len(plan)

    def check(self, engine: "ServingEngine") -> Alert | None:
        faults = engine.log.of_type(EventType.FAULT)
        cutoff = engine.clock - self.window_s
        recent = 0
        for event in reversed(faults):
            if event.time < cutoff:
                break
            recent += 1
        if recent <= self.max_events:
            return None
        return Alert(
            self.name, engine.clock,
            f"{recent} faults injected in the last {self.window_s:g}s of "
            f"simulated time (> {self.max_events})",
            {"recent_faults": recent, "window_s": self.window_s,
             "total_faults": len(faults),
             "last_fault": faults[-1].detail},
        )


class UnrecoverableLossRule(AlertRule):
    """The fault injector marked the deployment unrecoverable — expert
    coverage lost with no degrade headroom, or every device lost.  Firing
    per-iteration (not at run end) means an attached flight recorder
    snapshots the engine at the moment of loss."""

    name = "unrecoverable_loss"

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        return len(plan) if getattr(engine, "faults", None) is None else 0

    def check(self, engine: "ServingEngine") -> Alert | None:
        faults = getattr(engine, "faults", None)
        if faults is None or not faults.health.unrecoverable:
            return None
        return Alert(
            self.name, engine.clock,
            "deployment unrecoverable: " + "; ".join(
                faults.health.unrecoverable),
            {"health": faults.health.summary(),
             **{k: v for k, v in faults.counts.items()}},
        )


class DeviceSaturationRule(AlertRule):
    """A cluster interconnect link sustains bytes-based utilization above
    ``threshold`` for ``min_windows`` consecutive closed windows.

    Requires cluster telemetry (``obs.cluster``); inert otherwise.  A
    single hot window is batching noise — sustained saturation means the
    deployment is fabric-bound and the parallel plan (or the link) needs
    to change.
    """

    name = "device_saturation"

    def __init__(self, threshold: float = 0.85, min_windows: int = 3) -> None:
        self.threshold = threshold
        self.min_windows = min_windows

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        obs = engine.obs
        return len(plan) if obs is None or obs.cluster is None else 0

    def check(self, engine: "ServingEngine") -> Alert | None:
        obs = engine.obs
        if obs is None or obs.cluster is None:
            return None
        cluster = obs.cluster
        for name in cluster.links:
            series = cluster.link_window_utilization(name)
            if len(series) < self.min_windows:
                continue
            tail = series[-self.min_windows:]
            if min(tail) <= self.threshold:
                continue
            return Alert(
                self.name, engine.clock,
                f"link '{name}' above {self.threshold:.0%} utilization for "
                f"{self.min_windows} consecutive "
                f"{cluster.window_s:g}s windows "
                f"(last {max(tail):.3f})",
                {"link": name, "threshold": self.threshold,
                 "min_windows": self.min_windows,
                 "window_s": cluster.window_s,
                 "utilization_tail": [round(u, 6) for u in tail],
                 "bytes_total": cluster._link_bytes[name]},
            )
        return None


def default_rules() -> list[AlertRule]:
    return [ExpertImbalanceRule(), PreemptionStormRule(), KvHighWaterRule(),
            EmptyPercentileRule(), FaultStormRule(), UnrecoverableLossRule(),
            DeviceSaturationRule()]


# --------------------------------------------------------------------------- #
# flight recorder
# --------------------------------------------------------------------------- #


def _event_to_dict(event: Event) -> dict[str, Any]:
    return {
        "time": event.time,
        "type": event.type.value,
        "request_ids": list(event.request_ids),
        "num_tokens": event.num_tokens,
        "duration_s": event.duration_s,
        "kv_utilization": event.kv_utilization,
    }


class FlightRecorder:
    """Dumps a postmortem bundle when an alert fires.

    Bundle directories are named ``<rule>-t<sim_time>`` — simulated time,
    so reruns of a deterministic workload land in the same place.
    """

    def __init__(self, out_dir: str | pathlib.Path, last_n: int = 64) -> None:
        self.out_dir = pathlib.Path(out_dir)
        self.last_n = last_n

    def dump(self, alert: Alert, engine: "ServingEngine") -> pathlib.Path:
        bundle = self.out_dir / f"{alert.rule}-t{alert.time:.6f}"
        bundle.mkdir(parents=True, exist_ok=True)
        (bundle / "alert.json").write_text(
            json.dumps(alert.to_dict(), indent=2) + "\n")
        events = engine.log.events[-self.last_n:]
        (bundle / "events.json").write_text(json.dumps(
            [_event_to_dict(e) for e in events], indent=2) + "\n")
        obs = engine.obs
        if obs is not None:
            (bundle / "metrics.json").write_text(
                obs.metrics.to_json() + "\n")
            (bundle / "trace_tail.json").write_text(json.dumps(
                obs.tracer.tail(self.last_n), indent=2) + "\n")
            if obs.routing is not None:
                (bundle / "routing.json").write_text(json.dumps(
                    obs.routing.telemetry.summary(), indent=2) + "\n")
            if obs.slo is not None:
                (bundle / "slo.json").write_text(json.dumps(
                    obs.slo.report(engine.clock), indent=2) + "\n")
            if obs.cluster is not None:
                (bundle / "cluster.json").write_text(json.dumps(
                    obs.cluster.summary(), indent=2) + "\n")
        return bundle


# --------------------------------------------------------------------------- #
# monitor
# --------------------------------------------------------------------------- #


class AlertMonitor:
    """Evaluates rules against the live engine; one shot per rule per run."""

    def __init__(self, rules: list[AlertRule] | None = None,
                 recorder: FlightRecorder | None = None) -> None:
        self.rules = default_rules() if rules is None else list(rules)
        self.recorder = recorder
        self.fired: list[Alert] = []
        self.bundles: list[pathlib.Path] = []
        self._tripped: set[str] = set()

    def _fire(self, alert: Alert, engine: "ServingEngine") -> None:
        self._tripped.add(alert.rule)
        self.fired.append(alert)
        if self.recorder is not None:
            self.bundles.append(self.recorder.dump(alert, engine))

    def on_iteration(self, engine: "ServingEngine") -> None:
        for rule in self.rules:
            if rule.name in self._tripped:
                continue
            alert = rule.check(engine)
            if alert is not None:
                self._fire(alert, engine)

    def quiet_iterations(self, engine: "ServingEngine",
                         plan: Sequence[Event]) -> int:
        """Leading iterations of a decode window on which no untripped
        rule can fire: the minimum of the rules' answers (see
        :meth:`AlertRule.quiet_iterations`)."""
        quiet = len(plan)
        for rule in self.rules:
            if quiet == 0:
                break
            if rule.name not in self._tripped:
                quiet = min(quiet, rule.quiet_iterations(engine, plan))
        return quiet

    def on_run_end(self, engine: "ServingEngine",
                   result: "ServingResult") -> None:
        for rule in self.rules:
            if rule.name in self._tripped:
                continue
            alert = rule.check_end(engine, result)
            if alert is not None:
                self._fire(alert, engine)

    def summary(self) -> list[dict[str, Any]]:
        return [a.to_dict() for a in self.fired]
