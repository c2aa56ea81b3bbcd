"""Tests for repro.obs.alerts — rules, monitor, flight recorder."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.hardware.gpus import H100_SXM
from repro.models.zoo import get_model
from repro.obs.alerts import (
    AlertMonitor,
    AlertRule,
    EmptyPercentileRule,
    ExpertImbalanceRule,
    FlightRecorder,
    KvHighWaterRule,
    PreemptionStormRule,
    default_rules,
)
from repro.obs.instrument import Instrumentation
from repro.perfmodel.inference import InferencePerfModel
from repro.serving.engine import ServingEngine, ServingResult
from repro.serving.events import Event, EventType
from repro.workloads.generator import FixedShapeWorkload

MODEL = "OLMoE-1B-7B"


def _engine(alerts=None, with_routing=False, kv_pool_tokens=None):
    model = get_model(MODEL)
    obs = Instrumentation.on(model=model if with_routing else None,
                             alerts=alerts)
    pm = InferencePerfModel(model, H100_SXM, instrumentation=obs)
    return ServingEngine(pm, instrumentation=obs,
                         kv_pool_tokens=kv_pool_tokens), obs


def _run(engine, num_requests=8, input_tokens=128, output_tokens=16):
    for req in FixedShapeWorkload(batch_size=num_requests,
                                  input_tokens=input_tokens,
                                  output_tokens=output_tokens).requests():
        engine.submit(req)
    return engine.run()


class TestRules:
    def test_quiet_on_healthy_run(self):
        monitor = AlertMonitor()  # default rules, default thresholds
        engine, _ = _engine(alerts=monitor, with_routing=True)
        _run(engine)
        assert monitor.fired == []

    def test_kv_high_water_fires(self):
        monitor = AlertMonitor(rules=[KvHighWaterRule(threshold=0.5)])
        engine, _ = _engine(alerts=monitor, kv_pool_tokens=4096)
        _run(engine, num_requests=12, input_tokens=256, output_tokens=32)
        assert [a.rule for a in monitor.fired] == ["kv_high_water"]
        alert = monitor.fired[0]
        assert alert.context["utilization"] >= 0.5
        assert alert.time > 0

    def test_rules_fire_at_most_once(self):
        monitor = AlertMonitor(rules=[KvHighWaterRule(threshold=0.1)])
        engine, _ = _engine(alerts=monitor, kv_pool_tokens=4096)
        _run(engine, num_requests=12, input_tokens=256, output_tokens=32)
        assert len(monitor.fired) == 1

    def test_expert_imbalance_fires_on_synthetic_skew(self, tmp_path):
        monitor = AlertMonitor(rules=[ExpertImbalanceRule()],
                               recorder=FlightRecorder(tmp_path, last_n=16))
        engine, obs = _engine(alerts=monitor, with_routing=True)
        # synthetic hot expert: all the window's load on expert 0
        skew = np.zeros(obs.routing.telemetry.num_experts, dtype=np.int64)
        skew[0] = 1000
        for _ in range(64):
            obs.routing.telemetry.record_counts(0, skew)
        _run(engine, num_requests=2, output_tokens=4)
        assert [a.rule for a in monitor.fired] == ["expert_imbalance"]
        bundle = monitor.bundles[0]
        assert bundle.name.startswith("expert_imbalance-t")
        assert (bundle / "routing.json").exists()
        alert = json.loads((bundle / "alert.json").read_text())
        assert alert["context"]["hottest_experts"][0] == 0

    def test_preemption_storm_rule(self):
        engine, _ = _engine()
        rule = PreemptionStormRule(max_events=3, window_s=1.0)
        for t in (0.1, 0.2, 0.3):
            engine.log.record(Event(t, EventType.PREEMPTION, (0,)))
        engine.clock = 0.3
        assert rule.check(engine) is None  # 3 events is not > 3 yet
        engine.log.record(Event(0.4, EventType.PREEMPTION, (0,)))
        engine.clock = 0.4
        alert = rule.check(engine)
        assert alert is not None
        assert alert.context["recent_preemptions"] == 4
        # events older than the window stop counting
        engine.clock = 5.0
        assert rule.check(engine) is None

    def test_empty_percentile_rule(self):
        engine, _ = _engine()
        rule = EmptyPercentileRule()
        # iterations happened but nothing ever finished
        engine.log.record(Event(0.1, EventType.DECODE, (0,), num_tokens=1,
                                duration_s=0.1))
        result = ServingResult(requests=[], makespan=0.1, log=engine.log)
        alert = rule.check_end(engine, result)
        assert alert is not None and "percentile" in alert.message

    def test_empty_percentile_quiet_when_samples_exist(self):
        monitor = AlertMonitor(rules=[EmptyPercentileRule()])
        engine, _ = _engine(alerts=monitor)
        _run(engine, num_requests=2, output_tokens=2)
        assert monitor.fired == []

    def test_default_rules_cover_the_seven_pathologies(self):
        assert {r.name for r in default_rules()} == {
            "expert_imbalance", "preemption_storm", "kv_high_water",
            "empty_percentiles", "fault_storm", "unrecoverable_loss",
            "device_saturation",
        }


class TestWindowContract:
    """``quiet_iterations``: how far a decode window may run before a rule
    could fire (see ``repro.serving.fastpath``)."""

    @staticmethod
    def _plan(*utilizations):
        return [Event(0.1 * (j + 1), EventType.DECODE, kv_utilization=u)
                for j, u in enumerate(utilizations)]

    @staticmethod
    def _stub(faults=None):
        from types import SimpleNamespace

        obs = SimpleNamespace(routing=None, cluster=None)
        return SimpleNamespace(obs=obs, faults=faults, clock=0.0)

    def test_kv_high_water_stops_before_the_crossing(self):
        rule = KvHighWaterRule(threshold=0.5)
        plan = self._plan(0.25, 0.375, 0.5, 0.625)
        assert rule.quiet_iterations(self._stub(), plan) == 2
        assert rule.quiet_iterations(self._stub(), plan[:2]) == 2

    def test_default_rules_answer_all_without_their_sources(self):
        plan = self._plan(0.25, 0.25, 0.25)
        for rule in default_rules():
            assert rule.quiet_iterations(self._stub(), plan) == 3, rule.name

    def test_custom_rule_defaults_to_the_scalar_path(self):
        class Custom(AlertRule):
            name = "custom"

        plan = self._plan(0.25)
        assert Custom().quiet_iterations(self._stub(), plan) == 0
        assert AlertMonitor(rules=[Custom()]).quiet_iterations(
            self._stub(), plan) == 0

    def test_monitor_takes_the_minimum_of_untripped_rules(self):
        plan = self._plan(0.25, 0.5, 0.75)
        monitor = AlertMonitor(rules=[KvHighWaterRule(threshold=0.7),
                                      PreemptionStormRule()])
        assert monitor.quiet_iterations(self._stub(), plan) == 2
        monitor._tripped.add("kv_high_water")
        assert monitor.quiet_iterations(self._stub(), plan) == 3

    def test_fault_sourced_rules_keep_the_scalar_path_with_an_injector(self):
        from repro.obs.alerts import UnrecoverableLossRule

        plan = self._plan(0.25)
        assert UnrecoverableLossRule().quiet_iterations(
            self._stub(faults=object()), plan) == 0


class TestFlightRecorder:
    def test_bundle_contents(self, tmp_path):
        monitor = AlertMonitor(
            rules=[KvHighWaterRule(threshold=0.3)],
            recorder=FlightRecorder(tmp_path, last_n=8),
        )
        engine, obs = _engine(alerts=monitor, kv_pool_tokens=4096)
        _run(engine, num_requests=12, input_tokens=256, output_tokens=32)
        assert len(monitor.bundles) == 1
        bundle = monitor.bundles[0]
        names = sorted(p.name for p in bundle.iterdir())
        assert names == ["alert.json", "events.json", "metrics.json",
                         "trace_tail.json"]
        events = json.loads((bundle / "events.json").read_text())
        assert 0 < len(events) <= 8
        assert {"time", "type", "request_ids"} <= set(events[0])
        tail = json.loads((bundle / "trace_tail.json").read_text())
        assert 0 < len(tail) <= 8
        metrics = json.loads((bundle / "metrics.json").read_text())
        assert any(m["name"] == "engine_iterations_total"
                   for m in metrics["metrics"])

    def test_deterministic_bundle_path(self, tmp_path):
        def once(root):
            monitor = AlertMonitor(
                rules=[KvHighWaterRule(threshold=0.3)],
                recorder=FlightRecorder(root),
            )
            engine, _ = _engine(alerts=monitor, kv_pool_tokens=4096)
            _run(engine, num_requests=12, input_tokens=256, output_tokens=32)
            return monitor.bundles[0].name

        assert once(tmp_path / "a") == once(tmp_path / "b")


class TestEngineIntegration:
    def test_monitor_inert_without_instrumentation(self):
        model = get_model(MODEL)
        pm = InferencePerfModel(model, H100_SXM)
        engine = ServingEngine(pm)
        bare = _run(engine)
        monitor = AlertMonitor(rules=[KvHighWaterRule(threshold=0.3)])
        engine2, _ = _engine(alerts=monitor)
        observed = _run(engine2)
        assert bare.makespan == observed.makespan

    def test_alert_times_are_simulated(self):
        monitor = AlertMonitor(rules=[KvHighWaterRule(threshold=0.3)])
        engine, _ = _engine(alerts=monitor, kv_pool_tokens=4096)
        result = _run(engine, num_requests=12, input_tokens=256,
                      output_tokens=32)
        assert 0 < monitor.fired[0].time <= result.makespan
